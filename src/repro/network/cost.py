"""Operational cost accounting.

Tracks API fees as the paper's cost analysis does (Table 1): each remote
call is charged a per-call fee. Table 5 adds GPU rental at
:data:`PRICE_H100_PER_HOUR` per device-hour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Table 1 prices, per single call (the table quotes per 1 000 requests).
PRICE_GOOGLE_SEARCH_PER_CALL = 0.005
PRICE_OPENAI_WEB_SEARCH_PER_CALL = 0.010
PRICE_OPENAI_PREVIEW_PER_CALL_HIGH = 0.025

#: §2.2: an H100 rents for about $1.49/hour.
PRICE_H100_PER_HOUR = 1.49


@dataclass
class CostMeter:
    """Accumulates API spend over an experiment, per call and per tool."""

    api_cost: float = 0.0
    api_calls: int = 0
    _by_tool: dict = field(default_factory=dict)

    def charge_api_call(self, fee: float, tool: str = "search") -> None:
        """Record one remote API call costing ``fee`` dollars."""
        if fee < 0:
            raise ValueError(f"fee must be >= 0, got {fee}")
        self.api_cost += fee
        self.api_calls += 1
        self._by_tool[tool] = self._by_tool.get(tool, 0.0) + fee

    def by_tool(self) -> dict:
        """API spend broken down by tool name."""
        return dict(self._by_tool)

    def __repr__(self) -> str:
        return f"CostMeter(api=${self.api_cost:.4f} over {self.api_calls} calls)"
