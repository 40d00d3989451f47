"""Parsing and emitting the agent's tagged output format (Figure 1b).

Agentic LLMs wrap each step in well-formed tags::

    <think> I need to find out who painted the Mona Lisa. </think>
    <search> who painted the Mona Lisa? </search>
    <info> The Mona Lisa was painted by Leonardo da Vinci. </info>
    <answer> Leonardo da Vinci </answer>

The scripted agents render their trajectories in it with
:func:`format_block`; :func:`extract_blocks` reads one back and is strict
about well-formedness: an opening tag must have a matching close, tags must
not nest, and unknown tags are surfaced rather than silently dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: Tags the agent runtime understands. ``search``/``tool``/``file`` are the
#: action tags whose content is a tool-call query.
KNOWN_TAGS = ("think", "search", "tool", "file", "info", "answer")
ACTION_TAGS = ("search", "tool", "file")

_TAG_PATTERN = re.compile(r"<(/?)([a-z_]+)>")


class TagFormatError(ValueError):
    """Raised for malformed tagged output (unclosed, nested, unknown tags)."""


@dataclass(frozen=True)
class Block:
    """One tagged block: ``tag`` name and stripped ``content``."""

    tag: str
    content: str


def format_block(tag: str, content: str) -> str:
    """Render one block in the agent's output format."""
    if tag not in KNOWN_TAGS:
        raise TagFormatError(f"unknown tag {tag!r}; known: {KNOWN_TAGS}")
    return f"<{tag}> {content} </{tag}>"


def extract_blocks(text: str) -> list[Block]:
    """Parse ``text`` into an ordered list of :class:`Block`.

    Raises :class:`TagFormatError` on unknown tags, nesting, an unmatched
    close, or an unclosed open. Text outside any block is ignored (models
    often emit whitespace or stray tokens between steps).
    """
    blocks: list[Block] = []
    open_tag: str | None = None
    open_at = 0
    for match in _TAG_PATTERN.finditer(text):
        closing, tag = match.group(1) == "/", match.group(2)
        if tag not in KNOWN_TAGS:
            raise TagFormatError(f"unknown tag <{'/' if closing else ''}{tag}>")
        if not closing:
            if open_tag is not None:
                raise TagFormatError(f"<{tag}> opened inside unclosed <{open_tag}>")
            open_tag = tag
            open_at = match.end()
        elif open_tag is None:
            raise TagFormatError(f"</{tag}> without a matching open")
        elif tag != open_tag:
            raise TagFormatError(
                f"</{tag}> closes <{open_tag}> (tags must not interleave)"
            )
        else:
            blocks.append(Block(tag=tag, content=text[open_at : match.start()].strip()))
            open_tag = None
    if open_tag is not None:
        raise TagFormatError(f"<{open_tag}> never closed")
    return blocks
