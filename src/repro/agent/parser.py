"""Parsing and emitting the agent's tagged output format (Figure 1b).

Agentic LLMs wrap each step in well-formed tags::

    <think> I need to find out who painted the Mona Lisa. </think>
    <search> who painted the Mona Lisa? </search>
    <info> The Mona Lisa was painted by Leonardo da Vinci. </info>
    <answer> Leonardo da Vinci </answer>

The data client relies on this structure to lift (query, result) pairs into
semantic elements, so the parser is strict about well-formedness: an opening
tag must have a matching close, tags must not nest, and unknown tags are
surfaced rather than silently dropped.
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


def extract_blocks(text: str, strict: bool = True) -> list[Block]:
    """Parse ``text`` into an ordered list of :class:`Block`.

    In strict mode (default) raises :class:`TagFormatError` on unknown tags,
    nesting, an unmatched close, or an unclosed open. With ``strict=False``
    the parser recovers what it can — live models occasionally truncate or
    garble a tag, and the data client must not crash the request path:
    unknown tags are skipped, a stray close is ignored, a tag opened inside
    another implicitly closes the outer one, and a trailing unclosed block
    is emitted with whatever content followed it.

    Text outside any block is ignored in both modes (models often emit
    whitespace or stray tokens between steps).
    """
    blocks: list[Block] = []
    open_tag: str | None = None
    open_at = 0

    def fail(message: str) -> None:
        if strict:
            raise TagFormatError(message)

    for match in _TAG_PATTERN.finditer(text):
        closing, tag = match.group(1) == "/", match.group(2)
        if tag not in KNOWN_TAGS:
            fail(f"unknown tag <{'/' if closing else ''}{tag}>")
            continue
        if not closing:
            if open_tag is not None:
                fail(f"<{tag}> opened inside unclosed <{open_tag}>")
                # Recovery: close the outer block at this point.
                blocks.append(
                    Block(tag=open_tag, content=text[open_at : match.start()].strip())
                )
            open_tag = tag
            open_at = match.end()
        else:
            if open_tag is None:
                fail(f"</{tag}> without a matching open")
                continue
            if tag != open_tag:
                fail(f"</{tag}> closes <{open_tag}> (tags must not interleave)")
                continue
            blocks.append(Block(tag=tag, content=text[open_at : match.start()].strip()))
            open_tag = None
    if open_tag is not None:
        fail(f"<{open_tag}> never closed")
        blocks.append(Block(tag=open_tag, content=text[open_at:].strip()))
    return blocks
