"""Tests for the tagged-output parser (Figure 1b format)."""

import pytest

from repro.agent import Block, extract_blocks, format_block
from repro.agent.parser import TagFormatError

EXAMPLE = (
    "<think> I need to find out who painted the Mona Lisa. </think>\n"
    "<search> who painted the Mona Lisa? </search>\n"
    "<info> The Mona Lisa was painted by Leonardo da Vinci. </info>\n"
    "<answer> Leonardo da Vinci </answer>"
)


class TestExtractBlocks:
    def test_parses_the_paper_example(self):
        blocks = extract_blocks(EXAMPLE)
        assert [block.tag for block in blocks] == [
            "think", "search", "info", "answer",
        ]
        assert blocks[1].content == "who painted the Mona Lisa?"

    def test_content_stripped(self):
        blocks = extract_blocks("<think>   padded   </think>")
        assert blocks[0].content == "padded"

    def test_text_between_blocks_ignored(self):
        blocks = extract_blocks("noise <think> a </think> more noise <info> b </info>")
        assert len(blocks) == 2

    def test_empty_input(self):
        assert extract_blocks("") == []

    def test_unknown_tag_rejected(self):
        with pytest.raises(TagFormatError):
            extract_blocks("<magic> x </magic>")

    def test_nested_tags_rejected(self):
        with pytest.raises(TagFormatError):
            extract_blocks("<think> <search> q </search> </think>")

    def test_unclosed_tag_rejected(self):
        with pytest.raises(TagFormatError):
            extract_blocks("<think> never closed")

    def test_unmatched_close_rejected(self):
        with pytest.raises(TagFormatError):
            extract_blocks("stray </think>")

    def test_interleaved_close_rejected(self):
        with pytest.raises(TagFormatError):
            extract_blocks("<think> a </search>")

    def test_multiline_content(self):
        blocks = extract_blocks("<info> line one\nline two </info>")
        assert "line one\nline two" == blocks[0].content


class TestHelpers:
    def test_format_block_roundtrips(self):
        text = format_block("search", "height of everest")
        assert extract_blocks(text) == [
            Block(tag="search", content="height of everest")
        ]

    def test_format_unknown_tag_rejected(self):
        with pytest.raises(TagFormatError):
            format_block("bogus", "x")
