"""Second round of property-based tests: parser, paraphraser, kernel."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.agent.parser import ACTION_TAGS, KNOWN_TAGS, extract_blocks, format_block
from repro.embedding import HashingEmbedder, cosine_similarity
from repro.sim import Simulator
from repro.workloads import Paraphraser

COMMON_SETTINGS = settings(
    max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

# Content text that cannot collide with tag syntax.
_content = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="<>"),
    min_size=0,
    max_size=40,
)


@COMMON_SETTINGS
@given(st.lists(st.tuples(st.sampled_from(KNOWN_TAGS), _content), max_size=10))
def test_parser_roundtrips_any_block_sequence(blocks):
    text = "\n".join(format_block(tag, content) for tag, content in blocks)
    parsed = extract_blocks(text)
    assert [block.tag for block in parsed] == [tag for tag, _ in blocks]
    for block, (_, content) in zip(parsed, blocks):
        assert block.content == content.strip()


@COMMON_SETTINGS
@given(st.lists(st.tuples(st.sampled_from(KNOWN_TAGS), _content), max_size=8))
def test_parser_action_filter_consistent(blocks):
    text = " ".join(format_block(tag, content) for tag, content in blocks)
    actions = [block for block in extract_blocks(text) if block.tag in ACTION_TAGS]
    expected = [tag for tag, _ in blocks if tag in ACTION_TAGS]
    assert [block.tag for block in actions] == expected


@COMMON_SETTINGS
@given(
    core=st.lists(
        st.sampled_from(
            "everest amazon tesla picasso insulin mortgage festival helix".split()
        ),
        min_size=1,
        max_size=4,
        unique=True,
    ),
    variant_a=st.integers(0, 111),
    variant_b=st.integers(0, 111),
)
def test_paraphrase_pairs_always_clear_coarse_filter(core, variant_a, variant_b):
    """Any two variants of the same core embed above tau_sim = 0.7."""
    paraphraser = Paraphraser()
    embedder = HashingEmbedder(seed=7)
    text = " ".join(core)
    a = embedder.embed(paraphraser.phrase(text, variant_a))
    b = embedder.embed(paraphraser.phrase(text, variant_b))
    assert cosine_similarity(a, b) > 0.7


@COMMON_SETTINGS
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_kernel_fires_all_timeouts_in_order(delays):
    sim = Simulator()
    fired = []

    def waiter(delay):
        yield sim.timeout(delay)
        fired.append(sim.now)

    for delay in delays:
        sim.process(waiter(delay))
    sim.run()
    assert len(fired) == len(delays)
    assert fired == sorted(fired)
    assert sim.now == pytest.approx(max(delays))


@COMMON_SETTINGS
@given(
    texts=st.lists(
        st.text(alphabet=st.characters(codec="ascii"), min_size=1, max_size=30),
        min_size=1,
        max_size=20,
    )
)
def test_embedding_batch_matches_singles(texts):
    embedder = HashingEmbedder(seed=3, dim=32)
    batch = embedder.embed_batch(texts)
    for row, text in zip(batch, texts):
        assert np.allclose(row, embedder.embed(text))
