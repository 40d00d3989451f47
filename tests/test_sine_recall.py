"""Sine's recall stage: a repeated text replays its last matched retrieval
only when the full path would return exactly that result."""

from benchmarks.cortexbench import gen
from repro.core import AsteriaConfig, Query
from repro.core import sine as sine_module
from repro.embedding import CachedEmbedder
from repro.factory import build_asteria_engine, build_remote
from repro.obs import Tracer


def _spy_lookups(engine, wipe: bool) -> list:
    """Every SineResult the engine's cache returns, as plain values. With
    ``wipe`` Sine's records are cleared before each lookup, so every lookup
    takes the full path."""
    cache = engine.cache
    lookup = cache.lookup
    index = cache.sine.index
    search = index.search
    seen = []

    def counted_search(*args):
        engine.searches += 1
        return search(*args)

    engine.searches = 0
    index.search = counted_search

    def spy(query, now, match="semantic"):
        if wipe:
            cache.sine._recalls.clear()
            cache.sine._named_by.clear()
        result = lookup(query, now, match)
        seen.append(_plain(result))
        return result

    cache.lookup = spy
    return seen


class _Counted:
    """An embedding model that counts the texts it embeds."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.calls = 0

    def embed(self, text):
        self.calls += 1
        return self.inner.embed(text)


def _counted_memo(engine, max_entries: int = 1) -> _Counted:
    """Give ``engine``'s Sine a ``max_entries`` memo over a counted model."""
    sine = engine.cache.sine
    counted = _Counted(sine.embedder.inner)
    sine.embedder = CachedEmbedder(counted, max_entries=max_entries)
    return counted


def _plain(result) -> tuple:
    """A SineResult as plain values, comparable across engines."""
    return (
        None if result.match is None else result.match.element_id,
        [hit.key for hit in result.candidates],
        [hit.score for hit in result.candidates],
        [verdict.score for verdict in result.verdicts],
        result.ann_considered,
    )


def _run(wipe: bool, memo: int | None = None):
    """A schedule with TTL expiry, capacity eviction, an invalidation,
    tau_lsm moves, fine-tune rounds and a judger drift. ``memo`` replaces
    the embedder memo's default size."""
    universe = gen.build_universe("recall", 40, 3)
    stream = gen.build_stream(universe, 1.5, 2400, 3)
    config = AsteriaConfig(
        capacity_items=30,
        default_ttl=8.0,
        recalibration_enabled=True,
        recalibration_interval=8.0,
        recalibration_samples=10,
        finetune_enabled=True,
    )
    engine = build_asteria_engine(build_remote(universe, seed=3), config, seed=3)
    engine.recalibrator.min_records = 10
    if memo is not None:
        _counted_memo(engine, memo)
    judger = engine.cache.sine.judger
    judger.flip_rate = 0.2  # something for the fine-tune rounds to pull back
    seen = _spy_lookups(engine, wipe)
    hot = stream[0].fact_id
    for i, query in enumerate(stream):
        if i == 800:
            assert engine.cache.invalidate(lambda element: element.truth_key == hot)
        if i == 1900:
            # Drift: equivalent pairs start scoring Beta(4, 1), so verdicts
            # made before it no longer hold.
            judger.pos_alpha, judger.pos_beta = 4.0, 1.0
        engine.handle(query, i * 0.01)
    return engine, seen


def test_replays_decide_exactly_as_the_full_path():
    twin, full = _run(wipe=True)
    assert twin.searches == 2400
    # The memo decides nothing: a record replays with its own vector.
    for memo in (None, 1):
        engine, seen = _run(wipe=False, memo=memo)
        _assert_replays_match(engine, seen, twin, full)


def _assert_replays_match(engine, seen, twin, full) -> None:
    assert len(seen) == len(full) == 2400
    for index, (replayed, walked) in enumerate(zip(seen, full)):
        # A row's score is a function of the row and the query, so a
        # replay's candidate scores are the full path's bits.
        assert replayed == walked, index
    assert engine.metrics.summary() == twin.metrics.summary()
    assert engine.cache.sine.tau_lsm == twin.cache.sine.tau_lsm
    # The schedule exercised what it claims to.
    stats = engine.cache.stats
    assert stats.expirations > 0 and stats.evictions > 0
    assert engine.metrics.recalibrations == 2
    assert engine.cache.sine.tau_lsm != AsteriaConfig().tau_lsm
    assert engine.cache.sine.judger.flip_rate < 0.2
    # ... and replayed a good share of the lookups: a replay scans nothing.
    assert engine.searches < 2400 - 300
    assert engine.cache.sine.judger.calls < twin.cache.sine.judger.calls
    # No record outlives an element it names, and the reverse map names
    # exactly the live records' owners.
    elements = engine.cache.elements
    for _, owners, *_ in engine.cache.sine._recalls.values():
        assert all(elements.get(owner.element_id) is owner for owner in owners)
    assert engine.cache.sine._named_by == _named_by_records(engine.cache.sine)


def _named_by_records(sine) -> dict:
    """The element id -> texts map that Sine's records imply."""
    named: dict = {}
    for text, (_, owners, *_) in sine._recalls.items():
        for owner in owners:
            named.setdefault(owner.element_id, set()).add(text)
    return named


def test_a_traced_replay_records_one_recall_span():
    engine = build_asteria_engine(build_remote(seed=0), seed=0)
    tracer = Tracer()
    engine.set_tracer(tracer)
    query = Query("height of mount everest", fact_id="EV")
    for step in range(3):  # miss, full-path hit (recorded), replay
        engine.handle(query, float(step))
    spans = tracer.spans()
    roots = [span for span in spans if span.name == "request"]
    assert len(roots) == 3
    last = {span.name for span in spans if span.parent_id == roots[-1].span_id}
    assert last == {"recall"}
    second = {span.name for span in spans if span.parent_id == roots[1].span_id}
    assert {"embed", "ann_search", "judge"} <= second and "recall" not in second
    assert engine.metrics.hits == 2


def test_records_are_bounded_by_the_recall_constant(monkeypatch):
    monkeypatch.setattr(sine_module, "RECALL_ENTRIES", 3)
    engine = build_asteria_engine(build_remote(seed=0), seed=0)
    texts = [
        "capital of france", "boiling point of water", "author of hamlet",
        "speed of light", "tallest building in dubai", "deepest lake on earth",
    ]
    for step, text in enumerate(texts * 3):  # miss, hit (recorded), replay
        engine.handle(Query(text, fact_id=text), float(step))
    assert engine.metrics.hits == 12
    sine = engine.cache.sine
    assert list(sine._recalls) == texts[-3:]
    # Records the LRU dropped leave nothing behind in the reverse map.
    assert sine._named_by == _named_by_records(sine)
    assert sum(map(len, sine._named_by.values())) <= 3 * sine.max_candidates


def test_tied_scores_replay_in_key_order():
    # Two identical rows tie exactly. A row's score does not move with the
    # arena's row count and the scan settles ties by key, so the retrieval
    # is recorded and replays just as the full path returns it.
    engine = build_asteria_engine(build_remote(seed=0), seed=0)
    cache = engine.cache
    sine = cache.sine
    query = Query("height of mount everest", fact_id="EV")
    fetch = engine.remote.fetch_at(query, 0.0)
    cache.insert(query, fetch, 0.0)
    cache.insert(query, fetch, 0.0)  # an identical row: the two scores tie
    recorded = cache.lookup(query, 1.0)
    assert recorded.match is not None and len(recorded.candidates) == 2
    first, second = recorded.candidates
    assert first.score == second.score and first.key < second.key
    assert query.text in sine._recalls
    assert cache.lookup(query, 2.0) is recorded  # the replay
    sine._recalls.clear()
    sine._named_by.clear()
    assert cache.lookup(query, 3.0) == recorded  # the full path


def _recorded(engine):
    """Admit and look up one query, so its matched retrieval is recorded."""
    cache = engine.cache
    query = Query("height of mount everest", fact_id="EV")
    cache.insert(query, engine.remote.fetch_at(query, 0.0), 0.0)
    recorded = cache.lookup(query, 1.0)
    assert recorded.match is not None and query.text in cache.sine._recalls
    return query, recorded


def test_a_replay_never_re_embeds():
    engine = build_asteria_engine(build_remote(seed=0), seed=0)
    counted = _counted_memo(engine)
    query, recorded = _recorded(engine)
    other = Query("capital of france", fact_id="FR")
    engine.cache.insert(other, engine.remote.fetch_at(other, 2.0), 2.0)
    assert query.text not in engine.cache.sine.embedder  # the memo evicted it
    _spy_lookups(engine, wipe=False)
    calls = counted.calls
    # The admit since makes the replay score the fresh row first.
    replayed = engine.cache.lookup(query, 3.0)
    assert engine.searches == 0  # a replay
    assert replayed.candidates is recorded.candidates
    assert counted.calls == calls


def test_a_refused_replay_scans_with_the_record_vector():
    stacks = []
    for _ in range(2):
        engine = build_asteria_engine(build_remote(seed=0), seed=0)
        counted = _counted_memo(engine)
        query, _ = _recorded(engine)
        # A paraphrase admitted since scores above tau_sim: no replay.
        near = Query("the height of mount everest", fact_id="EV")
        engine.cache.insert(near, engine.remote.fetch_at(near, 2.0), 2.0)
        assert query.text not in engine.cache.sine.embedder
        stacks.append((engine, counted))
    (engine, counted), (fresh, _) = stacks
    seen = _spy_lookups(engine, wipe=False)
    calls = counted.calls
    engine.cache.lookup(query, 3.0)
    assert engine.searches == 1  # the full path
    assert counted.calls == calls
    assert len(seen[0][1]) == 2 and query.text in engine.cache.sine._recalls
    fresh.cache.sine._recalls.clear()
    fresh.cache.sine._named_by.clear()
    assert seen[0] == _plain(fresh.cache.lookup(query, 3.0))
