"""Tests for :mod:`repro.obs.trace` — span trees, context propagation across
threads and event loops, leaf recording, exports, and the retention bound."""

import asyncio
import json
import threading

import pytest

from repro.core import Query
from repro.factory import build_asteria_engine, build_async_engine, build_remote
from repro.obs import SamplingTracer, Tracer
from repro.obs.trace import STAGES, Span, _SKIP_SPAN
from repro.serving.aio import run_open_loop


def make_clock(step: float = 1.0):
    """A deterministic monotonic clock advancing ``step`` per call."""
    state = {"t": 0.0}

    def clock() -> float:
        state["t"] += step
        return state["t"]

    return clock


class TestSpanTree:
    def test_request_root_and_nested_child(self):
        tracer = Tracer(clock=make_clock())
        with tracer.request(tool="kb") as root:
            with tracer.span("admit", size=3) as child:
                pass
        spans = tracer.spans()
        assert [s.name for s in spans] == ["admit", "request"]
        assert root.parent_id is None
        assert root.trace_id == root.span_id
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.attrs == {"size": 3}
        assert child.start >= root.start
        assert child.end <= root.end
        assert root.duration > 0

    def test_request_ignores_inherited_parent(self):
        """A pooled thread's leftover context must never reparent the next
        request: request() always opens a fresh root."""
        tracer = Tracer(clock=make_clock())
        with tracer.request() as outer:
            with tracer.request() as inner:
                pass
        assert inner.parent_id is None
        assert inner.trace_id != outer.trace_id

    def test_context_resets_after_exit(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.request() as root:
            assert tracer.current() is root
        assert tracer.current() is None

    def test_set_merges_attrs(self):
        tracer = Tracer()
        with tracer.span("judge") as span:
            span.set(judged=4)
            span.set(matched=True)
        assert span.attrs == {"judged": 4, "matched": True}

    def test_exception_still_finishes_and_resets(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.request():
                raise RuntimeError("boom")
        assert tracer.current() is None
        assert [s.name for s in tracer.spans()] == ["request"]


class TestRecordLeaf:
    def test_leaf_parents_under_current_span(self):
        tracer = Tracer(clock=make_clock())
        with tracer.request() as root:
            t0 = tracer.clock()
            tracer.record_leaf("embed", t0, {"batch": 2})
        leaf, request = tracer.spans()
        assert leaf.name == "embed"
        assert leaf.trace_id == root.trace_id
        assert leaf.parent_id == root.span_id
        assert leaf.thread_id == root.thread_id
        assert leaf.attrs == {"batch": 2}
        assert leaf.end > leaf.start
        assert request.name == "request"

    def test_leaf_without_parent_is_its_own_root(self):
        tracer = Tracer(clock=make_clock())
        t0 = tracer.clock()
        tracer.record_leaf("evict", t0)
        (leaf,) = tracer.spans()
        assert leaf.parent_id is None
        assert leaf.trace_id == leaf.span_id
        assert leaf.thread_id == threading.get_ident()

    def test_leaf_does_not_become_current(self):
        """Leaves never install themselves: the *parent* stays current, so a
        later stage in the same request still parents correctly."""
        tracer = Tracer()
        with tracer.request() as root:
            tracer.record_leaf("embed", tracer.clock())
            assert tracer.current() is root
            tracer.record_leaf("ann_search", tracer.clock())
        embed, ann, _ = tracer.spans()
        assert embed.parent_id == root.span_id
        assert ann.parent_id == root.span_id

    def test_materialization_is_deterministic(self):
        """spans() builds Span objects lazily from pending leaf tuples;
        repeated calls must agree on every id and timestamp."""
        tracer = Tracer(clock=make_clock())
        with tracer.request():
            for _ in range(3):
                tracer.record_leaf("embed", tracer.clock())
        first = [
            (s.name, s.trace_id, s.span_id, s.parent_id, s.start, s.end)
            for s in tracer.spans()
        ]
        second = [
            (s.name, s.trace_id, s.span_id, s.parent_id, s.start, s.end)
            for s in tracer.spans()
        ]
        assert first == second
        # Leaf ids were drawn at record time, so they are strictly
        # increasing in recording order (the root drew its id earlier, at
        # open, but lands in the deque last when it finishes).
        leaf_ids = [row[2] for row in first if row[0] == "embed"]
        assert leaf_ids == sorted(leaf_ids)

    def test_leaf_timestamps_are_epoch_relative(self):
        clock = make_clock(step=0.5)
        tracer = Tracer(clock=clock)  # epoch = 0.5
        t0 = tracer.clock()  # 1.0
        tracer.record_leaf("embed", t0)  # end = 1.5
        (leaf,) = tracer.spans()
        assert leaf.start == pytest.approx(0.5)
        assert leaf.end == pytest.approx(1.0)
        assert leaf.duration == pytest.approx(0.5)


class TestRetentionBound:
    def test_deque_bounds_and_counts_drops(self):
        tracer = Tracer(max_spans=4)
        for _ in range(10):
            tracer.record_leaf("embed", tracer.clock())
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert len(tracer.spans()) == 4

    def test_context_manager_spans_also_bounded(self):
        tracer = Tracer(max_spans=2)
        for _ in range(5):
            with tracer.request():
                pass
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_max_spans_validated(self):
        with pytest.raises(ValueError, match="max_spans"):
            Tracer(max_spans=0)


class TestThreadPropagation:
    def test_threads_are_isolated(self):
        """Each thread's contextvar is independent: concurrent requests on
        different threads never cross-parent."""
        tracer = Tracer()
        barrier = threading.Barrier(2)
        roots = {}

        def serve(key):
            with tracer.request(worker=key) as root:
                barrier.wait(timeout=5)
                tracer.record_leaf("embed", tracer.clock())
                roots[key] = root

        threads = [
            threading.Thread(target=serve, args=(k,)) for k in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        spans = tracer.spans()
        leaves = [s for s in spans if s.name == "embed"]
        assert len(leaves) == 2
        for leaf in leaves:
            root = next(s for s in spans if s.span_id == leaf.parent_id)
            assert root.trace_id == leaf.trace_id
            assert root.thread_id == leaf.thread_id
        assert roots["a"].trace_id != roots["b"].trace_id


class TestAsyncPropagation:
    def test_spawned_task_inherits_request_root(self):
        """Tasks snapshot their context at creation — the single-flight
        leader pattern: work spawned inside request A keeps A's root even
        after the creating scope has moved on."""
        tracer = Tracer()

        async def main():
            async def leader_work():
                await asyncio.sleep(0)
                with tracer.span("remote_fetch"):
                    await asyncio.sleep(0)

            with tracer.request() as root:
                task = asyncio.create_task(leader_work())
            # The request scope is closed; the task still carries its root.
            await task
            return root

        root = asyncio.run(main())
        fetch = next(s for s in tracer.spans() if s.name == "remote_fetch")
        assert fetch.trace_id == root.trace_id
        assert fetch.parent_id == root.span_id

    def test_concurrent_tasks_on_one_loop_stay_isolated(self):
        tracer = Tracer()

        async def serve(key):
            with tracer.request(client=key) as root:
                await asyncio.sleep(0)
                tracer.record_leaf("embed", tracer.clock())
                await asyncio.sleep(0)
            return root

        async def main():
            return await asyncio.gather(*(serve(k) for k in range(4)))

        roots = asyncio.run(main())
        assert len({r.trace_id for r in roots}) == 4
        by_id = {r.span_id: r for r in roots}
        leaves = [s for s in tracer.spans() if s.name == "embed"]
        assert len(leaves) == 4
        for leaf in leaves:
            assert by_id[leaf.parent_id].trace_id == leaf.trace_id


class TestExport:
    def _traced(self):
        tracer = Tracer(clock=make_clock())
        with tracer.request(tool="kb"):
            tracer.record_leaf("embed", tracer.clock())
            with tracer.span("admit"):
                pass
        return tracer

    def test_chrome_export_is_valid_trace_event_json(self, tmp_path):
        tracer = self._traced()
        path = tmp_path / "trace.json"
        count = tracer.export_chrome(path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert count == len(complete) == 3
        assert len(meta) == 1  # one thread lane
        names = {e["name"] for e in complete}
        assert names == {"request", "embed", "admit"}
        for event in complete:
            assert event["dur"] >= 0
            assert "trace_id" in event["args"]

    def test_empty_exports(self, tmp_path):
        tracer = Tracer()
        assert tracer.export_chrome(tmp_path / "t.json") == 0
        assert json.loads((tmp_path / "t.json").read_text())["traceEvents"] == []


class TestSamplingTracer:
    def test_sample_schedule_is_deterministic_modulo(self):
        tracer = SamplingTracer(sample_every=4)
        decisions = [tracer.sample() for _ in range(12)]
        assert decisions == [True, False, False, False] * 3
        assert tracer.sampled == 3
        assert tracer.skipped == 9

    def test_sample_every_one_keeps_everything(self):
        tracer = SamplingTracer(sample_every=1)
        assert all(tracer.sample() for _ in range(5))
        assert tracer.skipped == 0

    def test_sample_every_validated(self):
        with pytest.raises(ValueError, match="sample_every"):
            SamplingTracer(sample_every=0)

    def test_base_tracer_always_samples_and_is_live(self):
        tracer = Tracer()
        assert tracer.live is True
        assert all(tracer.sample() for _ in range(3))

    def test_request_opens_real_root_and_maintains_live(self):
        """request() is only reached after sample() said yes, so it always
        records — and the ``live`` pre-filter counts open sampled roots."""
        tracer = SamplingTracer(sample_every=100)
        assert tracer.live == 0
        with tracer.request(tool="kb") as root:
            assert tracer.live == 1
            assert tracer.active()
            with tracer.span("admit"):
                pass
            tracer.record_leaf("embed", tracer.clock())
        assert tracer.live == 0
        assert not tracer.active()
        spans = tracer.spans()
        assert {s.name for s in spans} == {"request", "admit", "embed"}
        for span in spans:
            assert span.trace_id == root.trace_id

    def test_stages_outside_sampled_context_record_nothing(self):
        tracer = SamplingTracer(sample_every=100)
        span = tracer.span("admit")
        assert span is _SKIP_SPAN
        with span:
            span.set(size=3)
        tracer.record_leaf("embed", tracer.clock())
        assert len(tracer) == 0
        assert not tracer.active()

    def test_sync_engine_thins_spans_but_keeps_metrics_exact(self):
        queries = _queries(40)
        baseline = build_asteria_engine(build_remote(seed=0), seed=0)
        for i, query in enumerate(queries):
            baseline.handle(query, now=i * 0.01)

        engine = build_asteria_engine(build_remote(seed=0), seed=0)
        tracer = SamplingTracer(sample_every=10)
        engine.set_tracer(tracer)
        for i, query in enumerate(queries):
            engine.handle(query, now=i * 0.01)

        spans = tracer.spans()
        roots = [s for s in spans if s.name == "request"]
        assert len(roots) == len(queries) // 10
        _check_forest(spans, expected_roots=len(roots))
        assert tracer.sampled == len(roots)
        assert tracer.skipped == len(queries) - len(roots)
        # Sampling thins the span record only; the engine's counters see
        # every request.
        assert engine.metrics.requests == baseline.metrics.requests == len(queries)
        assert engine.metrics.hits == baseline.metrics.hits
        assert engine.metrics.misses == baseline.metrics.misses

    def test_async_engine_samples_one_in_n(self):
        engine = build_async_engine(build_remote(seed=0), seed=0)
        tracer = SamplingTracer(sample_every=5)
        engine.set_tracer(tracer)
        queries = _queries(20)
        asyncio.run(run_open_loop(engine, queries, rate=10_000.0))
        roots = [s for s in tracer.spans() if s.name == "request"]
        assert len(roots) == len(queries) // 5
        assert tracer.live == 0


def _queries(n: int, population: int = 8) -> list[Query]:
    return [
        Query(f"stress fact number {i % population}", fact_id=f"F{i % population}")
        for i in range(n)
    ]


def _check_forest(spans, expected_roots: int) -> None:
    """Every span must belong to a well-formed request tree."""
    by_id = {s.span_id: s for s in spans}
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == expected_roots
    for span in spans:
        assert span.name in STAGES
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            assert parent.trace_id == span.trace_id


class TestEngineIntegration:
    def test_sync_engine_emits_expected_stage_tree(self):
        engine = build_asteria_engine(build_remote(seed=0), seed=0)
        tracer = Tracer()
        engine.set_tracer(tracer)
        queries = _queries(12)
        for i, query in enumerate(queries):
            engine.handle(query, now=i * 0.01)
        spans = tracer.spans()
        _check_forest(spans, expected_roots=len(queries))
        names = {s.name for s in spans}
        # Misses fetch + admit; repeats hit after embed/ann/judge.
        assert {"request", "embed", "ann_search", "judge", "remote_fetch",
                "admit"} <= names
        for root in (s for s in spans if s.name == "request"):
            assert root.attrs and "outcome" in root.attrs

    def test_untraced_engine_records_nothing(self):
        engine = build_asteria_engine(build_remote(seed=0), seed=0)
        assert engine.tracer is None
        engine.handle(_queries(1)[0], now=0.0)

    def test_async_engine_spans_survive_awaits_and_coalescing(self):
        engine = build_async_engine(build_remote(seed=0), seed=0)
        tracer = Tracer()
        engine.set_tracer(tracer)
        # Identical queries in flight together force single-flight
        # leader/follower handoff.
        queries = [Query("stress fact number 0", fact_id="F0") for _ in range(8)]

        async def together():
            await asyncio.gather(*(engine.serve(query) for query in queries))
            await engine.drain()

        asyncio.run(together())
        spans = tracer.spans()
        _check_forest(spans, [s.parent_id for s in spans].count(None))
        assert len([s for s in spans if s.name == "request"]) == len(queries)
        # The coalesced fetch ran once, inside the leader's request tree.
        fetches = [s for s in spans if s.name == "remote_fetch"]
        assert len(fetches) == 1
        assert fetches[0].parent_id is not None
