"""Properties of the replication exchange (hypothesis, derandomised).

LWW merges commute and are idempotent on :class:`ReplicaNode`, a late
upsert never resurrects an invalidated truth key, and two
:class:`ReplicaSession` objects whose clocks are skewed by up to ±5 s still end
the digest exchange at agreement 1.0. Everything runs on simulated time:
no socket and no sleep. Loss is out of scope (the session has no
retransmit; TCP does not lose frames).
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import Query
from repro.core.config import AsteriaConfig
from repro.core.records import element_record
from repro.core.types import FetchResult
from repro.factory import build_asteria_engine, build_remote
from repro.store.replication import FrameLink, ReplicaNode, ReplicaSession

PROPERTY_SETTINGS = settings(
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
KEYS = [f"F{i}" for i in range(4)]
#: Local clocks start here, so a node skewed by -5 s still reads >= 0.
START = 10.0


def fetch(result):
    return FetchResult(
        result=result, latency=0.4, service_latency=0.4, cost=0.005,
        size_tokens=16,
    )


def make_node(node_id):
    engine = build_asteria_engine(
        build_remote(seed=11), config=AsteriaConfig(capacity_items=64), seed=11
    )
    return engine, ReplicaNode(node_id, engine.cache)


def live(node):
    """truth_key -> the values cached for it (region-local ids left out)."""
    content = {}
    for element in node.cache.elements.values():
        content.setdefault(element.truth_key, []).append((element.key, element.value))
    return {key: sorted(values) for key, values in content.items()}


def _template():
    engine, _ = make_node("T")
    element = engine.cache.insert(Query("a template fact", fact_id="T"), fetch("t"), 0.0)
    return element_record(element)


TEMPLATE = _template()


def upsert(key, version, origin):
    # One origin writes a given (key, version) once, so the content is a
    # function of the three.
    text = f"fact {key} version {version} from {origin}"
    record = dict(
        TEMPLATE, key=text, value=text, truth_key=key, created_at=float(version),
        last_accessed_at=float(version), expires_at=None,
    )
    return {"truth_key": key, "version": version, "origin": origin,
            "op": "upsert", "record": record}


def invalidate(key, version, origin):
    return {"truth_key": key, "version": version, "origin": origin,
            "op": "invalidate", "record": None}


entries = st.builds(
    lambda op, key, version, origin: op(key, version, origin),
    st.sampled_from([upsert, invalidate]),
    st.sampled_from(KEYS),
    st.integers(1, 6),
    st.sampled_from(["A", "B"]),
)
batches = st.lists(st.lists(entries, max_size=5), min_size=1, max_size=6)


def _write(entry):
    return entry["truth_key"], entry["version"], entry["origin"]


def _unique(all_batches):
    """Keep the first entry for each (key, version, origin): a real origin
    never writes one version of a key twice."""
    seen = {}
    for batch in all_batches:
        for entry in batch:
            seen.setdefault(_write(entry), entry)
    return [[e for e in batch if seen[_write(e)] is e] for batch in all_batches]


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(batches, st.randoms(use_true_random=False))
def test_any_order_and_duplication_of_the_same_batches_converges(raw, rng):
    diff_batches = _unique(raw)
    deliveries = [
        [batch for batch in diff_batches for _ in range(rng.randint(1, 2))]
        for _ in range(2)
    ]
    for delivery in deliveries:
        rng.shuffle(delivery)
    (_, first), (_, second) = make_node("X"), make_node("Y")
    for node, delivery in zip((first, second), deliveries):
        for batch in delivery:
            node.apply_diff([dict(entry) for entry in batch], now=START)
    assert first.versions == second.versions
    assert live(first) == live(second)


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(
    invalidated_at=st.floats(1.0, 20.0),
    behind=st.sampled_from([0.0, 1e-6, 0.5, 3.0, 10.0]),
    invalidator=st.sampled_from(["A", "B"]),
    writer=st.sampled_from(["A", "B"]),
    local_invalidation=st.booleans(),
)
def test_a_late_upsert_never_resurrects_an_invalidated_key(
    invalidated_at, behind, invalidator, writer, local_invalidation
):
    engine, node = make_node("A")
    engine.cache.insert(Query("a cached fact", fact_id="F"), fetch("old"), 0.5)
    if local_invalidation:
        node.now = invalidated_at
        engine.cache.invalidate(lambda element: element.truth_key == "F")
    else:
        remote = invalidate("F", invalidated_at, invalidator)
        node.apply_diff([remote], now=invalidated_at)
    tombstone = node.versions["F"]
    late = upsert("F", tombstone[0] - behind, writer)
    assume((late["version"], writer) < tombstone)
    node.apply_diff([late], now=invalidated_at + 1.0)
    assert "F" not in live(node)
    assert node.versions["F"] == tombstone


schedules = st.lists(
    st.tuples(
        st.sampled_from(["A", "B"]),
        st.sampled_from(["write", "write", "invalidate"]),
        st.sampled_from(KEYS),
        st.floats(0.0, 0.4),
    ),
    min_size=1,
    max_size=25,
)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(
    ops=schedules,
    skew=st.floats(-5.0, 5.0),
    latency_ab=st.floats(0.0, 0.3),
    latency_ba=st.floats(0.0, 0.3),
    sync_interval=st.sampled_from([0.05, 0.2, 1.0]),
)
def test_skewed_sessions_end_the_digest_exchange_in_agreement(
    ops, skew, latency_ab, latency_ba, sync_interval
):
    engines, nodes = {}, {}
    for name in "AB":
        engines[name], nodes[name] = make_node(name)
    sessions = {name: ReplicaSession(nodes[name], sync_interval) for name in "AB"}
    outbound = {"A": FrameLink(latency_ab), "B": FrameLink(latency_ba)}
    clock = {"A": lambda t: START + t, "B": lambda t: START + skew + t}

    def step(t, local_done):
        for name, peer in (("A", "B"), ("B", "A")):
            now = clock[name](t)
            for message in outbound[peer].deliver(t):
                for reply in sessions[name].receive(message, now):
                    outbound[name].send(reply, t)
            for message in sessions[name].tick(now, local_done):
                outbound[name].send(message, t)

    t = 0.0
    for i, (name, action, key, dt) in enumerate(ops):
        t += dt
        step(t, local_done=False)
        now = clock[name](t)
        if action == "write":
            text = f"fact {key} written by {name} at step {i}"
            engines[name].cache.insert(Query(text, fact_id=key), fetch(text), now)
        else:
            nodes[name].now = max(nodes[name].now, now)
            engines[name].cache.invalidate(lambda element: element.truth_key == key)
    while not all(session.finished for session in sessions.values()):
        step(t, local_done=True)
        due = min(link.next_delivery() for link in outbound.values())
        if due == float("inf"):
            break
        t = max(t, due)
    for session in sessions.values():
        assert session.error is None
        assert session.score is not None and session.score.agreement == 1.0
    assert nodes["A"].versions == nodes["B"].versions
    assert live(nodes["A"]) == live(nodes["B"])
