"""Sine — the Semantic Retrieval Index (§4.2).

Two-stage retrieval over semantic elements:

1. **Coarse filter**: an ANN search over query embeddings keeps candidates
   with cosine similarity >= ``tau_sim`` (high recall, cheap).
2. **Fine validation**: the semantic judger scores each surviving candidate
   and the first with confidence >= ``tau_lsm`` becomes the match (high
   precision).

Beside them sits an **exact stage**: canonical query text → element id,
kept on insert and remove. A lookup made with ``match="exact"`` reads only
that map — the Agent_exact baseline, served by the same cache.

Ahead of the two stages sits a **recall stage**, exact by construction: a
semantic retrieval that matched is recorded under the raw query text, and a
later lookup of that text replays the record — no ANN scan, no judge call —
only when the full path provably returns the same result: same ``fact_id``,
``tau_lsm``, ``tau_sim``, ``max_candidates`` and judger ``params``; every
candidate still the same live element; and no row admitted since scoring
within ``_MARGIN`` of ``tau_sim`` against the query. A row's score is a
function of the row and the query alone (the arena scores whole blocks), so
the same live rows give the same scores, ranking and verdicts (DESIGN §7).

Sine is *retrieval only* — it neither admits, evicts, nor mutates frequency;
:mod:`repro.core.cache` layers cache semantics on top.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.ann.base import SearchHit
from repro.core.element import SemanticElement
from repro.core.types import Query
from repro.embedding.model import EmbeddingModel
from repro.judger.base import JudgeRequest, Judger, JudgeVerdict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (flat imports core.arena)
    from repro.ann.flat import FlatIndex


#: Recall records kept, least recently replayed dropped first. On cortexbench
#: ``para_sync`` (seed 1, 16 s) this many replay 49.3 % of timed lookups
#: (49.7 % unbounded).
RECALL_ENTRIES = 12288

#: How far below ``tau_sim`` a fresh row's gathered score must fall: the
#: gather may differ from the scan's bits in the last place, far below this.
_MARGIN = 1e-6


def canonical_text(text: str) -> str:
    """Normalisation used for exact-match and flight keys
    (case/whitespace-insensitive)."""
    return " ".join(text.lower().split())


@dataclass(frozen=True, slots=True)
class SineResult:
    """Outcome of one two-stage retrieval.

    ``match`` is the validated element or None. ``candidates`` are the ANN
    hits that passed ``tau_sim`` (in similarity order); ``verdicts`` aligns
    with the judged prefix of ``candidates``. ``ann_considered`` counts raw
    ANN results before thresholding.
    """

    match: SemanticElement | None
    candidates: list[SearchHit] = field(default_factory=list)
    verdicts: list[JudgeVerdict] = field(default_factory=list)
    ann_considered: int = 0

    @property
    def judged(self) -> int:
        """Number of candidates the judger scored."""
        return len(self.verdicts)


class Sine:
    """The two-stage semantic retrieval index.

    Parameters
    ----------
    embedder:
        Embedding model for query fingerprints.
    index:
        The :class:`~repro.ann.flat.FlatIndex`; keys are element ids.
    judger:
        The validation model (consulted only by ``"semantic"`` lookups).
    tau_sim / tau_lsm:
        Stage thresholds. ``tau_lsm`` is mutable at runtime — the threshold
        recalibrator (Algorithm 1) adjusts it.
    max_candidates:
        ANN results retrieved per query.
    """

    def __init__(
        self,
        embedder: EmbeddingModel,
        index: FlatIndex,
        judger: Judger,
        tau_sim: float = 0.7,
        tau_lsm: float = 0.9,
        max_candidates: int = 4,
    ) -> None:
        if not 0.0 <= tau_sim <= 1.0 or not 0.0 <= tau_lsm <= 1.0:
            raise ValueError("thresholds must be in [0, 1]")
        if max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        self.embedder = embedder
        self.index = index
        self.judger = judger
        self.tau_sim = tau_sim
        self.tau_lsm = tau_lsm
        self.max_candidates = max_candidates
        #: The exact stage: canonical text -> id of the newest element
        #: admitted under it.
        self._exact: dict[str, int] = {}
        #: The recall stage: raw text -> [result, candidate owners, fact_id,
        #: tau_lsm, arena allocation stamp checked up to, query vector], an
        #: LRU of RECALL_ENTRIES. The vector is the array the embedder returned.
        #: Every record was made under ``_recall_state``.
        self._recalls: OrderedDict[str, list] = OrderedDict()
        self._recall_state: tuple | None = None
        #: element id -> texts whose record names it (remove drops them);
        #: kept exact by _forget, so it holds at most one entry per owner of
        #: a live record.
        self._named_by: dict[int, set[str]] = {}
        #: Optional stage tracer (see :mod:`repro.obs.trace`); when set, each
        #: retrieval records ``embed`` / ``ann_search`` / ``judge`` spans, or
        #: one ``recall`` span when it replays.
        self.tracer = None

    # -- population management (driven by the cache) -------------------------
    def insert(self, element: SemanticElement) -> None:
        """Index ``element`` by its arena row (the cache allocated it on
        admission; the index scores it in place) and its canonical text."""
        self.index.add_slot(element.element_id, element.arena_slot)
        self._exact[canonical_text(element.key)] = element.element_id

    def remove(self, element: SemanticElement) -> None:
        """Drop ``element`` from the index, from the exact stage while its
        text still names it (a later admit of that text keeps it), and every
        recall record that names it."""
        element_id = element.element_id
        self.index.remove(element_id)
        key = canonical_text(element.key)
        if self._exact.get(key) == element_id:
            del self._exact[key]
        for text in self._named_by.pop(element_id, ()):
            self._forget(text)

    def __len__(self) -> int:
        return len(self.index)

    # -- retrieval ---------------------------------------------------------
    def candidates_for(self, query: Query) -> list[SearchHit]:
        """Stage 1 only: ANN hits above ``tau_sim``, best first."""
        embedding = self.embedder.embed(query.text)
        hits = self.index.search(embedding, self.max_candidates)
        return [hit for hit in hits if hit.score >= self.tau_sim]

    def retrieve(
        self,
        query: Query,
        elements: Mapping[int, SemanticElement],
        match: str = "semantic",
    ) -> SineResult:
        """Full two-stage retrieval.

        ``elements`` maps element ids to live elements (the cache's store);
        ANN hits lacking a live element are skipped defensively.

        ``match="ann_only"`` returns the top candidate above ``tau_sim``
        unvalidated — the strawman of §3.2 used by the accuracy ablation;
        ``match="exact"`` consults only the exact stage: no embedding, no
        ANN search, no judge.
        """
        if match == "exact":
            return SineResult(
                match=elements.get(self._exact.get(canonical_text(query.text)))
            )
        # Resolve the tracer decision once for both stages: the guard costs
        # an attribute load on every untraced request, so _prepared takes
        # it as an argument instead of re-deriving it. A recorded text scans
        # with its record's vector, replayed or not: it never re-embeds.
        record = self._recalls.get(query.text)
        tracer = self.tracer
        if tracer is None or not tracer.live or not tracer.active():
            if record is not None and match == "semantic":
                recalled = self._recalled(query, record, elements)
                if recalled is not None:
                    return recalled
            embedding = self.embedder.embed(query.text) if record is None else record[5]
            raw_hits = self.index.search(embedding, self.max_candidates)
            return self._prepared(query, embedding, raw_hits, elements, match, None)
        clock = tracer.clock
        t0 = clock()
        if record is not None and match == "semantic":
            recalled = self._recalled(query, record, elements)
            if recalled is not None:
                tracer.record_leaf("recall", t0)
                return recalled
        embedding = self.embedder.embed(query.text) if record is None else record[5]
        tracer.record_leaf("embed", t0)
        t0 = clock()
        raw_hits = self.index.search(embedding, self.max_candidates)
        tracer.record_leaf("ann_search", t0, {"raw_hits": len(raw_hits)})
        return self._prepared(query, embedding, raw_hits, elements, match, tracer)

    def _prepared(
        self,
        query: Query,
        embedding: np.ndarray,
        raw_hits: list[SearchHit],
        elements: Mapping[int, SemanticElement],
        match: str,
        tracer,
    ) -> SineResult:
        """Stage 2 on stage 1's raw ANN hits: threshold, then judge (the
        tail of :meth:`retrieve`)."""
        considered = len(raw_hits)
        candidates = [hit for hit in raw_hits if hit.score >= self.tau_sim]

        if match == "ann_only":
            for hit in candidates:
                element = elements.get(hit.key)
                if element is not None:
                    return SineResult(
                        match=element,
                        candidates=candidates,
                        ann_considered=considered,
                    )
            return SineResult(match=None, candidates=candidates, ann_considered=considered)

        if tracer is None or not candidates:
            return self._judge_candidates(
                query, embedding, considered, candidates, elements
            )
        t0 = tracer.clock()
        result = self._judge_candidates(
            query, embedding, considered, candidates, elements
        )
        tracer.record_leaf(
            "judge", t0, {"judged": result.judged, "matched": result.match is not None}
        )
        return result

    def _judge_candidates(
        self,
        query: Query,
        embedding: np.ndarray,
        considered: int,
        candidates: list[SearchHit],
        elements: Mapping[int, SemanticElement],
    ) -> SineResult:
        """Stage 2 proper: judge candidates in similarity order (the tail of
        :meth:`_prepared`, factored out so it can be traced)."""
        verdicts: list[JudgeVerdict] = []
        for hit in candidates:
            element = elements.get(hit.key)
            if element is None:
                continue
            verdict = self.judger.judge(
                JudgeRequest(
                    query_text=query.text,
                    cached_query=element.key,
                    cached_result=element.value,
                    query_truth=query.fact_id,
                    cached_truth=element.truth_key,
                )
            )
            verdicts.append(verdict)
            if verdict.score >= self.tau_lsm:
                result = SineResult(
                    match=element,
                    candidates=candidates,
                    verdicts=verdicts,
                    ann_considered=considered,
                )
                self._record(query, embedding, result, elements)
                return result
        self._forget(query.text)
        return SineResult(
            match=None,
            candidates=candidates,
            verdicts=verdicts,
            ann_considered=considered,
        )

    # -- the recall stage ----------------------------------------------------
    def _state(self) -> tuple:
        """What every record assumes besides its own inputs."""
        return (self.tau_sim, self.max_candidates, self.judger.params)

    def _record(
        self,
        query: Query,
        embedding: np.ndarray,
        result: SineResult,
        elements: Mapping[int, SemanticElement],
    ) -> None:
        """Keep a matched retrieval, and the vector it was scanned with, for
        :meth:`_recalled` to replay."""
        text = query.text
        recalls = self._recalls
        state = self._state()
        if state != self._recall_state:
            recalls.clear()
            self._named_by.clear()
            self._recall_state = state
        owners = tuple([elements.get(hit.key) for hit in result.candidates])
        self._forget(text)
        if len(recalls) >= RECALL_ENTRIES:
            self._forget(next(iter(recalls)))
        stamp = self.index.arena.allocations
        recalls[text] = [result, owners, query.fact_id, self.tau_lsm, stamp, embedding]
        named_by = self._named_by
        for owner in owners:
            if owner is not None:
                named_by.setdefault(owner.element_id, set()).add(text)

    def _forget(self, text: str) -> None:
        """Drop the record for ``text``, if any, and its reverse-map entries."""
        record = self._recalls.pop(text, None)
        if record is None:
            return
        named_by = self._named_by
        for owner in record[1]:
            if owner is not None:
                texts = named_by.get(owner.element_id)
                if texts is not None:
                    texts.discard(text)
                    if not texts:
                        del named_by[owner.element_id]

    def _recalled(
        self, query: Query, record: list, elements: Mapping[int, SemanticElement]
    ) -> SineResult | None:
        """``record``'s result when the full path would return exactly it,
        else None (see the module docstring)."""
        result, owners, fact_id, tau_lsm, stamp, embedding = record
        if fact_id != query.fact_id or tau_lsm != self.tau_lsm:
            return None
        if self._state() != self._recall_state:
            return None
        for hit, owner in zip(result.candidates, owners):
            if elements.get(hit.key) is not owner:
                return None
        arena = self.index.arena
        admissions = arena.allocations
        if stamp != admissions:
            # Rows admitted since: one at or above tau_sim could join the
            # candidates; one below can neither join nor displace one. Rows
            # never move, so once checked they need no second look.
            fresh = arena.allocated_since(stamp)
            if fresh.size:
                scores = arena.scores_at(fresh, embedding).tolist()
                if max(scores) >= self.tau_sim - _MARGIN:
                    return None
            record[4] = admissions
        self._recalls.move_to_end(query.text)
        considered = min(self.max_candidates, len(self.index))
        if considered == result.ann_considered:
            return result
        return SineResult(
            match=result.match,
            candidates=result.candidates,
            verdicts=result.verdicts,
            ann_considered=considered,
        )
