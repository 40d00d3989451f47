"""Sine — the Semantic Retrieval Index (§4.2).

Two-stage retrieval over semantic elements:

1. **Coarse filter**: an ANN search over query embeddings keeps candidates
   with cosine similarity >= ``tau_sim`` (high recall, cheap).
2. **Fine validation**: the semantic judger scores each surviving candidate
   and the first with confidence >= ``tau_lsm`` becomes the match (high
   precision).

Sine is *retrieval only* — it neither admits, evicts, nor mutates frequency;
:mod:`repro.core.cache` layers cache semantics on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.ann.base import SearchHit
from repro.core.element import SemanticElement
from repro.core.types import Query
from repro.embedding.model import EmbeddingModel
from repro.judger.base import JudgeRequest, Judger, JudgeVerdict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (flat imports core.arena)
    from repro.ann.flat import FlatIndex


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

    @property
    def top_similarity(self) -> float:
        """Best ANN similarity seen (0.0 when the index was empty)."""
        return self.candidates[0].score if self.candidates else 0.0


class Sine:
    """The two-stage semantic retrieval index.

    Parameters
    ----------
    embedder:
        Embedding model for query fingerprints.
    index:
        The :class:`~repro.ann.flat.FlatIndex`; keys are element ids.
    judger:
        The validation model (ignored when ``ann_only`` lookups are asked
        for).
    tau_sim / tau_lsm:
        Stage thresholds. ``tau_lsm`` is mutable at runtime — the threshold
        recalibrator (Algorithm 1) adjusts it.
    max_candidates:
        ANN results retrieved per query.
    judge_all:
        If True, judge every candidate and pick the highest-scoring
        acceptable one; if False (default), stop at the first acceptance —
        the paper's latency-oriented behaviour.
    """

    def __init__(
        self,
        embedder: EmbeddingModel,
        index: FlatIndex,
        judger: Judger,
        tau_sim: float = 0.7,
        tau_lsm: float = 0.9,
        max_candidates: int = 4,
        judge_all: bool = False,
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
        self.judge_all = judge_all
        #: Optional stage tracer (see :mod:`repro.obs.trace`); when set, each
        #: retrieval records ``embed`` / ``ann_search`` / ``judge`` spans.
        self.tracer = None

    # -- population management (driven by the cache) -------------------------
    def insert(self, element: SemanticElement) -> None:
        """Index ``element`` by its embedding.

        An element carrying an arena slot (the cache allocated its row on
        admission) registers that row in place via the index's ``add_slot``,
        so no second copy of the vector is made; otherwise the element's
        array is added normally.
        """
        slot = element.arena_slot
        if slot is not None:
            self.index.add_slot(element.element_id, slot)
        else:
            self.index.add(element.element_id, element.embedding)

    def remove(self, element_id: int) -> None:
        """Drop ``element_id`` from the index."""
        self.index.remove(element_id)

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
        ann_only: bool = False,
    ) -> SineResult:
        """Full two-stage retrieval.

        ``elements`` maps element ids to live elements (the cache's store);
        ANN hits lacking a live element are skipped defensively.

        With ``ann_only`` the top candidate above ``tau_sim`` is returned
        unvalidated — the strawman of §3.2 used by the accuracy ablation.
        """
        # Resolve the tracer decision once for both stages: the guard costs
        # an attribute load on every untraced request, so retrieve_prepared
        # must not re-derive what this frame already knows.
        tracer = self.tracer
        if tracer is None or not tracer.live or not tracer.active():
            embedding = self.embedder.embed(query.text)
            raw_hits = self.index.search(embedding, self.max_candidates)
            return self._prepared(query, raw_hits, elements, ann_only, None)
        clock = tracer.clock
        t0 = clock()
        embedding = self.embedder.embed(query.text)
        tracer.record_leaf("embed", t0)
        t0 = clock()
        raw_hits = self.index.search(embedding, self.max_candidates)
        tracer.record_leaf("ann_search", t0, {"raw_hits": len(raw_hits)})
        return self._prepared(query, raw_hits, elements, ann_only, tracer)

    def retrieve_prepared(
        self,
        query: Query,
        raw_hits: list[SearchHit],
        elements: Mapping[int, SemanticElement],
        ann_only: bool = False,
    ) -> SineResult:
        """Stage 2 on pre-computed ANN hits (the batch path supplies them).

        Thresholding, judging, and result construction are exactly the tail
        of :meth:`retrieve`, so batched and scalar lookups agree whenever the
        supplied ``raw_hits`` equal what a fresh ANN search would return.
        """
        tracer = self.tracer
        if tracer is not None and not (tracer.live and tracer.active()):
            tracer = None
        return self._prepared(query, raw_hits, elements, ann_only, tracer)

    def _prepared(
        self,
        query: Query,
        raw_hits: list[SearchHit],
        elements: Mapping[int, SemanticElement],
        ann_only: bool,
        tracer,
    ) -> SineResult:
        candidates = [hit for hit in raw_hits if hit.score >= self.tau_sim]

        if ann_only:
            for hit in candidates:
                element = elements.get(hit.key)
                if element is not None:
                    return SineResult(
                        match=element,
                        candidates=candidates,
                        ann_considered=len(raw_hits),
                    )
            return SineResult(
                match=None, candidates=candidates, ann_considered=len(raw_hits)
            )

        if tracer is None or not candidates:
            return self._judge_candidates(query, raw_hits, candidates, elements)
        t0 = tracer.clock()
        result = self._judge_candidates(query, raw_hits, candidates, elements)
        tracer.record_leaf(
            "judge", t0, {"judged": result.judged, "matched": result.match is not None}
        )
        return result

    def _judge_candidates(
        self,
        query: Query,
        raw_hits: list[SearchHit],
        candidates: list[SearchHit],
        elements: Mapping[int, SemanticElement],
    ) -> SineResult:
        """Stage 2 proper: judge candidates in similarity order (the tail of
        :meth:`retrieve_prepared`, factored out so it can be traced)."""
        verdicts: list[JudgeVerdict] = []
        best: tuple[float, SemanticElement] | None = None
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
                if not self.judge_all:
                    return SineResult(
                        match=element,
                        candidates=candidates,
                        verdicts=verdicts,
                        ann_considered=len(raw_hits),
                    )
                if best is None or verdict.score > best[0]:
                    best = (verdict.score, element)
        return SineResult(
            match=best[1] if best is not None else None,
            candidates=candidates,
            verdicts=verdicts,
            ann_considered=len(raw_hits),
        )

    def lookup_batch(
        self,
        queries: Sequence[Query],
        elements: Mapping[int, SemanticElement],
        ann_only: bool = False,
    ) -> list[SineResult]:
        """Batched two-stage retrieval: one embed-batch + one ANN-batch call.

        Stage 1 is shared across the batch (a single ``embed_batch`` and a
        single ``search_batch``); stage 2 judges each query independently in
        input order, so every result equals the corresponding
        :meth:`retrieve` call against the same index state.
        """
        queries = list(queries)
        if not queries:
            return []
        embeddings = self.embedder.embed_batch([query.text for query in queries])
        batch_hits = self.index.search_batch(embeddings, self.max_candidates)
        return [
            self.retrieve_prepared(query, raw_hits, elements, ann_only=ann_only)
            for query, raw_hits in zip(queries, batch_hits)
        ]
