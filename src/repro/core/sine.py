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

Sine is *retrieval only* — it neither admits, evicts, nor mutates frequency;
:mod:`repro.core.cache` layers cache semantics on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.ann.base import SearchHit
from repro.core.element import SemanticElement
from repro.core.types import Query
from repro.embedding.model import EmbeddingModel
from repro.judger.base import JudgeRequest, Judger, JudgeVerdict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (flat imports core.arena)
    from repro.ann.flat import FlatIndex


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
        #: Optional stage tracer (see :mod:`repro.obs.trace`); when set, each
        #: retrieval records ``embed`` / ``ann_search`` / ``judge`` spans.
        self.tracer = None

    # -- population management (driven by the cache) -------------------------
    def insert(self, element: SemanticElement) -> None:
        """Index ``element`` by its embedding and its canonical text.

        An element carrying an arena slot (the cache allocated its row on
        admission) registers that row in place via the index's ``add_slot``,
        so no second copy of the vector is made; otherwise the element's
        array is added normally.
        """
        element_id = element.element_id
        slot = element.arena_slot
        if slot is not None:
            self.index.add_slot(element_id, slot)
        else:
            self.index.add(element_id, element.embedding)
        self._exact[canonical_text(element.key)] = element_id

    def remove(self, element: SemanticElement) -> None:
        """Drop ``element`` from the index, and from the exact stage while
        its text still names it (a later admit of that text keeps it)."""
        element_id = element.element_id
        self.index.remove(element_id)
        key = canonical_text(element.key)
        if self._exact.get(key) == element_id:
            del self._exact[key]

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
        # it as an argument instead of re-deriving it.
        tracer = self.tracer
        if tracer is None or not tracer.live or not tracer.active():
            embedding = self.embedder.embed(query.text)
            raw_hits = self.index.search(embedding, self.max_candidates)
            return self._prepared(query, raw_hits, elements, match, None)
        clock = tracer.clock
        t0 = clock()
        embedding = self.embedder.embed(query.text)
        tracer.record_leaf("embed", t0)
        t0 = clock()
        raw_hits = self.index.search(embedding, self.max_candidates)
        tracer.record_leaf("ann_search", t0, {"raw_hits": len(raw_hits)})
        return self._prepared(query, raw_hits, elements, match, tracer)

    def _prepared(
        self,
        query: Query,
        raw_hits: list[SearchHit],
        elements: Mapping[int, SemanticElement],
        match: str,
        tracer,
    ) -> SineResult:
        """Stage 2 on stage 1's raw ANN hits: threshold, then judge (the
        tail of :meth:`retrieve`)."""
        candidates = [hit for hit in raw_hits if hit.score >= self.tau_sim]

        if match == "ann_only":
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
                return SineResult(
                    match=element,
                    candidates=candidates,
                    verdicts=verdicts,
                    ann_considered=len(raw_hits),
                )
        return SineResult(
            match=None,
            candidates=candidates,
            verdicts=verdicts,
            ann_considered=len(raw_hits),
        )
