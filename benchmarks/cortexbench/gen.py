"""Seeded inputs: a fact universe of any size and a Zipf paraphrase stream.

The built-in datasets (:mod:`repro.workloads.datasets`) stop at about 2 000
facts (90 entities x 24 attributes), and the benchmark needs 20 000. This
generator keeps their structure and lifts the size limit by inventing the
entity names: every fact owns pseudo-words no other fact uses, so

* paraphrases of one fact share every content stem (cosine >= ~0.9, far
  above ``tau_sim`` = 0.7);
* two unrelated facts share at most an attribute word (cosine ~0.3);
* a *confusable pair* shares five of six content words and differs in one
  qualifier (cosine 0.68-0.86 over all paraphrase pairs, 99 in 100 of them
  above ``tau_sim``): it passes the coarse filter and only the judger can
  tell the two apart.

Pseudo-words are three consonant-vowel syllables. They end in a vowel, so
the tokenizer's suffix stemmer never touches them, and they use no letter
combination that spells a stopword.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import Query
from repro.embedding.tokenizer import STOPWORDS
from repro.workloads import Fact, FactUniverse, Paraphraser, ZipfSampler

_SYLLABLES = tuple(c + v for c in "bdfghjkmnprtvz" for v in "aeiou")
_WORD_SPACE = len(_SYLLABLES) ** 3

#: (attribute, true staticity): origins never change, prices always do.
_ATTRIBUTES = (
    ("height", 9), ("length", 9), ("origin", 10), ("inventor", 10),
    ("author", 10), ("location", 9), ("composition", 8), ("founder", 10),
    ("meaning", 8), ("history", 9), ("structure", 8), ("capacity", 7),
    ("winner", 7), ("record", 6), ("schedule", 3), ("price", 2),
    ("forecast", 2), ("ranking", 3), ("availability", 3), ("population", 5),
    ("budget", 4), ("membership", 5), ("duration", 8), ("discovery", 10),
)

_QUALIFIER_PAIRS = (
    ("2018", "2022"), ("summer", "winter"), ("northern", "southern"),
    ("original", "modern"), ("indoor", "outdoor"), ("junior", "senior"),
    ("opening", "closing"), ("eastern", "western"),
)

#: Ranks ``10k + 3`` and ``10k + 7`` form a confusable pair: a fifth of the
#: facts, as in the built-in datasets, spread evenly over the popularity order.
_PAIR_RANKS = (3, 7)
CONFUSABLE_FRACTION = len(_PAIR_RANKS) / 10


def _pseudo_word(index: int) -> str:
    a, rest = divmod(index, len(_SYLLABLES) ** 2)
    b, c = divmod(rest, len(_SYLLABLES))
    return _SYLLABLES[a] + _SYLLABLES[b] + _SYLLABLES[c]


def build_universe(name: str, n_facts: int, seed: int) -> FactUniverse:
    """``n_facts`` facts in popularity order, a fifth of them confusable.

    The seed picks the names only. Which ranks are confusable, which
    attribute a rank asks about and how long its answer is are functions of
    the rank: the head of a Zipf stream carries most of the traffic, so a
    seed that happened to put a confusable pair or a long answer at rank 0
    would cost a few percent of throughput all by itself.
    """
    if 4 * n_facts > _WORD_SPACE:
        raise ValueError(f"at most {_WORD_SPACE // 4} facts, got {n_facts}")
    rng = np.random.default_rng([seed, n_facts])
    words = [_pseudo_word(int(i)) for i in rng.permutation(_WORD_SPACE)[: 4 * n_facts]]
    clash = STOPWORDS.intersection(words)
    if clash:
        raise AssertionError(f"pseudo-words collide with stopwords: {sorted(clash)}")
    facts: list[Fact] = []
    for rank in range(n_facts):
        decade, position = divmod(rank, 10)
        paired = position in _PAIR_RANKS and decade * 10 + _PAIR_RANKS[-1] < n_facts
        # Both facts of a pair share the words and attribute of its first rank.
        base = decade * 10 + _PAIR_RANKS[0] if paired else rank
        attribute, staticity = _ATTRIBUTES[base % len(_ATTRIBUTES)]
        w1, w2, w3, w4 = words[4 * base : 4 * base + 4]
        if paired:
            qualifier = _QUALIFIER_PAIRS[decade % len(_QUALIFIER_PAIRS)][
                _PAIR_RANKS.index(position)
            ]
            core = f"{attribute} {w1} {w2} {w3} {w4} {qualifier}"
            subject = f"{w1} {w2} {w3} {w4} ({qualifier})"
        else:
            core, subject = f"{attribute} {w1} {w2}", f"{w1} {w2}"
        facts.append(
            Fact(
                fact_id=f"{name}:{rank}",
                core=core,
                answer=f"The {attribute} of {subject} is value-{rank}",
                staticity=staticity,
                # 32..96 tokens, mean 64; the resolver pads the answer to it.
                answer_tokens=32 + rank * 37 % 65,
                confusable_group=f"{name}:pair{decade}" if paired else None,
            )
        )
    return FactUniverse(name, facts)


def build_stream(
    universe: FactUniverse, zipf_s: float, count: int, seed: int
) -> list[Query]:
    """``count`` queries: Zipf fact popularity, uniformly random paraphrase.

    Popularity is stratified: request ``i`` draws its uniform from the
    ``i``-th of ``count`` equal slices of [0, 1) before the inverse CDF, and
    the seed then shuffles the order. Every fact still gets its Zipf share in
    expectation, the long tail included, but a popular fact's request count
    no longer moves by more than one between seeds. Independent draws move
    the hit rate by 1-3 % from seed to seed on sampling noise alone, which is
    more than the regressions the benchmark is there to catch.

    A repeated (fact, paraphrase) draw yields the same ``Query`` object, so a
    verbatim repeat costs the program what it would cost from a real caller
    and the stream's memory is bounded by the distinct surface forms.
    """
    sampler = ZipfSampler(len(universe), zipf_s)
    cdf = np.cumsum([sampler.probability(k) for k in range(len(universe))])
    rank_rng = np.random.default_rng([seed, len(universe), 0])
    uniforms = (np.arange(count) + rank_rng.random(count)) / count
    ranks = np.minimum(np.searchsorted(cdf, uniforms, side="right"), len(universe) - 1)
    rank_rng.shuffle(ranks)
    paraphraser = Paraphraser()
    variants = np.random.default_rng([seed, len(universe), 1]).integers(
        paraphraser.variants, size=count
    )
    made: dict[tuple[int, int], Query] = {}
    stream: list[Query] = []
    for rank, variant in zip(ranks.tolist(), variants.tolist()):
        query = made.get((rank, variant))
        if query is None:
            query = query_for(universe.by_rank(rank), paraphraser, variant)
            made[(rank, variant)] = query
        stream.append(query)
    return stream


def query_for(fact: Fact, paraphraser: Paraphraser, variant: int) -> Query:
    return Query(
        text=paraphraser.phrase(fact.core, variant),
        fact_id=fact.fact_id,
        staticity=fact.staticity,
    )


def authoritative_answers(universe: FactUniverse) -> dict[str, str]:
    """``fact_id`` -> the text the remote service returns for that fact."""
    return {
        fact.fact_id: universe.resolve(Query(fact.core, fact_id=fact.fact_id))
        for fact in universe
    }
