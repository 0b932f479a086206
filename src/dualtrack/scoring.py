"""Two-stage hybrid candidate scoring.

Stage I embeds the query and every candidate triple's text and keeps the
top-N by cosine similarity; Stage II reranks only the survivors and fuses
both scores with weight ``alpha``. When the cut keeps every candidate, the
rerank is sent alongside the embedding instead of after it. Embedding and
rerank providers are pluggable; the built-in hash/overlap providers need no
model and keep runs deterministic.

Every embedding row is checked and packed once, when it arrives (see
:func:`pack`), and cosines are computed over packed rows only. A grounding
step asks its embedder for its rows in one call,
:meth:`EmbeddingProvider.step_rows`: a plain provider embeds the query and
the candidates in one request, and :class:`CachedEmbedder` keeps packed
rows for a whole engine, so that each query text and each KG entity is
embedded once.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
import struct
import sys
import threading
from concurrent.futures import Future, wait
from dataclasses import dataclass
from itertools import compress, repeat
from operator import mul
from typing import TYPE_CHECKING, Callable, Sequence

from .kg import RelationSet, Triple
from .transport import LEAVES, ProviderError, SingleFlightCache, http_session, request_json

if TYPE_CHECKING:
    from .config import EngineConfig
    from .engine import Pipeline


class ZeroVector(ValueError):
    pass


@dataclass
class ScoredCandidate:
    """A triple that passed Stage I, with its cosine, its clamped rerank
    score and the two fused."""

    payload: Triple
    cos: float
    rerank: float
    combined: float


def _norm(values: Sequence[float]) -> float:
    """Euclidean norm of ``values``. A NaN or infinite value, or a sum of
    squares beyond the float range, is an embedder fault."""
    squares = sum(map(mul, values, values))
    if not math.isfinite(squares):
        raise ProviderError("embedder returned a NaN or infinite value")
    return math.sqrt(squares)


@functools.lru_cache(maxsize=None)
def _layout(nonzeros: int) -> struct.Struct:
    """The packed form of a row with ``nonzeros`` nonzero coordinates. Kept
    for every count seen, which is at most the widest row's length plus one."""
    return struct.Struct(f"<{nonzeros + 1}d{nonzeros}I")


def pack(row: Sequence[float]) -> bytes:
    """A row as one ``bytes`` object: its norm, its nonzero values and their
    indices, in index order. That is 8 + 12 bytes a nonzero: a 6-token hash
    row takes 113 bytes in memory, a 256-float list 2.1 KB. A NaN or
    infinite value, or a sum of squares beyond the float range, is a
    ``ProviderError``, raised here, before the row is kept anywhere."""
    spots = list(compress(range(len(row)), row))  # NaN is truthy, so it stays
    values = [row[i] for i in spots]
    return _layout(len(spots)).pack(_norm(values), *values, *spots)


def _unpack(row: bytes) -> tuple[float, tuple, tuple]:
    """(norm, nonzero values, their indices) of a packed row."""
    nonzeros = (len(row) - 8) // 12
    fields = _layout(nonzeros).unpack(row)
    return fields[0], fields[1 : nonzeros + 1], fields[nonzeros + 1 :]


def cosines(query: bytes, rows: Sequence[bytes]) -> list[float]:
    """Cosine of each packed row with the packed query. A dot product reads
    the indices both share, in index order, and the norms were taken when
    the rows were packed, so each cosine is bit-identical to sums over every
    coordinate in index order: a zero adds nothing. An all-zero query has no
    direction and raises ``ZeroVector``, while an all-zero row scores 0.0, so
    its candidate still ranks deterministically."""
    norm_query, values, spots = _unpack(query)
    if norm_query == 0.0:
        raise ZeroVector("cosine undefined for a zero query vector")
    weight = dict(zip(spots, values)).get
    scores = []
    for row in rows:
        norm, values, spots = _unpack(row)
        dot = sum(map(mul, map(weight, spots, repeat(0.0)), values))
        scores.append(dot / (norm_query * norm) if norm else 0.0)
    return scores


def _ranked(scores: Sequence[float], ids: Sequence[str]) -> list[int]:
    """Indices of ``scores``, largest first; ties break on ``ids``, so the
    order never depends on input order."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], ids[i]))


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, float(value)))


# ---------------------------------------------------------------------------
# Providers
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\w+")


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _jaccard(a: set[str], b: set[str]) -> float:
    union = a | b
    return len(a & b) / len(union) if union else 1.0


def token_jaccard(a: str, b: str) -> float:
    """Jaccard overlap of the lower-cased word tokens; 1.0 for two empty texts."""
    return _jaccard(set(_tokens(a)), set(_tokens(b)))


class EmbeddingProvider:
    """Embeds texts: one row of ``dimension`` floats per text, in order."""

    dimension: int = 0

    def embed(self, texts: Sequence[str]) -> list[Sequence[float]]:
        raise NotImplementedError

    def step_rows(self, query_text: str, relations: RelationSet, texts: Sequence[str]) -> tuple[bytes, list[bytes]]:
        """The packed rows of one grounding step: the query's, and those of
        ``texts``, which are texts of the triples of ``relations``. Here one
        request of the query and ``texts``, checked by :func:`embed_packed`."""
        query, *rows = embed_packed(self, [query_text, *texts])
        return query, rows

    def prefetch_query(self, text: str) -> None:
        """Start the fill of ``text``'s row ahead of its step, on
        ``transport.LEAVES``, where a fill is kept for the step to read.
        Nothing is kept here, so nothing starts."""


# Tokens one HashEmbedding keeps the bucket of; it forgets all of them at
# once when full. About 1k distinct tokens make up a benchmark workload.
TOKEN_BUCKETS = 1 << 15


class HashEmbedding(EmbeddingProvider):
    """Deterministic token-hash bag-of-words embedding; no model required.

    A token's bucket is the first 8 bytes of its sha1, modulo ``dimension``.
    The bucket is remembered, up to ``TOKEN_BUCKETS`` tokens, so a token is
    hashed once however often it occurs (two threads meeting a new token at
    once may both hash it, to the same bucket). Only storing a bucket takes
    the lock; reading one does not."""

    def __init__(self, dimension: int = 256):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self._buckets: dict[str, int] = {}
        self._lock = threading.Lock()

    def _index(self, token: str) -> int:
        digest = hashlib.sha1(token.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:8], "big") % self.dimension
        with self._lock:
            if len(self._buckets) >= TOKEN_BUCKETS:
                self._buckets.clear()
            self._buckets[token] = bucket
        return bucket

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        buckets = self._buckets
        vectors = []
        for text in texts:
            vec = [0.0] * self.dimension
            for token in _tokens(text):
                bucket = buckets.get(token)
                vec[self._index(token) if bucket is None else bucket] += 1.0
            vectors.append(vec)
        return vectors


def _is_numbers(value) -> bool:
    """True for a JSON list of numbers that fit a float (``true`` and
    ``false`` are not numbers)."""
    return isinstance(value, list) and all(
        type(x) is float or (type(x) is int and abs(x) <= sys.float_info.max) for x in value
    )


class HttpEmbedding(EmbeddingProvider):
    """POST {texts} to an embedding endpoint through
    :func:`transport.request_json`, read {embeddings}: one list of
    ``dimension`` numbers per text."""

    def __init__(self, url: str, dimension: int, session=None, timeout: float = 60.0, parallelism: int = 1):
        if not url:
            raise ValueError("embedding_url must be set for the http provider")
        self.url = url
        self.dimension = dimension
        self._session = session or http_session(parallelism)
        self.timeout = timeout

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        payload = {"texts": list(texts)}
        reply = request_json(self._session, "post", self.url, self.timeout, "embedding", json=payload)
        rows = reply.get("embeddings")
        if not isinstance(rows, list) or not all(_is_numbers(row) for row in rows):
            raise ProviderError("embedding endpoint failed: 'embeddings' is not a list of number lists")
        for row in rows:
            if len(row) != self.dimension:
                raise ProviderError(
                    f"embedding endpoint failed: expected dimension {self.dimension}, got {len(row)}"
                )
        return [list(map(float, row)) for row in rows]


def embed_packed(embedder: EmbeddingProvider, texts: Sequence[str]) -> list[bytes]:
    """One embedding request for ``texts``, each row checked and packed by
    :func:`pack`. A reply with the wrong number of rows, rows of different
    lengths, or a NaN or infinite value is a ``ProviderError``."""
    rows = embedder.embed(texts)
    if len(rows) != len(texts):
        raise ProviderError(f"embedder returned {len(rows)} vectors for {len(texts)} texts")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ProviderError("embedder returned rows of different shapes")
    return [pack(row) for row in rows]


# Bytes of packed rows one CachedEmbedder keeps. Every benchmark workload's
# whole working set of 256-dimension hash rows fits 50 times over (0.64 MB
# on chain_hub, the largest); of a dense 768-dimension embedder, whose rows
# pack to 9.3 KB, it holds about 3.6k rows, some 18 entities of 200 triples.
EMBED_BYTES = 32 << 20


def _row_bytes(value: bytes | dict[str, bytes]) -> int:
    """Bytes of the packed rows of a query key or of an entity key."""
    return sum(map(sys.getsizeof, value.values())) if isinstance(value, dict) else sys.getsizeof(value)


class CachedEmbedder(EmbeddingProvider):
    """Packed embedding rows kept for the lifetime of one engine, which
    wraps its embedder in one next to its KG cache and LLM memo.

    Two kinds of key, each filled by one request, in one map (a ``str``
    never equals an ``EntityRef``):

    - a query text maps to its row, a request of one text;
    - an entity's ``EntityRef`` maps to the rows of every distinct text of
      its ``RelationSet``, head then tail. A text the kept rows lack, from
      triples fetched again since and found changed, is embedded for its
      step only.

    The keys live in a ``transport.SingleFlightCache``, so the embedder is
    sent one request per distinct key, whatever the thread timing; an
    error, a malformed reply included, is never kept, so the next call asks
    again. The rows kept weigh at most ``EMBED_BYTES`` in all (as
    ``sys.getsizeof`` counts them; the texts and the map's slots come on
    top), the least recently used key evicted first. ``embed`` passes
    straight through, uncached.
    """

    def __init__(self, inner: EmbeddingProvider):
        self.inner = inner
        self.dimension = inner.dimension
        self._rows = SingleFlightCache(EMBED_BYTES, _row_bytes)

    def embed(self, texts: Sequence[str]) -> list[Sequence[float]]:
        return self.inner.embed(texts)

    def query_row(self, text: str) -> bytes:
        return self._rows.get(text, lambda: embed_packed(self.inner, [text])[0])

    def holds_query(self, text: str) -> bool:
        return self._rows.holds(text)

    def prefetch_query(self, text: str) -> None:
        if not self.holds_query(text):
            LEAVES.submit(self.query_row, text)

    def entity_rows(self, relations: RelationSet) -> dict[str, bytes]:
        """Packed row of each text of the entity's triples, by text."""

        def fill():
            texts = list(dict.fromkeys(t.text for t in relations.head + relations.tail))
            return dict(zip(texts, embed_packed(self.inner, texts)))

        return self._rows.get(relations.entity, fill)

    def step_rows(self, query_text: str, relations: RelationSet, texts: Sequence[str]) -> tuple[bytes, list[bytes]]:
        """The entity's rows first, so that its request is in flight while
        a query fill started by :meth:`prefetch_query` runs: a fresh step
        waits on one round trip, a warm one on none."""
        by_text = self.entity_rows(relations)
        missing = [text for text in texts if text not in by_text]
        if missing:
            by_text = by_text | dict(zip(missing, embed_packed(self.inner, missing)))
        return self.query_row(query_text), [by_text[text] for text in texts]


class RerankProvider:
    """Scores each text's relevance to the query: one score per text, in
    the order of ``texts``. A text's score may not depend on the other texts
    or on their order. A pool of at most ``top_n`` candidates is sent whole
    in candidate order, a larger one as its top ``top_n`` in cosine order."""

    def rerank(self, query: str, texts: Sequence[str]) -> list[float]:
        raise NotImplementedError


class OverlapRerank(RerankProvider):
    """Token-Jaccard rerank: deterministic, model-free, already in [0, 1]."""

    def rerank(self, query: str, texts: Sequence[str]) -> list[float]:
        query_tokens = set(_tokens(query))
        return [_jaccard(query_tokens, set(_tokens(text))) for text in texts]


class HttpRerank(RerankProvider):
    """POST {query, texts} to a rerank endpoint through
    :func:`transport.request_json`, read {scores}: one number per text."""

    def __init__(self, url: str, session=None, timeout: float = 60.0, parallelism: int = 1):
        if not url:
            raise ValueError("rerank_url must be set for the http provider")
        self.url = url
        self._session = session or http_session(parallelism)
        self.timeout = timeout

    def rerank(self, query: str, texts: Sequence[str]) -> list[float]:
        payload = {"query": query, "texts": list(texts)}
        reply = request_json(self._session, "post", self.url, self.timeout, "rerank", json=payload)
        scores = reply.get("scores")
        if not _is_numbers(scores):
            raise ProviderError("rerank endpoint failed: 'scores' is not a list of numbers")
        return [float(s) for s in scores]


# ---------------------------------------------------------------------------
# Pipeline entry point
# ---------------------------------------------------------------------------


def score_candidates(
    query_text: str,
    candidates: Sequence[Triple],
    relations: RelationSet,
    cfg: EngineConfig,
    embedder: EmbeddingProvider,
    reranker: RerankProvider,
    early_rerank: Future | None = None,
) -> list[ScoredCandidate]:
    """Score candidates against the query and return them sorted by the fused
    score, descending.

    Candidates cut in Stage I are never shown to the reranker; with the
    default config that bounds every rerank call to 50 texts. With
    ``early_rerank``, the future of the whole pool's rerank sent by
    :func:`submit_scoring`, the reranker is not called again: each
    candidate's Stage II score is read from that reply by its index, once
    the embedding has returned. Both tracks score through :func:`ground`,
    which runs this on a leaf thread while the necessity prompts run, so one
    grounding step can have embedding, rerank and necessity requests in
    flight at once.

    ``candidates`` are drawn from ``relations``, one entity's triples. The
    embedder's :meth:`~EmbeddingProvider.step_rows` gives the query's row
    and the candidates': one request of the query and the candidates, or,
    from a :class:`CachedEmbedder`, the rows it keeps.

    An embedding error wins over a rerank error, and either is raised only
    once the early rerank has finished. An embedder or reranker reply with
    the wrong number of rows (against the whole pool for an early rerank),
    embedding rows of different lengths in one reply, or a NaN or infinite
    value is a ``ProviderError``. An all-zero query row raises
    ``ZeroVector``, once every row has passed those checks.
    """
    if not candidates:
        return []
    texts = [c.text for c in candidates]
    ids = [c.key() for c in candidates]
    try:
        query, rows = embedder.step_rows(query_text, relations, texts)
    finally:
        if early_rerank is not None:
            wait([early_rerank])
    cos = cosines(query, rows)
    if early_rerank is None:
        survivors = _ranked(cos, ids)[: cfg.top_n]  # Stage I's cut
        rerank_scores = reranker.rerank(query_text, [texts[i] for i in survivors])
    else:
        survivors = range(len(candidates))  # the cut keeps every candidate, in candidate order
        rerank_scores = early_rerank.result()
    if len(rerank_scores) != len(survivors):
        raise ProviderError(
            f"reranker returned {len(rerank_scores)} scores for {len(survivors)} candidates"
        )
    if not all(math.isfinite(score) for score in rerank_scores):
        raise ProviderError("reranker returned a NaN or infinite score")
    alpha = cfg.alpha  # Stage II's weight in the fusion, Stage I's is the rest
    fused = [
        ScoredCandidate(candidates[i], cos[i], rerank, alpha * rerank + (1.0 - alpha) * cos[i])
        for i, rerank in zip(survivors, map(_clamp01, rerank_scores))
    ]
    order = _ranked([c.combined for c in fused], [ids[i] for i in survivors])
    return [fused[j] for j in order]


def submit_scoring(
    score: Callable[..., list[ScoredCandidate]],
    query_text: str,
    candidates: Sequence[Triple],
    relations: RelationSet,
    cfg: EngineConfig,
    embedder: EmbeddingProvider,
    reranker: RerankProvider,
) -> Future:
    """Run ``score`` (:func:`score_candidates`, or a tracer's wrapper of it)
    on ``transport.LEAVES`` and return its future.

    When the pool holds at most ``cfg.top_n`` candidates, Stage I's cut keeps
    all of them, so the rerank input is known before the embedding returns.
    The whole pool's rerank, in candidate order, is then submitted first and
    handed to ``score`` as ``early_rerank``: the step waits on one round trip
    instead of two. A larger pool is reranked after the embedding, its top
    ``cfg.top_n`` in cosine order.

    The embedder's :meth:`~EmbeddingProvider.prefetch_query` is called
    before ``score`` is submitted: a :class:`CachedEmbedder` that lacks the
    query's row submits its fill there, and ``score`` fills the entity's
    rows meanwhile, so a fresh step sends both requests at once.

    The scoring task waits only on tasks submitted before it, which
    ``LEAVES`` has started by then.
    """
    early = None
    if 0 < len(candidates) <= cfg.top_n:
        early = LEAVES.submit(reranker.rerank, query_text, [c.text for c in candidates])
    embedder.prefetch_query(query_text)
    return LEAVES.submit(score, query_text, candidates, relations, cfg, embedder, reranker, early)


def ground(
    query_text: str,
    triples: Sequence[Triple],
    relations: RelationSet,
    pipe: Pipeline,
    score: Callable[..., list[ScoredCandidate]],
    denoise: Callable[..., list[Triple]],
) -> list[ScoredCandidate]:
    """One grounding step, the same on both tracks: the keyword rule, then
    scoring and the necessity layer at once. ``triples`` are drawn from
    ``relations``, the entity's fetched triples, whose rows the engine's
    embedding cache keeps. Returns the scored rule-kept triples whose label
    passed necessity, best fused score first.

    ``score`` and ``denoise`` are the caller's module names
    (:func:`score_candidates` and ``denoise.denoise``), which a tracer
    rebinds there. An empty rule-kept pool returns ``[]`` with nothing
    submitted. Otherwise necessity reads only labels, so the pool is scored
    on leaf threads while ``denoise`` asks each distinct label once on this
    one; it sees the whole pool, before Stage I's top-N cut. A scoring error
    wins, raised once both have finished.
    """
    cfg = pipe.config
    rule_verdicts: dict[str, bool] = {}  # both calls share it: the rule judges each label once a step
    pool = denoise(triples, query_text, cfg, rule_verdicts=rule_verdicts)  # rule layer only
    if not pool:
        return []
    scoring = submit_scoring(score, query_text, pool, relations, cfg, pipe.embedder, pipe.reranker)
    try:
        kept = denoise(pool, query_text, cfg, pipe.llm, pipe.templates["necessity"], rule_verdicts=rule_verdicts)
    finally:
        scored = scoring.result()
    necessary = {t.key() for t in kept}
    return [c for c in scored if c.payload.key() in necessary]
