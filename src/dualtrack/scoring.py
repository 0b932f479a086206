"""Two-stage hybrid candidate scoring.

Stage I embeds the query and every candidate triple's text and keeps the
top-N by cosine similarity; Stage II reranks only the survivors and fuses
both scores with weight ``alpha``. When the cut keeps every candidate, the
rerank is sent alongside the embedding instead of after it. Embedding and
rerank providers are pluggable; the built-in hash/overlap providers need no
model and keep runs deterministic.
"""

from __future__ import annotations

import hashlib
import math
import re
import sys
import threading
from concurrent.futures import Future, wait
from dataclasses import dataclass
from operator import mul
from typing import TYPE_CHECKING, Callable, Sequence

from .kg import Triple
from .transport import LEAVES, ProviderError, http_session, request_json

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


def cosines(query: Sequence[float], rows: Sequence[Sequence[float]]) -> list[float]:
    """Cosine of each row with the query. Zero coordinates are skipped, which
    is exact, since a zero adds nothing: a dot product reads only the query's
    nonzero coordinates, and a row's norm only the row's own. A NaN or
    infinite value in any row is a ``ProviderError``; after that, an all-zero
    query has no direction and raises ``ZeroVector``, while an all-zero row
    scores 0.0, so its candidate still ranks deterministically."""
    spots = [i for i, x in enumerate(query) if x]  # NaN is truthy, so it stays
    query_values = [query[i] for i in spots]
    norm_query = _norm(query_values)
    norms = [_norm(list(filter(None, row))) for row in rows]
    if norm_query == 0.0:
        raise ZeroVector("cosine undefined for a zero query vector")
    return [
        sum(map(mul, query_values, map(row.__getitem__, spots))) / (norm_query * norm) if norm else 0.0
        for row, norm in zip(rows, norms)
    ]


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

    An embedding error wins over a rerank error, and either is raised only
    once the early rerank has finished. An embedder or reranker reply with
    the wrong number of rows (against the whole pool for an early rerank),
    an embedding row whose length differs from the query's, or a NaN or
    infinite value is a ``ProviderError``.
    """
    if not candidates:
        return []
    texts = [c.text for c in candidates]
    ids = [c.key() for c in candidates]
    try:
        vectors = embedder.embed([query_text] + texts)
    finally:
        if early_rerank is not None:
            wait([early_rerank])
    if len(vectors) != len(texts) + 1:
        raise ProviderError(f"embedder returned {len(vectors)} vectors for {len(texts) + 1} texts")
    if any(len(v) != len(vectors[0]) for v in vectors):
        raise ProviderError("embedder returned rows of different shapes")
    cos = cosines(vectors[0], vectors[1:])
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
    instead of two. The scoring task waits only on that earlier task, which
    ``LEAVES`` has started by then. A larger pool is reranked after the
    embedding, its top ``cfg.top_n`` in cosine order.
    """
    early = None
    if 0 < len(candidates) <= cfg.top_n:
        early = LEAVES.submit(reranker.rerank, query_text, [c.text for c in candidates])
    return LEAVES.submit(score, query_text, candidates, cfg, embedder, reranker, early)


def ground(
    query_text: str,
    triples: Sequence[Triple],
    pipe: Pipeline,
    score: Callable[..., list[ScoredCandidate]],
    denoise: Callable[..., list[Triple]],
) -> list[ScoredCandidate]:
    """One grounding step, the same on both tracks: the keyword rule, then
    scoring and the necessity layer at once. Returns the scored rule-kept
    triples whose label passed necessity, best fused score first.

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
    scoring = submit_scoring(score, query_text, pool, cfg, pipe.embedder, pipe.reranker)
    try:
        kept = denoise(pool, query_text, cfg, pipe.llm, pipe.templates["necessity"], rule_verdicts=rule_verdicts)
    finally:
        scored = scoring.result()
    necessary = {t.key() for t in kept}
    return [c for c in scored if c.payload.key() in necessary]
