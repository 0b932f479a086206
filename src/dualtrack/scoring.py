"""Two-stage hybrid candidate scoring.

Stage I embeds the query and every candidate triple's text and keeps the
top-N by cosine similarity; Stage II reranks only the survivors and fuses
both scores with weight ``alpha``. When the cut keeps every candidate, the
rerank is sent alongside the embedding instead of after it. A grounding
step starts its requests with :func:`start_scoring` and scores them with
:func:`score_candidates`, both on the thread that grounds; each track
decides where its necessity layer goes around them. Embedding and rerank
providers are pluggable; the built-in hash/overlap providers need no model
and keep runs deterministic.

Every embedding row is checked and packed once, when it arrives (see
:func:`pack`), and cosines are computed over packed rows only. Every
``Pipeline`` reads its embedder through a :class:`CachedEmbedder`, which
keeps packed rows for a whole engine, so that each query text and each KG
entity is embedded once.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
import struct
import sys
from concurrent.futures import Future, wait
from dataclasses import dataclass
from itertools import compress, repeat
from operator import mul
from typing import TYPE_CHECKING, Callable, Sequence

from .denoise import rule_kept
from .kg import RelationSet, Triple
from .transport import LEAVES, ProviderError, SingleFlightCache, entry_value, http_session, request_json

if TYPE_CHECKING:
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


class HashEmbedding(EmbeddingProvider):
    """Deterministic token-hash bag-of-words embedding; no model required.
    A token's bucket is the first 8 bytes of its sha1, modulo ``dimension``."""

    def __init__(self, dimension: int = 256):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        vectors = []
        for text in texts:
            vec = [0.0] * self.dimension
            for token in _tokens(text):
                digest = hashlib.sha1(token.encode("utf-8")).digest()
                vec[int.from_bytes(digest[:8], "big") % self.dimension] += 1.0
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
    :func:`pack`. A reply with the wrong number of rows, a row that is not
    ``embedder.dimension`` long, or a NaN or infinite value is a
    ``ProviderError``. A step's query row and its candidates' rows come from
    different requests, so the dimension is what keeps them comparable."""
    rows = embedder.embed(texts)
    if len(rows) != len(texts):
        raise ProviderError(f"embedder returned {len(rows)} vectors for {len(texts)} texts")
    if any(len(row) != embedder.dimension for row in rows):
        raise ProviderError(f"embedder returned a row that is not of its dimension {embedder.dimension}")
    return [pack(row) for row in rows]


# Bytes of packed rows one CachedEmbedder keeps. Every benchmark workload's
# whole working set of 256-dimension hash rows fits 50 times over (0.64 MB
# on chain_hub, the largest); of a dense 768-dimension embedder, whose rows
# pack to 9.3 KB, it holds about 3.6k rows, some 18 entities of 200 triples.
EMBED_BYTES = 32 << 20


def _row_bytes(value: bytes | dict[str, bytes]) -> int:
    """Bytes of the packed rows of a query key or of an entity key."""
    return sum(map(sys.getsizeof, value.values())) if isinstance(value, dict) else sys.getsizeof(value)


class CachedEmbedder:
    """Packed embedding rows kept for the lifetime of one engine: every
    ``Pipeline`` wraps its embedder in one, next to its KG cache and LLM
    memo.

    Two kinds of key, each filled by one request on ``transport.LEAVES``
    that :meth:`start` begins, in one map (a ``str`` never equals an
    ``EntityRef``):

    - a query text maps to its row, a request of one text;
    - an entity's ``EntityRef`` maps to the rows of every distinct text of
      its ``RelationSet``, head then tail, that the filling step can score:
      the keyword rule's drops are never embedded. A text the kept rows
      lack, from triples fetched again since and found changed or from a
      pipeline whose rule keeps more, is embedded for its step only.

    The keys live in a ``transport.SingleFlightCache``, so the embedder is
    sent one request per distinct key, whatever the thread timing; an
    error, a malformed reply included, is never kept, so the next call asks
    again. The rows kept weigh at most ``EMBED_BYTES`` in all (as
    ``sys.getsizeof`` counts them; the texts and the map's slots come on
    top), the least recently used key evicted first.
    """

    def __init__(self, inner: EmbeddingProvider):
        self.inner = inner
        self._rows = SingleFlightCache(EMBED_BYTES, _row_bytes)

    def start(self, query_text: str, relations: RelationSet, kept: Callable[[list[Triple]], list[Triple]]) -> tuple:
        """Start the fills of one grounding step on ``transport.LEAVES``:
        the query's row, then the entity's rows, each unless it is kept or
        in flight. The entity's fill embeds the texts of the triples that
        ``kept`` (``denoise.rule_kept``, in :func:`start_scoring`) returns.
        Returns the two entries in that order, each a kept value or the
        future of its fill. A fresh step has both requests in flight at
        once, a warm one none."""

        def fill():
            texts = list(dict.fromkeys(t.text for t in kept(relations.head + relations.tail)))
            return dict(zip(texts, embed_packed(self.inner, texts)))

        query = self._rows.start(query_text, lambda: embed_packed(self.inner, [query_text])[0])
        return query, self._rows.start(relations.entity, fill)

    def rows(self, started: tuple, texts: Sequence[str]) -> tuple[bytes, list[bytes]]:
        """The query's row and the rows of ``texts``, read from the entries
        that :meth:`start` returned, so a failed fill is never sent again.
        The entity's entry is read first: its error wins over the query's.
        A text its rows lack is embedded here, for this step only."""
        query, entity = started
        by_text = entry_value(entity)
        missing = [text for text in texts if text not in by_text]
        if missing:
            by_text = by_text | dict(zip(missing, embed_packed(self.inner, missing)))
        return entry_value(query), [by_text[text] for text in texts]


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
    pipe: Pipeline,
    started: tuple,
    early_rerank: Future | None = None,
) -> list[ScoredCandidate]:
    """Score candidates against the query and return them sorted by the fused
    score, descending.

    ``started`` is what the pipeline's :meth:`CachedEmbedder.start` returned
    for the query and the entity whose triples ``candidates`` are; their
    rows are read from it. Candidates cut in Stage I are never shown to the
    reranker; with the default config that bounds every rerank call to 50
    texts. With ``early_rerank``, the future of the whole pool's rerank
    that :func:`start_scoring` sent, the reranker is not called again: each
    candidate's Stage II score is read from that reply by its index.

    An embedding error wins over a rerank error, and either is raised only
    once the early rerank has finished. An embedder or reranker reply with
    the wrong number of rows (against the whole pool for an early rerank),
    an embedding row that is not the embedder's ``dimension`` long, or a
    NaN or infinite value is a ``ProviderError``. An all-zero query row raises
    ``ZeroVector``, once every row has passed those checks.
    """
    if not candidates:
        return []
    cfg = pipe.config
    texts = [c.text for c in candidates]
    ids = [c.key() for c in candidates]
    try:
        query, rows = pipe.embedder.rows(started, texts)
    finally:
        if early_rerank is not None:
            wait([early_rerank])
    cos = cosines(query, rows)
    if early_rerank is None:
        survivors = _ranked(cos, ids)[: cfg.top_n]  # Stage I's cut
        rerank_scores = pipe.reranker.rerank(query_text, [texts[i] for i in survivors])
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


def start_scoring(query_text: str, pool: Sequence[Triple], relations: RelationSet, pipe: Pipeline) -> tuple:
    """Start one grounding step's scoring requests from the calling thread,
    before any is waited on. These are the embedding fills of the query and
    of the entity whose fetched triples are ``relations``
    (:meth:`CachedEmbedder.start`, which embeds the keyword rule's
    survivors), and the rerank of the whole rule-kept ``pool`` when it
    holds at most ``top_n`` triples, since Stage I's cut then keeps all of
    them. A larger pool is reranked by :func:`score_candidates`, its top
    ``top_n`` in cosine order, once its rows are in. Returns the arguments
    that :func:`score_candidates` takes after ``pipe``."""
    cfg = pipe.config
    started = pipe.embedder.start(query_text, relations, functools.partial(rule_kept, cfg=cfg))
    early = LEAVES.submit(pipe.reranker.rerank, query_text, [t.text for t in pool]) if len(pool) <= cfg.top_n else None
    return started, early
