"""Two-stage scoring: cosine, fusion and the top-N cut (each driven through
``score_candidates``), provider doubles, the stage-ordering contract, and
the engine's embedding cache."""

import math
import random
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    ConstantRerank,
    CountingRerank,
    DownSession,
    MappingEmbedding,
    MappingRerank,
    RecordingEmbedding,
    ground_pool,
    relations_of,
    score_pool,
    scoring_pipe,
)
from dualtrack import scoring
from dualtrack.config import EngineConfig
from dualtrack.denoise import denoise
from dualtrack.kg import EntityRef, LiteralValue, RelationRef, RelationSet, Triple, term_label
from dualtrack.llm import ProviderError
from dualtrack.scoring import (
    CachedEmbedder,
    EmbeddingProvider,
    HashEmbedding,
    HttpEmbedding,
    HttpRerank,
    OverlapRerank,
    RerankProvider,
    ZeroVector,
    cosines,
    ground,
    pack,
    score_candidates,
)
from oracles import hash_embedding_rows

# ---------------------------------------------------------------------------
# cosine
# ---------------------------------------------------------------------------


def _cosines(query, rows):
    """``cosines`` of dense rows, each packed first, as every embedder reply is."""
    return cosines(pack(query), [pack(row) for row in rows])


def test_cosine_identical_vectors():
    v = [0.3, 0.4]
    assert _cosines(v, [v]) == [pytest.approx(1.0)]


def test_cosine_orthogonal():
    assert _cosines([1.0, 0.0], [[0.0, 1.0]]) == [pytest.approx(0.0)]


def test_cosine_hand_value():
    # (1,1) . (1,0) / (sqrt2 * 1) = 1/sqrt2
    assert _cosines([1.0, 1.0], [[1.0, 0.0]]) == [pytest.approx(0.70710678, abs=1e-8)]


def test_cosine_zero_vector():
    with pytest.raises(ZeroVector):
        _cosines([0.0] * 3, [[1.0] * 3])


def _sequential_cosine(query, row):
    """The textbook cosine: every coordinate, one after another, in order."""
    dot = norm_query = norm_row = 0.0
    for q, x in zip(query, row):
        dot += q * x
        norm_query += q * q
        norm_row += x * x
    return dot / (math.sqrt(norm_query) * math.sqrt(norm_row)) if norm_row else 0.0


def _vectors(values, dimension):
    """(query, rows): a query with a nonzero coordinate and 0-5 rows, any of
    which may be all zero."""
    row = st.lists(values, min_size=dimension, max_size=dimension)
    return st.tuples(row.filter(any), st.lists(row, max_size=5))


@given(data=st.data(), dimension=st.integers(1, 12))
def test_cosines_equal_the_sequential_cosine_exactly_on_integer_rows(data, dimension):
    # every product and sum of small integers is exact, so skipping zeros
    # and summing in another order cannot change a bit
    integers = st.integers(-4, 4).map(float) | st.just(0.0)
    query, rows = data.draw(_vectors(integers, dimension))
    assert _cosines(query, rows) == [_sequential_cosine(query, row) for row in rows]


@given(data=st.data(), dimension=st.integers(1, 12))
def test_cosines_equal_the_sequential_cosine_on_float_rows(data, dimension):
    floats = st.floats(-1e3, 1e3) | st.just(0.0)
    query, rows = data.draw(_vectors(floats.filter(lambda x: x == 0.0 or abs(x) > 1e-3), dimension))
    assert _cosines(query, rows) == pytest.approx([_sequential_cosine(query, row) for row in rows], abs=1e-12)


def _dense_cosines(query, rows):
    """The cosines as scored before rows were packed: each dot product over
    the query's nonzero coordinates, each norm over its row's nonzero values,
    all in index order; ``ZeroVector`` when the query's norm is 0."""
    spots = [i for i, x in enumerate(query) if x]
    query_values = [query[i] for i in spots]
    norm_query = math.sqrt(sum(x * x for x in query_values))
    if norm_query == 0.0:
        raise ZeroVector("zero query")
    scores = []
    for row in rows:
        norm = math.sqrt(sum(x * x for x in filter(None, row)))
        dot = sum(q * row[i] for q, i in zip(query_values, spots))
        scores.append(dot / (norm_query * norm) if norm else 0.0)
    return scores


def _outcome(cosines_of, query, rows):
    try:
        return cosines_of(query, rows)
    except ZeroVector:  # a query whose squares all underflow
        return ZeroVector


@given(data=st.data(), dimension=st.integers(1, 12))
def test_packed_cosines_are_bit_identical_to_the_dense_ones(data, dimension):
    floats = st.floats(-1e3, 1e3) | st.just(0.0) | st.just(-0.0)
    query, rows = data.draw(_vectors(floats, dimension))
    assert _outcome(_cosines, query, rows) == _outcome(_dense_cosines, query, rows)


def test_cosines_score_an_all_zero_row_zero_and_reject_an_all_zero_query_without_rows():
    assert _cosines([0.0, 2.0], [[0.0, 0.0], [0.0, -1.0]]) == [0.0, -1.0]
    with pytest.raises(ZeroVector):
        _cosines([0.0, 0.0], [])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1e200])
def test_cosines_reject_a_row_with_a_value_no_norm_holds(value):
    # the check is each norm's sum of squares: it comes before the zero-query
    # check, and it also catches finite values whose squares overflow
    for query, rows in (([1.0, 0.0], [[0.0, value]]), ([0.0, value], [[1.0, 0.0]]), ([0.0, 0.0], [[value, 1.0]])):
        with pytest.raises(ProviderError, match="NaN or infinite"):
            _cosines(query, rows)


# ---------------------------------------------------------------------------
# fusion and the top-N cut, through score_candidates
# ---------------------------------------------------------------------------


def _fact(i, subject=None):
    """A triple keyed ``Q<i>|P1|fact``, two digits wide; its subject label
    (``topic<i>`` by default) makes its text its own."""
    return Triple(EntityRef(f"Q{i:02d}", subject or f"topic{i}"), RelationRef("P1", f"word{i}"), LiteralValue("fact"))


def _scored(rows, reranks, alpha=0.7, top=50, triples=None):
    """``score_candidates`` over one triple per row, with scripted rows
    against the query row (1, 0) and scripted rerank scores. Against that
    query a row (a, b) whose norm is an integer has the cosine a/norm,
    correctly rounded."""
    triples = triples or [_fact(i) for i in range(len(rows))]
    embedder = MappingEmbedding({"q": [1.0, 0.0]} | {t.text: row for t, row in zip(triples, rows)})
    reranker = MappingRerank({t.text: score for t, score in zip(triples, reranks)})
    return _score("q", triples, EngineConfig(alpha=alpha, top_n=top), embedder, reranker)


def test_fuse_alpha_one_keeps_rerank_only():
    (fused,) = _scored([[3.0, 4.0]], [0.8], alpha=1.0)
    assert (fused.cos, fused.rerank, fused.combined) == (0.6, 0.8, pytest.approx(0.8))


def test_fuse_alpha_zero_keeps_cosine_only():
    (fused,) = _scored([[3.0, 4.0]], [0.8], alpha=0.0)
    assert fused.combined == pytest.approx(0.6)


def test_fuse_hand_value():
    (fused,) = _scored([[3.0, 4.0]], [0.8], alpha=0.7)
    assert fused.combined == pytest.approx(0.74)


_PAIR_ROW = st.lists(st.integers(-3, 3).map(float), min_size=2, max_size=2)


@given(alpha=st.floats(0.01, 1.0), row=_PAIR_ROW, r1=st.floats(0.0, 1.0), r2=st.floats(0.0, 1.0))
def test_fuse_monotone_in_rerank(alpha, row, r1, r2):
    lo, hi = sorted((r1, r2))
    combined = {c.payload.key(): c.combined for c in _scored([row, row], [lo, hi], alpha=alpha)}
    assert combined[_fact(0).key()] <= combined[_fact(1).key()] + 1e-12


@given(alpha=st.floats(0.0, 0.99), rerank=st.floats(0.0, 1.0), rows=st.lists(_PAIR_ROW, min_size=2, max_size=2))
def test_fuse_monotone_in_cosine(alpha, rerank, rows):
    low, high = sorted(_scored(rows, [rerank, rerank], alpha=alpha), key=lambda c: c.cos)
    assert low.combined <= high.combined + 1e-12


def test_top_n_takes_largest():
    # the cosine of (i, 60) rises with i
    result = _scored([[float(i), 60.0] for i in range(60)], [0.5] * 60, top=50)
    assert sorted(c.payload.key() for c in result) == [_fact(i).key() for i in range(10, 60)]
    assert result[0].cos == pytest.approx(59 / math.hypot(59, 60))
    assert min(c.cos for c in result) == pytest.approx(10 / math.hypot(10, 60))


def test_top_n_fewer_than_n_returns_all_sorted():
    result = _scored([[0.0, 1.0], [1.0, 0.0], [3.0, 4.0]], [0.5] * 3, top=50)
    assert [c.payload.key() for c in result] == [_fact(i).key() for i in (1, 2, 0)]


def test_top_n_tiebreak_by_payload_id():
    # equal rows and equal rerank scores: the cut and the order go by key
    triples = [_fact(i, subject=name) for i, name in ((25, "z"), (0, "a"), (12, "m"))]
    result = _scored([[3.0, 4.0]] * 3, [0.5] * 3, top=2, triples=triples)
    assert [c.payload.key() for c in result] == [_fact(0).key(), _fact(12).key()]


@given(
    rows=st.lists(_PAIR_ROW, max_size=30),
    n=st.integers(1, 10),
    m=st.integers(1, 10),
)
def test_top_n_subset_monotonicity(rows, n, m):
    n, m = sorted((n, m))
    small = {c.payload.key() for c in _scored(rows, [0.5] * len(rows), top=n)}
    big = {c.payload.key() for c in _scored(rows, [0.5] * len(rows), top=m)}
    assert small <= big


def test_top_n_matches_sort_oracle():
    # Stage I keeps the top n by (-cosine, key) and shows them to the
    # reranker in that order
    rng = random.Random(11)
    for _ in range(50):
        count, n = rng.randrange(1, 40), rng.randrange(1, 60)
        triples = [_fact(i) for i in rng.sample(range(100), count)]
        rows = [[float(rng.randint(-3, 3)) for _ in range(3)] for _ in range(count + 1)]
        rows[0][0] = 1.0  # a query row is never all zero
        cos = dict(zip((t.key() for t in triples), _cosines(rows[0], rows[1:])))
        expected = sorted(triples, key=lambda t: (-cos[t.key()], t.key()))[:n]
        embedder = MappingEmbedding({"q": rows[0]} | {t.text: row for t, row in zip(triples, rows[1:])})
        reranker = CountingRerank(ConstantRerank(0.5))
        result = score_pool(
            "q", triples, relations_of(triples), scoring_pipe(EngineConfig(top_n=n), embedder, reranker)
        )
        assert reranker.batches == [[t.text for t in expected]]
        assert {c.payload for c in result} == set(expected)


# ---------------------------------------------------------------------------
# verbalization
# ---------------------------------------------------------------------------


def test_verbalize_triple_and_relation(movie_triples):
    # a triple's text feeds the embedding and rerank providers; a relation's
    # term_label feeds the necessity prompt
    assert movie_triples[0].text == "Inception director Christopher Nolan"
    assert movie_triples[2].text == "Emma Thomas birthdate 1975-05-26"
    assert term_label(RelationRef("P57", "director")) == "director"
    assert term_label(RelationRef("P57")) == "P57"


def test_verbalization_injective_on_fixture(movie_triples):
    texts = [t.text for t in movie_triples]
    assert len(set(texts)) == len(texts)


# ---------------------------------------------------------------------------
# providers
# ---------------------------------------------------------------------------


def test_hash_embedding_deterministic_across_instances():
    a = HashEmbedding(dimension=64).embed(["the quick brown fox"])[0]
    b = HashEmbedding(dimension=64).embed(["the quick brown fox"])[0]
    assert a == b
    assert len(a) == 64
    assert sum(a) == 4


def test_hash_embedding_token_counts():
    vec = HashEmbedding(dimension=32).embed(["word word other"])[0]
    assert sorted(v for v in vec if v) in ([1.0, 2.0], [3.0])  # collision tolerated


_EMBEDDERS = {dimension: HashEmbedding(dimension) for dimension in (1, 7, 256)}


@given(
    st.lists(st.text(alphabet="ab cÄé_1.", max_size=12), max_size=5),
    st.sampled_from(sorted(_EMBEDDERS)),
)
def test_hash_embedding_matches_an_uncached_sha1_reference(texts, dimension):
    embedder = _EMBEDDERS[dimension]
    expected = hash_embedding_rows(texts, dimension)
    assert embedder.embed(texts) == expected
    for text, row in zip(texts, expected):
        assert embedder.embed([text]) == [row]


def test_overlap_rerank_jaccard():
    scores = OverlapRerank().rerank("big red car", ["red car", "blue boat", "big red car"])
    assert scores[0] == pytest.approx(2 / 3)
    assert scores[1] == 0.0
    assert scores[2] == 1.0


class _FakeSession:
    def __init__(self, payload):
        self.payload = payload

    def post(self, url, json=None, timeout=None):
        class R:
            status_code = 200

            def json(inner):
                return self.payload

        return R()


def test_http_embedding_roundtrip_and_dimension_check():
    provider = HttpEmbedding("http://emb.test", dimension=2, session=_FakeSession({"embeddings": [[1.0, 2.0]]}))
    (vec,) = provider.embed(["x"])
    assert vec == [1.0, 2.0]
    integers = HttpEmbedding("http://emb.test", dimension=2, session=_FakeSession({"embeddings": [[1, 2]]}))
    assert [type(x) for x in integers.embed(["x"])[0]] == [float, float]
    bad = HttpEmbedding("http://emb.test", dimension=3, session=_FakeSession({"embeddings": [[1.0, 2.0]]}))
    with pytest.raises(ProviderError, match="expected dimension 3"):
        bad.embed(["x"])


def test_http_rerank_roundtrip():
    provider = HttpRerank("http://rr.test", session=_FakeSession({"scores": [0.25, 1.0]}))
    assert provider.rerank("q", ["a", "b"]) == [0.25, 1.0]


def test_http_providers_raise_provider_error_when_endpoint_down():
    with pytest.raises(ProviderError, match="embedding endpoint failed"):
        HttpEmbedding("http://emb.test", dimension=2, session=DownSession()).embed(["x"])
    with pytest.raises(ProviderError, match="rerank endpoint failed"):
        HttpRerank("http://rr.test", session=DownSession()).rerank("q", ["a"])


def test_http_providers_require_url():
    with pytest.raises(ValueError):
        HttpEmbedding("", dimension=4)
    with pytest.raises(ValueError):
        HttpRerank("")


# ---------------------------------------------------------------------------
# score_candidates
# ---------------------------------------------------------------------------


def _facts(n):
    return [_fact(i) for i in range(n)]


def _score(query, candidates, cfg, embedder, reranker):
    """``candidates`` scored as both tracks score them, through ``ground``:
    a pool of at most ``cfg.top_n`` candidates has its rerank sent early."""
    return ground_pool(query, candidates, relations_of(candidates), scoring_pipe(cfg, embedder, reranker))


def test_score_candidates_empty():
    assert score_pool(
        "q", [], relations_of([]), scoring_pipe(EngineConfig(), HashEmbedding(16), ConstantRerank())
    ) == []


def test_score_candidates_matches_independent_recompute():
    # fixture providers: hash embeddings + constant rerank 0.5. The expected
    # outcome is recomputed here with the same fixture functions but without
    # going through the pipeline.
    embedder = HashEmbedding(dimension=64)
    reranker = ConstantRerank(0.5)
    cfg = EngineConfig(alpha=0.7, top_n=5, dimension=64)
    candidates = _facts(10)
    query = "topic3 word7 topic5"

    texts = [c.text for c in candidates]
    vectors = embedder.embed([query] + texts)
    cos_by_id = {c.key(): cos for c, cos in zip(candidates, _cosines(vectors[0], vectors[1:]))}
    expected_ids = [
        c.key()
        for c in sorted(candidates, key=lambda c: (-cos_by_id[c.key()], c.key()))[:5]
    ]
    expected_combined = {cid: 0.7 * 0.5 + 0.3 * cos_by_id[cid] for cid in expected_ids}

    result = score_pool(query, candidates, relations_of(candidates), scoring_pipe(cfg, embedder, reranker))
    assert sorted(c.payload.key() for c in result) == sorted(expected_ids)
    for c in result:
        assert c.combined == pytest.approx(expected_combined[c.payload.key()], abs=1e-9)
    assert [c.combined for c in result] == sorted((c.combined for c in result), reverse=True)


class _ShortEmbedding(HashEmbedding):
    """Returns one row fewer than it was asked for."""

    def embed(self, texts):
        return super().embed(texts)[:-1]


def test_score_candidates_rejects_missing_embedding_rows():
    facts = _facts(5)
    with pytest.raises(ProviderError, match="embedder returned 4 vectors for 5 texts"):
        score_pool(
            "topic", facts, relations_of(facts), scoring_pipe(EngineConfig(), _ShortEmbedding(16), ConstantRerank())
        )


def test_score_candidates_rejects_embedding_row_of_another_shape():
    embedder = _ReplyEmbedding([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0]])
    facts = _facts(2)
    with pytest.raises(ProviderError, match="embedder returned a row that is not of its dimension 3"):
        score_pool("q", facts, relations_of(facts), scoring_pipe(EngineConfig(), embedder, ConstantRerank()))


def test_score_candidates_ranks_a_zero_candidate_row_last():
    embedder = _ReplyEmbedding([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    facts = _facts(3)
    result = score_pool(
        "q", facts, relations_of(facts), scoring_pipe(EngineConfig(), embedder, ConstantRerank(0.5))
    )
    keys = [c.key() for c in _facts(3)]
    expected = [(keys[1], pytest.approx(0.70710678)), (keys[0], 0.0), (keys[2], 0.0)]
    assert [(c.payload.key(), c.cos) for c in result] == expected


class _PoisonedEmbedding(HashEmbedding):
    """Hash embeddings with ``value`` written into the vector of ``text``."""

    def __init__(self, dimension, text, value):
        super().__init__(dimension)
        self.text = text
        self.value = value

    def embed(self, texts):
        vectors = super().embed(texts)
        for text, vec in zip(texts, vectors):
            if text == self.text:
                vec[0] = self.value
        return vectors


_ABCD = [_fact(i, subject=name) for i, name in enumerate("abcd")]
_C_TEXT = _ABCD[2].text


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("order", ["abdc", "dcba"])
def test_score_candidates_rejects_non_finite_candidate_embedding(value, order):
    candidates = [_ABCD["abcd".index(name)] for name in order]
    embedder = _PoisonedEmbedding(16, _C_TEXT, value)
    with pytest.raises(ProviderError, match="NaN or infinite"):
        score_pool(
            "a b c d fact", candidates, relations_of(candidates), scoring_pipe(EngineConfig(), embedder, ConstantRerank())
        )


@pytest.mark.parametrize("value", [float("nan"), float("-inf")], ids=["nan", "-inf"])
def test_score_candidates_rejects_non_finite_query_embedding(value):
    embedder = _PoisonedEmbedding(16, "a b c d fact", value)
    with pytest.raises(ProviderError, match="NaN or infinite"):
        score_pool(
            "a b c d fact", _ABCD, relations_of(_ABCD), scoring_pipe(EngineConfig(), embedder, ConstantRerank())
        )


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_score_candidates_rejects_non_finite_rerank_score(value):
    # once with the pool within top_n (reranked early), once over it
    for top in (len(_ABCD), len(_ABCD) - 1):
        reranker = CountingRerank(MappingRerank({_C_TEXT: value}, default=0.5))
        with pytest.raises(ProviderError, match="NaN or infinite"):
            _score("a b c d fact", _ABCD, EngineConfig(top_n=top), HashEmbedding(16), reranker)
        assert _C_TEXT in reranker.batches[0]


class _ReplyEmbedding(EmbeddingProvider):
    """Answers a request for the query ``"q"`` with the first of ``rows``,
    and any other, the candidates' one request, with the rest. Its
    dimension is the first row's length."""

    def __init__(self, rows):
        self.rows = rows
        self.dimension = len(rows[0]) if rows else 0

    def embed(self, texts):
        rows = self.rows[:1] if list(texts) == ["q"] else self.rows[1:]
        return [[float(x) for x in row] for row in rows]


class _ReplyRerank(RerankProvider):
    """Answers every call with the same scores."""

    def __init__(self, scores):
        self.scores = scores

    def rerank(self, query, texts):
        return list(self.scores)


# Small integer rows keep every dot product and norm exact, so the recompute
# below matches the scorer's cosines bit for bit and ranks ties the same way.
# A candidate row may be all zero; the query row may not.
_ROW = st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(lambda row: [float(x) for x in row])
_QUERY_ROW = _ROW.filter(any)
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def _well_formed_replies(draw):
    """(candidates, config, embedder rows, one rerank score per candidate)
    for a call whose providers answer one finite row per text and one finite
    score per text. The pool is drawn within ``top_n`` (reranked alongside
    the embedding) or over it (reranked after)."""
    within = draw(st.booleans(), label="pool within top_n")
    n = draw(st.integers(1 if within else 2, 6))
    top = draw(st.integers(n, n + 1) if within else st.integers(1, n - 1))
    cfg = EngineConfig(alpha=draw(st.floats(0.0, 1.0)), top_n=top, dimension=3)
    rows = [draw(_QUERY_ROW)] + draw(st.lists(_ROW, min_size=n, max_size=n))
    scores = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return _facts(n), cfg, rows, scores


@given(reply=_well_formed_replies())
def test_score_candidates_well_formed_replies_match_independent_recompute(reply):
    candidates, cfg, rows, scores = reply
    score = {c.key(): value for c, value in zip(candidates, scores)}
    norms = [math.sqrt(sum(x * x for x in row)) for row in rows]
    cos = {
        c.key(): sum(q * x for q, x in zip(rows[0], row)) / (norms[0] * norm) if norm else 0.0
        for c, row, norm in zip(candidates, rows[1:], norms[1:])
    }
    survivors = sorted(cos, key=lambda cid: (-cos[cid], cid))[: cfg.top_n]
    combined = {
        cid: cfg.alpha * min(1.0, max(0.0, score[cid])) + (1.0 - cfg.alpha) * cos[cid] for cid in survivors
    }
    expected = sorted(combined, key=lambda cid: (-combined[cid], cid))
    reranker = MappingRerank({c.text: value for c, value in zip(candidates, scores)})
    result = _score("q", candidates, cfg, _ReplyEmbedding(rows), reranker)
    assert [c.payload.key() for c in result] == expected
    assert [c.combined for c in result] == pytest.approx([combined[cid] for cid in expected])


def _spoiled(data, values, bad_entry):
    """``values`` with the wrong number of entries, or with one entry
    replaced by a draw from ``bad_entry``."""
    if data.draw(st.booleans(), label="wrong count"):
        count = data.draw(st.integers(0, len(values) + 2).filter(lambda k: k != len(values)), label="count")
        return [values[i % len(values)] for i in range(count)]
    values = list(values)
    index = data.draw(st.integers(0, len(values) - 1), label="index")
    values[index] = data.draw(bad_entry(values[index]), label="entry")
    return values


def _row_with_non_finite_or_of_another_length(row):
    return st.one_of(
        st.tuples(st.integers(0, len(row) - 1), _NON_FINITE).map(
            lambda spot: row[: spot[0]] + [spot[1]] + row[spot[0] + 1 :]
        ),
        st.lists(st.floats(-3.0, 3.0), max_size=5).filter(lambda other: len(other) != len(row)),
    )


@given(reply=_well_formed_replies(), data=st.data())
def test_score_candidates_malformed_provider_reply_is_a_provider_error(reply, data):
    candidates, cfg, rows, scores = reply
    scores = scores[: cfg.top_n]  # one per text the reranker is shown
    if data.draw(st.booleans(), label="spoil the embedder"):
        rows = _spoiled(data, rows, _row_with_non_finite_or_of_another_length)
    else:
        scores = _spoiled(data, scores, lambda score: _NON_FINITE)
    with pytest.raises(ProviderError, match="embedder returned|reranker returned"):
        _score("q", candidates, cfg, _ReplyEmbedding(rows), _ReplyRerank(scores))


class _LoggingEmbedding(HashEmbedding):
    """Hash embeddings that hold their reply back until the reranker has
    been called, or ``patience`` seconds have passed, then log it."""

    def __init__(self, log, reranked, patience):
        super().__init__(16)
        self.log = log
        self.reranked = reranked
        self.patience = patience

    def embed(self, texts):
        self.reranked.wait(timeout=self.patience)
        self.log.append("embedding reply")
        return super().embed(texts)


class _LoggingRerank(OverlapRerank):
    """Token-overlap rerank that logs the texts of every call."""

    def __init__(self, log, reranked):
        self.log = log
        self.reranked = reranked

    def rerank(self, query, texts):
        self.log.append(("rerank", list(texts)))
        self.reranked.set()
        return super().rerank(query, texts)


_QUERY = "topic3 word7 topic5"


def test_a_pool_within_top_n_is_reranked_before_the_embedding_returns():
    log, reranked = [], threading.Event()
    candidates = _facts(5)
    cfg = EngineConfig(top_n=5)
    embedder = _LoggingEmbedding(log, reranked, patience=5)
    result = _score(_QUERY, candidates, cfg, embedder, _LoggingRerank(log, reranked))
    # the query's and the candidates' embedding requests
    assert log == [("rerank", [c.text for c in candidates]), "embedding reply", "embedding reply"]
    assert result == score_pool(
        _QUERY, candidates, relations_of(candidates), scoring_pipe(cfg, HashEmbedding(16), OverlapRerank())
    )


def test_a_pool_over_top_n_reranks_top_n_texts_in_cosine_order_after_the_embedding():
    log, reranked = [], threading.Event()
    candidates = _facts(6)
    cfg = EngineConfig(top_n=5)
    _score(_QUERY, candidates, cfg, _LoggingEmbedding(log, reranked, patience=0), _LoggingRerank(log, reranked))
    texts = [c.text for c in candidates]
    vectors = HashEmbedding(16).embed([_QUERY] + texts)
    cos = {c.key(): cos for c, cos in zip(candidates, _cosines(vectors[0], vectors[1:]))}
    by_cosine = sorted(zip(candidates, texts), key=lambda pair: (-cos[pair[0].key()], pair[0].key()))
    assert log == ["embedding reply", "embedding reply", ("rerank", [text for _, text in by_cosine[:5]])]


class _DownRerank(RerankProvider):
    def rerank(self, query, texts):
        raise ProviderError("rerank endpoint failed: down")


def test_an_embedding_error_wins_over_an_early_rerank_error():
    reranker = CountingRerank(_DownRerank())
    with pytest.raises(ProviderError, match="embedder returned 4 vectors"):
        _score("topic", _facts(5), EngineConfig(), _ShortEmbedding(16), reranker)
    assert len(reranker.batches) == 1  # the early rerank was sent, and finished first


def test_stage_two_never_sees_stage_one_rejects():
    counting = CountingRerank(ConstantRerank(0.5))
    cfg = EngineConfig(top_n=5)
    facts = _facts(20)
    score_pool("query", facts, relations_of(facts), scoring_pipe(cfg, HashEmbedding(32), counting))
    assert len(counting.batches) == 1
    assert len(counting.batches[0]) == 5


def test_identical_texts_share_scores_and_sort_by_id():
    candidates = [Triple(EntityRef(f"Q{i}", "same"), RelationRef("P1", "text"), LiteralValue("x")) for i in (3, 1, 2)]
    result = score_pool(
        "same text", candidates, relations_of(candidates), scoring_pipe(EngineConfig(), HashEmbedding(16), ConstantRerank(0.5))
    )
    assert len({c.combined for c in result}) == 1
    assert [c.payload.key() for c in result] == ["Q1|P1|x", "Q2|P1|x", "Q3|P1|x"]


def test_rerank_scores_clamped():
    candidates = [_fact(1, "alpha"), _fact(2, "beta")]
    mapping = MappingRerank({candidates[0].text: 7.0, candidates[1].text: -3.0})
    result = score_pool(
        "alpha", candidates, relations_of(candidates), scoring_pipe(EngineConfig(alpha=1.0), HashEmbedding(16), mapping)
    )
    by_key = {c.payload: c for c in result}
    assert by_key[candidates[0]].rerank == 1.0
    assert by_key[candidates[1]].rerank == 0.0


def test_scoring_config_validation():
    for kwargs in ({"alpha": 1.5}, {"top_n": 0}, {"dimension": 0}):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            EngineConfig(**kwargs)


# ---------------------------------------------------------------------------
# the engine's embedding cache
# ---------------------------------------------------------------------------


def _down(rows):
    raise ProviderError("embedding endpoint failed: down")


def _poisoned(value):
    def spoil(rows):
        rows[-1][0] = value
        return rows

    return spoil


_FAULTS = {
    "error": (_down, "down"),
    "row count": (lambda rows: rows[:-1], "embedder returned"),
    "shapes": (lambda rows: rows[:-1] + [rows[-1][:-1]], "not of its dimension"),
    "nan": (_poisoned(float("nan")), "NaN or infinite"),
    "inf": (_poisoned(float("inf")), "NaN or infinite"),
    "1e200": (_poisoned(1e200), "NaN or infinite"),
}
_TOPIC = RelationSet(EntityRef("Q00", "topic0"), _facts(2), [_fact(1), _fact(2)])
_TOPIC_TEXTS = tuple(dict.fromkeys(t.text for t in _TOPIC.head + _TOPIC.tail))  # the entity's one request


def _step(cache, query, relations):
    """One grounding step's rows read through ``cache``: the query's, and
    those of every triple of ``relations``, all in the entity's fill."""
    return cache.rows(cache.start(query, relations, list), [t.text for t in relations.all()])


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_embedding_cache_never_keeps_a_failed_fill_and_asks_again(fault):
    spoil, message = _FAULTS[fault]
    rows = dict(zip(_TOPIC_TEXTS, map(pack, HashEmbedding(16).embed(_TOPIC_TEXTS))))
    expected = (pack(HashEmbedding(16).embed(["q"])[0]), [rows[t.text] for t in _TOPIC.all()])
    for spoiled, kept in (("q",), _TOPIC_TEXTS), (_TOPIC_TEXTS, ("q",)):
        inner = RecordingEmbedding(faults={spoiled: spoil})
        cache = CachedEmbedder(inner)
        with pytest.raises(ProviderError, match=message):
            _step(cache, "q", _TOPIC)
        assert _step(cache, "q", _TOPIC) == expected == _step(cache, "q", _TOPIC)
        assert Counter(inner.requests) == Counter([spoiled, spoiled, kept])  # asked again once, then kept


def test_a_step_whose_query_embedding_fails_sends_the_query_once():
    inner = RecordingEmbedding(faults={(_QUERY,): _down})
    with pytest.raises(ProviderError, match="down"):
        ground_pool(_QUERY, _TOPIC.head, _TOPIC, scoring_pipe(EngineConfig(), inner, OverlapRerank()))
    assert Counter(inner.requests) == Counter([(_QUERY,), _TOPIC_TEXTS])


def test_a_steps_entity_embedding_error_wins_over_its_query_error():
    def refused(rows):
        raise ProviderError("embedding endpoint failed: query refused")

    inner = RecordingEmbedding(faults={(_QUERY,): refused, _TOPIC_TEXTS: _down})
    with pytest.raises(ProviderError, match="down"):
        ground_pool(_QUERY, _TOPIC.head, _TOPIC, scoring_pipe(EngineConfig(), inner, OverlapRerank()))
    assert Counter(inner.requests) == Counter([(_QUERY,), _TOPIC_TEXTS])


def test_embedding_cache_raises_zero_vector_only_once_the_rows_pass():
    query = "¿??"  # no word token: an all-zero hash row
    entity_poisoned = RecordingEmbedding(faults={_TOPIC_TEXTS: _poisoned(float("nan"))})
    pipe = scoring_pipe(EngineConfig(), entity_poisoned, ConstantRerank())
    with pytest.raises(ProviderError, match="NaN or infinite"):
        score_pool(query, _TOPIC.head, _TOPIC, pipe)
    with pytest.raises(ZeroVector):
        score_pool(query, _TOPIC.head, _TOPIC, pipe)


def test_embedding_cache_scores_as_one_uncached_request_does():
    inner = RecordingEmbedding()
    cache = CachedEmbedder(inner)
    cfg = EngineConfig(top_n=2)  # once reranked early, once after the embedding
    for pool in (_TOPIC.head, _TOPIC.head + _TOPIC.tail[1:]):
        # the reference: a cold pipeline whose one request for the entity holds the pool alone
        expected = score_pool(_QUERY, pool, relations_of(pool), scoring_pipe(cfg, HashEmbedding(16), OverlapRerank()))
        assert ground_pool(_QUERY, pool, _TOPIC, scoring_pipe(cfg, cache, OverlapRerank())) == expected
    assert sorted(inner.requests) == sorted([(_QUERY,), _TOPIC_TEXTS])


def test_an_entity_fill_embeds_only_what_the_keyword_rule_keeps():
    inner = RecordingEmbedding()
    cache = CachedEmbedder(inner)

    def grounded(k_invalid, embedder):
        pipe = scoring_pipe(EngineConfig(k_invalid=k_invalid, theta_necessity=0.0), embedder, OverlapRerank())
        return ground(_QUERY, _TOPIC.all(), _TOPIC, pipe, score_candidates, denoise)

    narrow = grounded(["word2"], cache)  # the rule drops word2, the third text
    assert Counter(inner.requests) == Counter([(_QUERY,), _TOPIC_TEXTS[:2]])
    # a pipeline whose rule keeps word2 reads the same rows, and embeds its text for each step
    wide = [grounded(["version"], cache) for _ in range(2)]
    assert wide == [grounded(["version"], HashEmbedding(16))] * 2
    assert Counter(inner.requests) == Counter([(_QUERY,), _TOPIC_TEXTS[:2], _TOPIC_TEXTS[2:], _TOPIC_TEXTS[2:]])
    assert narrow == [c for c in wide[0] if c.payload.relation.label != "word2"]


def _kept_bytes(cache):
    """Bytes of the packed rows a CachedEmbedder keeps, counted afresh."""
    kept = [value for value in cache._rows._entries.values() if isinstance(value, (bytes, dict))]
    return sum(map(scoring._row_bytes, kept))


def _keeps(cache, key):
    """Whether a CachedEmbedder keeps the finished rows of ``key``."""
    return isinstance(cache._rows._entries.get(key), (bytes, dict))


def test_embedding_cache_keeps_at_most_its_bound(monkeypatch):
    row = sys.getsizeof(pack(HashEmbedding(16).embed(["q0"])[0]))  # every one-token row packs alike
    monkeypatch.setattr(scoring, "EMBED_BYTES", 3 * row)
    inner = RecordingEmbedding()
    cache = CachedEmbedder(inner)
    bare = RelationSet(EntityRef("Q99", "bare"), [], [])  # no triples: its rows weigh nothing
    for i in range(8):
        _step(cache, f"q{i}", bare)
        assert _kept_bytes(cache) == cache._rows._load <= 3 * row
    assert _keeps(cache, "q7") and not _keeps(cache, "q4")
    _step(cache, "q0", bare)  # evicted, so asked again
    assert Counter(inner.requests) == Counter([()] + [(f"q{i}",) for i in range(8)] + [("q0",)])


class _DenseEmbedding(RecordingEmbedding):
    """Recording rows of 768 nonzero floats, as a dense model returns."""

    def __init__(self):
        super().__init__(dimension=768)

    def embed(self, texts):
        return [[1.0 + i / 768 for i in range(768)] for _ in super().embed(texts)]


def test_embedding_cache_bounds_the_bytes_of_dense_rows(monkeypatch):
    row = sys.getsizeof(pack([1.0] * 768))
    assert 9_200 < row < 9_300  # 8 + 12 bytes a nonzero
    monkeypatch.setattr(scoring, "EMBED_BYTES", 20 * row)
    inner = _DenseEmbedding()
    cache = CachedEmbedder(inner)
    entities = [RelationSet(EntityRef(f"Q{i}", f"e{i}"), _facts(8), []) for i in range(4)]
    for relations in entities:  # each step moves the query's one row past the entities kept
        assert len(_step(cache, "q", relations)[1]) == 8
        assert _kept_bytes(cache) == cache._rows._load <= 20 * row
    assert [_keeps(cache, r.entity) for r in entities] == [False, False, True, True]
    wide = RelationSet(EntityRef("Q9", "wide"), _facts(21), [])  # more rows than the bound holds
    assert len(_step(cache, "q", wide)[1]) == 21
    assert not _keeps(cache, wide.entity) and cache._rows._load == 0


class _GatedEmbedding(RecordingEmbedding):
    """Recording hash embeddings that hold every request, listed in
    ``held`` on arrival, until ``gate`` is set."""

    def __init__(self):
        super().__init__()
        self.held = []
        self.gate = threading.Event()

    def embed(self, texts):
        self.held.append(tuple(texts))
        self.gate.wait(timeout=10)
        return super().embed(texts)


def test_embedding_cache_sends_a_fresh_steps_two_requests_at_once():
    inner = _GatedEmbedding()
    cfg = EngineConfig()
    with ThreadPoolExecutor(1) as caller:  # a question's thread
        step = caller.submit(ground_pool, _QUERY, _TOPIC.head, _TOPIC, scoring_pipe(cfg, inner, OverlapRerank()))
        deadline = time.monotonic() + 5
        while len(inner.held) < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        both = Counter([(_QUERY,), _TOPIC_TEXTS])
        assert Counter(inner.held) == both and not inner.requests  # both in flight, neither answered
        inner.gate.set()
        expected = ground_pool(_QUERY, _TOPIC.head, _TOPIC, scoring_pipe(cfg, HashEmbedding(16), OverlapRerank()))
        assert step.result(timeout=10) == expected
    assert Counter(inner.requests) == both


def test_embedding_cache_embeds_texts_of_triples_fetched_again_and_changed():
    inner = RecordingEmbedding()
    cache = CachedEmbedder(inner)
    cfg = EngineConfig()
    _step(cache, _QUERY, _TOPIC)  # rows kept from the entity's first fetch
    changed = RelationSet(_TOPIC.entity, [_fact(0), _fact(7)], [_fact(1)])  # its triples, fetched again
    expected = score_pool(_QUERY, changed.all(), changed, scoring_pipe(cfg, HashEmbedding(16), OverlapRerank()))
    for _ in range(2):
        assert score_pool(_QUERY, changed.all(), changed, scoring_pipe(cfg, cache, OverlapRerank())) == expected
    new = (_fact(7).text,)
    assert Counter(inner.requests[:2]) == Counter([(_QUERY,), _TOPIC_TEXTS])
    assert inner.requests[2:] == [new, new]  # the new text is not kept


class _SlowEmbedding(RecordingEmbedding):
    """Recording hash embeddings that take 2 ms a request, so that callers
    meet while a fill is in flight."""

    def embed(self, texts):
        time.sleep(0.002)
        return super().embed(texts)


def test_embedding_cache_sends_one_request_per_key_from_many_threads():
    inner = _SlowEmbedding()
    cache = CachedEmbedder(inner)
    entities = [RelationSet(EntityRef(f"Q{i}", f"e{i}"), [_fact(i), _fact(i + 1)], []) for i in range(4)]

    def work(k):
        for j in range(40):
            _step(cache, f"q{(k + j) % 5}", entities[(k * j) % 4])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = [(f"q{i}",) for i in range(5)] + [tuple(t.text for t in relations.head) for relations in entities]
    assert Counter(inner.requests) == Counter(expected)
