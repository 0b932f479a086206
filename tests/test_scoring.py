"""Two-stage scoring: cosine, fusion, top-N selection, provider doubles, and
the stage-ordering contract."""

import math
import random
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ConstantRerank, CountingRerank, DownSession, MappingRerank
from dualtrack import scoring
from dualtrack.config import EngineConfig
from dualtrack.kg import RelationRef
from dualtrack.llm import ProviderError
from dualtrack.scoring import (
    EmbeddingProvider,
    HashEmbedding,
    HttpEmbedding,
    HttpRerank,
    MissingStageScore,
    OverlapRerank,
    RerankProvider,
    ScoredCandidate,
    ZeroVector,
    cosines,
    fuse,
    payload_id,
    score_candidates,
    submit_scoring,
    top_n,
    verbalize,
)
from oracles import hash_embedding_rows

# ---------------------------------------------------------------------------
# cosine
# ---------------------------------------------------------------------------


def test_cosine_identical_vectors():
    v = [0.3, 0.4]
    assert cosines(v, [v]) == [pytest.approx(1.0)]


def test_cosine_orthogonal():
    assert cosines([1.0, 0.0], [[0.0, 1.0]]) == [pytest.approx(0.0)]


def test_cosine_hand_value():
    # (1,1) . (1,0) / (sqrt2 * 1) = 1/sqrt2
    assert cosines([1.0, 1.0], [[1.0, 0.0]]) == [pytest.approx(0.70710678, abs=1e-8)]


def test_cosine_zero_vector():
    with pytest.raises(ZeroVector):
        cosines([0.0] * 3, [[1.0] * 3])


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
    assert cosines(query, rows) == [_sequential_cosine(query, row) for row in rows]


@given(data=st.data(), dimension=st.integers(1, 12))
def test_cosines_equal_the_sequential_cosine_on_float_rows(data, dimension):
    floats = st.floats(-1e3, 1e3) | st.just(0.0)
    query, rows = data.draw(_vectors(floats.filter(lambda x: x == 0.0 or abs(x) > 1e-3), dimension))
    assert cosines(query, rows) == pytest.approx([_sequential_cosine(query, row) for row in rows], abs=1e-12)


def test_cosines_score_an_all_zero_row_zero_and_reject_an_all_zero_query_without_rows():
    assert cosines([0.0, 2.0], [[0.0, 0.0], [0.0, -1.0]]) == [0.0, -1.0]
    with pytest.raises(ZeroVector):
        cosines([0.0, 0.0], [])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1e200])
def test_cosines_reject_a_row_with_a_value_no_norm_holds(value):
    # the check is each norm's sum of squares: it comes before the zero-query
    # check, and it also catches finite values whose squares overflow
    for query, rows in (([1.0, 0.0], [[0.0, value]]), ([0.0, value], [[1.0, 0.0]]), ([0.0, 0.0], [[value, 1.0]])):
        with pytest.raises(ProviderError, match="NaN or infinite"):
            cosines(query, rows)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------


def _candidate(cos=None, rerank=None, pid="P1"):
    return ScoredCandidate(payload=RelationRef(pid, pid), text=pid, cos=cos, rerank=rerank)


def test_fuse_alpha_one_keeps_rerank_only():
    fused = fuse(_candidate(cos=0.2, rerank=0.8), EngineConfig(alpha=1.0))
    assert fused.combined == pytest.approx(0.8)


def test_fuse_alpha_zero_keeps_cosine_only():
    fused = fuse(_candidate(cos=0.6, rerank=0.8), EngineConfig(alpha=0.0))
    assert fused.combined == pytest.approx(0.6)


def test_fuse_hand_value():
    fused = fuse(_candidate(cos=0.6, rerank=0.8), EngineConfig(alpha=0.7))
    assert fused.combined == pytest.approx(0.74)


def test_fuse_requires_both_scores():
    with pytest.raises(MissingStageScore):
        fuse(_candidate(cos=0.5), EngineConfig())
    with pytest.raises(MissingStageScore):
        fuse(_candidate(rerank=0.5), EngineConfig())


def test_fuse_does_not_mutate_input():
    original = _candidate(cos=0.1, rerank=0.2)
    fuse(original, EngineConfig())
    assert original.combined is None


@given(
    alpha=st.floats(0.01, 1.0),
    cos=st.floats(-1.0, 1.0),
    r1=st.floats(0.0, 1.0),
    r2=st.floats(0.0, 1.0),
)
def test_fuse_monotone_in_rerank(alpha, cos, r1, r2):
    lo, hi = sorted((r1, r2))
    cfg = EngineConfig(alpha=alpha)
    assert fuse(_candidate(cos=cos, rerank=lo), cfg).combined <= (
        fuse(_candidate(cos=cos, rerank=hi), cfg).combined + 1e-12
    )


@given(
    alpha=st.floats(0.0, 0.99),
    rerank=st.floats(0.0, 1.0),
    c1=st.floats(-1.0, 1.0),
    c2=st.floats(-1.0, 1.0),
)
def test_fuse_monotone_in_cosine(alpha, rerank, c1, c2):
    lo, hi = sorted((c1, c2))
    cfg = EngineConfig(alpha=alpha)
    assert fuse(_candidate(cos=lo, rerank=rerank), cfg).combined <= (
        fuse(_candidate(cos=hi, rerank=rerank), cfg).combined + 1e-12
    )


# ---------------------------------------------------------------------------
# top-N
# ---------------------------------------------------------------------------


def test_top_n_takes_largest():
    candidates = [_candidate(cos=i / 60, pid=f"P{i:02d}") for i in range(60)]
    kept = top_n(candidates, 50, key="cos")
    assert len(kept) == 50
    assert kept[0].cos == pytest.approx(59 / 60)
    assert min(c.cos for c in kept) == pytest.approx(10 / 60)


def test_top_n_fewer_than_n_returns_all_sorted():
    candidates = [_candidate(cos=c, pid=p) for c, p in [(0.1, "Pa"), (0.9, "Pb"), (0.5, "Pc")]]
    kept = top_n(candidates, 50, key="cos")
    assert [c.payload.id for c in kept] == ["Pb", "Pc", "Pa"]


def test_top_n_tiebreak_by_payload_id():
    candidates = [_candidate(cos=0.5, pid=p) for p in ["Pz", "Pa", "Pm"]]
    kept = top_n(candidates, 2, key="cos")
    assert [c.payload.id for c in kept] == ["Pa", "Pm"]


def test_top_n_rejects_bad_args():
    with pytest.raises(ValueError):
        top_n([], 0)
    with pytest.raises(ValueError):
        top_n([], 1, key="rerank")
    with pytest.raises(MissingStageScore):
        top_n([_candidate()], 1, key="cos")


@given(
    scores=st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=30),
    n=st.integers(1, 10),
    m=st.integers(1, 10),
)
def test_top_n_subset_monotonicity(scores, n, m):
    n, m = sorted((n, m))
    candidates = [_candidate(cos=s, pid=f"P{i}") for i, s in enumerate(scores)]
    small = {payload_id(c.payload) for c in top_n(candidates, n, key="cos")}
    big = {payload_id(c.payload) for c in top_n(candidates, m, key="cos")}
    assert small <= big


def test_top_n_matches_sort_oracle():
    rng = random.Random(11)
    for _ in range(50):
        count = rng.randrange(40)
        candidates = [_candidate(cos=rng.uniform(-1, 1), pid=f"P{i}") for i in range(count)]
        n = rng.randrange(1, 60)
        expected = sorted(candidates, key=lambda c: (-c.cos, payload_id(c.payload)))[:n]
        assert top_n(candidates, n, key="cos") == expected


# ---------------------------------------------------------------------------
# verbalization
# ---------------------------------------------------------------------------


def test_verbalize_triple_and_relation(movie_triples):
    assert verbalize(movie_triples[0]) == "Inception director Christopher Nolan"
    assert verbalize(movie_triples[2]) == "Emma Thomas birthdate 1975-05-26"
    assert verbalize(RelationRef("P57", "director")) == "director"
    assert verbalize(RelationRef("P57")) == "P57"


def test_verbalization_injective_on_fixture(movie_triples):
    texts = [verbalize(t) for t in movie_triples]
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
    embedder = _EMBEDDERS[dimension]  # shared, so most tokens come from its memo
    expected = hash_embedding_rows(texts, dimension)
    assert embedder.embed(texts) == expected
    for text, row in zip(texts, expected):
        assert embedder.embed([text]) == [row]


def test_hash_embedding_token_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(scoring, "TOKEN_BUCKETS", 3)
    embedder = HashEmbedding(dimension=16)
    texts = [" ".join(f"w{i}_{j}" for j in range(4)) for i in range(5)]
    for text in texts:
        assert embedder.embed([text]) == hash_embedding_rows([text], 16)
        assert len(embedder._buckets) <= 3
    assert embedder.embed(texts) == hash_embedding_rows(texts, 16)


def test_hash_embedding_shared_by_threads_keeps_its_bound(monkeypatch):
    monkeypatch.setattr(scoring, "TOKEN_BUCKETS", 5)
    embedder = HashEmbedding(dimension=16)
    texts = [[f"t{i}_{j} t{j}" for j in range(40)] for i in range(8)]
    rows, sizes = {}, []

    def work(i):
        rows[i] = []
        for text in texts[i]:
            rows[i].append(embedder.embed([text]))
            sizes.append(len(embedder._buckets))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so stores interleave
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(8):
        assert rows[i] == [hash_embedding_rows([text], 16) for text in texts[i]]
    assert max(sizes) <= 5


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


def _relations(n):
    return [RelationRef(f"P{i:02d}", f"topic{i} word{i}") for i in range(n)]


def _score(query, candidates, cfg, embedder, reranker):
    """``score_candidates`` as both tracks run it, through ``submit_scoring``:
    a pool of at most ``cfg.top_n`` candidates has its rerank sent early."""
    return submit_scoring(score_candidates, query, candidates, cfg, embedder, reranker).result()


def test_score_candidates_empty():
    assert score_candidates("q", [], EngineConfig(), HashEmbedding(16), ConstantRerank()) == []


def test_score_candidates_matches_independent_recompute():
    # fixture providers: hash embeddings + constant rerank 0.5. The expected
    # outcome is recomputed here with the same fixture functions but without
    # going through the pipeline.
    embedder = HashEmbedding(dimension=64)
    reranker = ConstantRerank(0.5)
    cfg = EngineConfig(alpha=0.7, top_n=5, dimension=64)
    candidates = _relations(10)
    query = "topic3 word7 topic5"

    texts = [verbalize(c) for c in candidates]
    vectors = embedder.embed([query] + texts)
    cos_by_id = {c.id: cos for c, cos in zip(candidates, cosines(vectors[0], vectors[1:]))}
    expected_ids = [
        c.id
        for c in sorted(candidates, key=lambda c: (-cos_by_id[c.id], c.id))[:5]
    ]
    expected_combined = {cid: 0.7 * 0.5 + 0.3 * cos_by_id[cid] for cid in expected_ids}

    result = score_candidates(query, candidates, cfg, embedder, reranker)
    assert sorted(c.payload.id for c in result) == sorted(expected_ids)
    for c in result:
        assert c.combined == pytest.approx(expected_combined[c.payload.id], abs=1e-9)
    assert [c.combined for c in result] == sorted((c.combined for c in result), reverse=True)


class _ShortEmbedding(HashEmbedding):
    """Returns one row fewer than it was asked for."""

    def embed(self, texts):
        return super().embed(texts)[:-1]


def test_score_candidates_rejects_missing_embedding_rows():
    with pytest.raises(ProviderError, match="embedder returned 5 vectors for 6 texts"):
        score_candidates("topic", _relations(5), EngineConfig(), _ShortEmbedding(16), ConstantRerank())


def test_score_candidates_rejects_embedding_row_of_another_shape():
    embedder = _ReplyEmbedding([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ProviderError, match="embedder returned rows of different shapes"):
        score_candidates("q", _relations(2), EngineConfig(), embedder, ConstantRerank())


def test_score_candidates_ranks_a_zero_candidate_row_last():
    embedder = _ReplyEmbedding([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    result = score_candidates("q", _relations(3), EngineConfig(), embedder, ConstantRerank(0.5))
    assert [(c.payload.id, c.cos) for c in result] == [("P01", pytest.approx(0.70710678)), ("P00", 0.0), ("P02", 0.0)]


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


_ABCD = [RelationRef(f"P{i}", f"{name} fact") for i, name in enumerate("abcd")]


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("order", ["abdc", "dcba"])
def test_score_candidates_rejects_non_finite_candidate_embedding(value, order):
    candidates = [_ABCD["abcd".index(name)] for name in order]
    embedder = _PoisonedEmbedding(16, "c fact", value)
    with pytest.raises(ProviderError, match="NaN or infinite"):
        score_candidates("a b c d fact", candidates, EngineConfig(), embedder, ConstantRerank())


@pytest.mark.parametrize("value", [float("nan"), float("-inf")], ids=["nan", "-inf"])
def test_score_candidates_rejects_non_finite_query_embedding(value):
    embedder = _PoisonedEmbedding(16, "a b c d fact", value)
    with pytest.raises(ProviderError, match="NaN or infinite"):
        score_candidates("a b c d fact", _ABCD, EngineConfig(), embedder, ConstantRerank())


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_score_candidates_rejects_non_finite_rerank_score(value):
    # once with the pool within top_n (reranked early), once over it
    for top in (len(_ABCD), len(_ABCD) - 1):
        reranker = CountingRerank(MappingRerank({"c fact": value}, default=0.5))
        with pytest.raises(ProviderError, match="NaN or infinite"):
            _score("a b c d fact", _ABCD, EngineConfig(top_n=top), HashEmbedding(16), reranker)
        assert "c fact" in reranker.batches[0]


class _ReplyEmbedding(EmbeddingProvider):
    """Answers every call with the same rows."""

    def __init__(self, rows):
        self.rows = rows

    def embed(self, texts):
        return [[float(x) for x in row] for row in self.rows]


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
    return _relations(n), cfg, rows, scores


@given(reply=_well_formed_replies())
def test_score_candidates_well_formed_replies_match_independent_recompute(reply):
    candidates, cfg, rows, scores = reply
    score = {c.id: value for c, value in zip(candidates, scores)}
    norms = [math.sqrt(sum(x * x for x in row)) for row in rows]
    cos = {
        c.id: sum(q * x for q, x in zip(rows[0], row)) / (norms[0] * norm) if norm else 0.0
        for c, row, norm in zip(candidates, rows[1:], norms[1:])
    }
    survivors = sorted(cos, key=lambda cid: (-cos[cid], cid))[: cfg.top_n]
    combined = {
        cid: cfg.alpha * min(1.0, max(0.0, score[cid])) + (1.0 - cfg.alpha) * cos[cid] for cid in survivors
    }
    expected = sorted(combined, key=lambda cid: (-combined[cid], cid))
    reranker = MappingRerank({verbalize(c): value for c, value in zip(candidates, scores)})
    result = _score("q", candidates, cfg, _ReplyEmbedding(rows), reranker)
    assert [c.payload.id for c in result] == expected
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
    candidates = _relations(5)
    cfg = EngineConfig(top_n=5)
    embedder = _LoggingEmbedding(log, reranked, patience=5)
    result = _score(_QUERY, candidates, cfg, embedder, _LoggingRerank(log, reranked))
    assert log == [("rerank", [verbalize(c) for c in candidates]), "embedding reply"]
    assert result == score_candidates(_QUERY, candidates, cfg, HashEmbedding(16), OverlapRerank())


def test_a_pool_over_top_n_reranks_top_n_texts_in_cosine_order_after_the_embedding():
    log, reranked = [], threading.Event()
    candidates = _relations(6)
    cfg = EngineConfig(top_n=5)
    _score(_QUERY, candidates, cfg, _LoggingEmbedding(log, reranked, patience=0), _LoggingRerank(log, reranked))
    texts = [verbalize(c) for c in candidates]
    vectors = HashEmbedding(16).embed([_QUERY] + texts)
    cos = {c.id: cos for c, cos in zip(candidates, cosines(vectors[0], vectors[1:]))}
    by_cosine = sorted(zip(candidates, texts), key=lambda pair: (-cos[pair[0].id], pair[0].id))
    assert log == ["embedding reply", ("rerank", [text for _, text in by_cosine[:5]])]


class _DownRerank(RerankProvider):
    def rerank(self, query, texts):
        raise ProviderError("rerank endpoint failed: down")


def test_an_embedding_error_wins_over_an_early_rerank_error():
    reranker = CountingRerank(_DownRerank())
    with pytest.raises(ProviderError, match="embedder returned 5 vectors"):
        _score("topic", _relations(5), EngineConfig(), _ShortEmbedding(16), reranker)
    assert len(reranker.batches) == 1  # the early rerank was sent, and finished first


def test_stage_two_never_sees_stage_one_rejects():
    counting = CountingRerank(ConstantRerank(0.5))
    cfg = EngineConfig(top_n=5)
    score_candidates("query", _relations(20), cfg, HashEmbedding(32), counting)
    assert len(counting.batches) == 1
    assert len(counting.batches[0]) == 5


def test_identical_texts_share_scores_and_sort_by_id():
    candidates = [RelationRef(f"P{i}", "same text") for i in (3, 1, 2)]
    result = score_candidates("same text", candidates, EngineConfig(), HashEmbedding(16), ConstantRerank(0.5))
    assert len({c.combined for c in result}) == 1
    assert [c.payload.id for c in result] == ["P1", "P2", "P3"]


def test_rerank_scores_clamped():
    mapping = MappingRerank({"alpha": 7.0, "beta": -3.0})
    candidates = [RelationRef("P1", "alpha"), RelationRef("P2", "beta")]
    result = score_candidates("alpha", candidates, EngineConfig(alpha=1.0), HashEmbedding(16), mapping)
    by_id = {c.payload.id: c for c in result}
    assert by_id["P1"].rerank == 1.0
    assert by_id["P2"].rerank == 0.0


def test_scoring_config_validation():
    for kwargs in ({"alpha": 1.5}, {"top_n": 0}, {"dimension": 0}):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            EngineConfig(**kwargs)
