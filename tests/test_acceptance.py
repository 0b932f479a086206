"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    MOVIE_LINES,
    ConstantRerank,
    CountingRerank,
    FailingLLM,
    MappingEmbedding,
    MappingRerank,
    relations_of,
)
from dualtrack.chain import Hop, ReasoningPath, path_score, search_paths
from dualtrack.classifier import Question, QuestionType, classify
from dualtrack.config import EngineConfig
from dualtrack.denoise import denoise
from dualtrack.engine import Engine, Pipeline
from dualtrack.evaluation import AccScorer, evaluate, exact_match, semantic_acc
from dualtrack.kg import (
    EntityRef,
    InMemoryTripleStore,
    LiteralValue,
    RelationRef,
    Triple,
    parse_triples,
    entity_id_query,
    head_relations_query,
    tail_relations_query,
)
from dualtrack.llm import StubLLM
from dualtrack.scoring import HashEmbedding, OverlapRerank, score_candidates, submit_scoring
from dualtrack.verify import VerificationStatus, verify_fact
from oracles import build_store, enumerate_paths, random_graph_lines, random_question
from test_chain import CHAIN_MAPPING, CHAIN_SCRIPT
from test_cli import STUB_SCRIPT, CHAINED_Q, PARALLEL_Q

GOLDEN_DIR = __import__("pathlib").Path(__file__).parent / "data" / "sparql"


def _report(number, name, elapsed=None):
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS{timing}")


# ---------------------------------------------------------------------------
# 1. classifier fidelity on the six few-shot exemplars
# ---------------------------------------------------------------------------


def test_01_classifier_fidelity(templates):
    exemplars = [
        ("Where was the CEO of Microsoft born?", "yes"),
        ("Who is older: Elon Musk or Jeff Bezos?", "no"),
        ("Which university did the inventor of Python attend?", "yes"),
        ("What is the capital and population of France?", "no"),
        ("Who directed Inception and what other films did they make?", "no"),
        ("What is the tallest mountain and who first climbed it?", "no"),
    ]
    stub = StubLLM(script=[(f'Question: "{q}"', label) for q, label in exemplars])
    start = time.perf_counter()
    for question_text, label in exemplars:
        decision = classify(Question(id="a", text=question_text), stub, templates["classification"])
        expected = QuestionType.CHAINED if label == "yes" else QuestionType.PARALLEL
        assert decision.track is expected, question_text
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "classifier 6/6 exemplar fidelity", elapsed)


# ---------------------------------------------------------------------------
# 2. scoring math vs brute-force oracle
# ---------------------------------------------------------------------------


# Candidate rows (a, b, norm) with an integer norm, so that against a query
# on the first axis every cosine is a/norm, correctly rounded: equal ratios
# give bit-equal cosines, and ties are real ties. (0, 0) is an all-zero row.
_PYTHAGOREAN = [(1, 0, 1), (0, 1, 1), (3, 4, 5), (4, 3, 5), (6, 8, 10), (5, 12, 13), (12, 5, 13), (8, 15, 17)]
_ROWS = [(s * a, b, norm) for a, b, norm in _PYTHAGOREAN for s in (1, -1)] + [(0, 0, 0)]
_RERANKS = [-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5]  # clamped to [0, 1] before fusion


def test_02_scoring_math_oracle():
    rng = random.Random(2024)
    pools = {"early": 0, "late": 0}
    start = time.perf_counter()
    for _ in range(1000):
        alpha = rng.random()
        count, top = rng.randint(1, 30), rng.randint(1, 30)
        cfg = EngineConfig(alpha=alpha, top_n=top)
        scale = rng.choice([1, 2, 3, -1, -2])  # the query row (scale, 0)
        ids = rng.sample(range(1000), count)  # keys in no relation to input order
        triples = [Triple(EntityRef(f"Q{i}", f"s{i}"), RelationRef("P1", "r"), LiteralValue("v")) for i in ids]
        rows = [rng.choice(_ROWS) for _ in triples]
        reranks = [rng.choice(_RERANKS) for _ in triples]
        embedder = MappingEmbedding({"q": [scale, 0]} | {t.text: row[:2] for t, row in zip(triples, rows)})
        reranker = CountingRerank(MappingRerank({t.text: r for t, r in zip(triples, reranks)}))

        result = submit_scoring(score_candidates, "q", triples, relations_of(triples), cfg, embedder, reranker).result()

        cos = {
            t.key(): float(Fraction(scale * a, abs(scale) * norm)) if norm else 0.0
            for t, (a, _, norm) in zip(triples, rows)
        }
        rerank = {t.key(): min(1.0, max(0.0, r)) for t, r in zip(triples, reranks)}
        by_cosine = sorted(triples, key=lambda t: (-cos[t.key()], t.key()))
        survivors = by_cosine[:top]  # Stage I's cut
        if count <= top:
            pools["early"] += 1  # reranked whole, in candidate order, alongside the embedding
            assert reranker.batches == [[t.text for t in triples]]
        else:
            pools["late"] += 1  # only Stage I's survivors, in cosine order
            assert reranker.batches == [[t.text for t in survivors]]
        combined = {t.key(): alpha * rerank[t.key()] + (1 - alpha) * cos[t.key()] for t in survivors}
        expected = sorted(survivors, key=lambda t: (-combined[t.key()], t.key()))
        assert [c.payload for c in result] == expected
        for c in result:
            key = c.payload.key()
            assert (c.cos, c.rerank) == (cos[key], rerank[key])
            assert abs(c.combined - combined[key]) <= 1e-9
    elapsed = time.perf_counter() - start
    assert min(pools.values()) >= 300
    assert elapsed < 5.0
    _report(2, "1000 score_candidates cases match the sort/arithmetic oracle", elapsed)


# ---------------------------------------------------------------------------
# 3. the top-N knob defaults to 50 and the pipeline honors it
# ---------------------------------------------------------------------------


def test_03_top_n_default_honored(templates):
    assert EngineConfig().top_n == 50

    counting = CountingRerank(ConstantRerank(0.5))
    candidates = parse_triples([f"QF1|Hub|P{i}|topic{i}|QF{i + 10}|spoke{i}" for i in range(120)])
    score_candidates("which topic?", candidates, relations_of(candidates), EngineConfig(), HashEmbedding(32), counting)
    assert len(counting.batches) == 1
    assert len(counting.batches[0]) == 50

    # end to end through verify_fact: an entity with 80 triples still sends
    # at most 50 texts to the rerank stage
    lines = [f"QF1|Hub|P{i}|topic{i}|QF{i + 10}|spoke{i}" for i in range(80)]
    store = InMemoryTripleStore(parse_triples(lines))
    counting2 = CountingRerank(ConstantRerank(0.5))
    from dualtrack.verify import AtomicFact

    pipe = Pipeline(
        store=store,
        llm=StubLLM(script=[("Judgment (yes/no)", "yes")]),
        templates=templates,
        embedder=HashEmbedding(32),
        reranker=counting2,
        config=EngineConfig(theta_necessity=0.0),
    )
    result = verify_fact(AtomicFact("Hub is about topic3.", "Hub", 0), pipe)
    assert result.status is VerificationStatus.VERIFIED
    assert max(len(batch) for batch in counting2.batches) == 50
    _report(3, "top_n defaults to 50; stage II never sees more than 50")


# ---------------------------------------------------------------------------
# 4. search-constraint suite on 100 random graphs
# ---------------------------------------------------------------------------


def test_04_search_constraints_and_oracle(templates):
    rng = random.Random(99)
    d_max, w_max, theta = 3, 3, 0.12
    config = EngineConfig(
        alpha=0.5,
        dimension=48,
        d_max=d_max,
        w_max=w_max,
        theta_search=theta,
        theta_necessity=0.0,  # necessity layer off
    )
    embedder = HashEmbedding(dimension=48)
    reranker = OverlapRerank()
    start = time.perf_counter()
    nonempty = 0
    full_depth_paths = 0
    for index in range(100):
        lines, n = random_graph_lines(rng, max_nodes=30)
        store = build_store(lines)
        question = Question(id=f"g{index}", text=random_question(rng, n))
        origin = EntityRef("Q1", "node1")
        pipe = Pipeline(
            store=store,
            llm=StubLLM(default="no"),  # sufficiency always false
            templates=templates,
            embedder=embedder,
            reranker=reranker,
            config=config,
        )
        completed, _ = search_paths(origin, question, pipe)
        signatures = {p.signature() for p in completed}
        nonempty += bool(signatures)
        full_depth_paths += sum(p.depth() == d_max for p in completed)

        # depth bound
        assert all(p.depth() <= d_max for p in completed)
        # threshold soundness
        assert all(hop.score >= theta for p in completed for hop in p.hops)
        # per-step width bound, checked over every prefix of the emitted set
        children = {}
        for signature in signatures:
            for cut in range(len(signature)):
                children.setdefault(signature[:cut], set()).add(signature[cut])
        assert all(len(v) <= w_max for v in children.values())
        # oracle equivalence
        expected = enumerate_paths(
            store,
            origin,
            question.text,
            d_max=d_max,
            w_max=w_max,
            theta=theta,
            scoring=config,
            embedder=embedder,
            reranker=reranker,
            k_invalid=frozenset({"id", "source", "version", "metadata"}),
        )
        assert signatures == expected, f"graph {index} diverged from the enumeration oracle"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    # the suite must actually exercise non-trivial searches, including deep ones
    assert nonempty > 10
    assert full_depth_paths > 10
    _report(
        4,
        f"100 random graphs: constraints + oracle equality "
        f"({nonempty} non-empty, {full_depth_paths} full-depth paths)",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 5. path-score multiplicativity
# ---------------------------------------------------------------------------


def test_05_path_score_multiplicativity():
    rng = random.Random(5)
    for _ in range(10_000):
        depth = rng.randint(0, 6)
        scores = [rng.random() for _ in range(depth)]
        hops = tuple(
            Hop(
                triple=parse_triples([f"Q{i + 1}|s|P{i}|r|Q{i + 2}|o"])[0],
                direction="head",
                score=score,
            )
            for i, score in enumerate(scores)
        )
        path = ReasoningPath(origin=EntityRef("Q1"), hops=hops)
        product = 1.0
        for score in scores:
            product *= score
        assert abs(path_score(path) - product) <= 1e-9
    _report(5, "10,000 random paths: |score - product| <= 1e-9")


# ---------------------------------------------------------------------------
# 6. denoiser rule layer: total drop, zero LLM calls, keep-on-failure
# ---------------------------------------------------------------------------


def test_06_denoiser_rule_layer(templates):
    admin_lines = [
        "QF1|Inception|P1|wikidata:id|Q1375011|",
        "QF1|Inception|P2|data source|QF7|dump",
        "QF1|Inception|P3|schema version|QF8|v9",
        "QF1|Inception|P4|metadata block|QF9|blob",
        "QF1|Inception|P5|catalog ID|QF10|row",
    ]
    triples = parse_triples(admin_lines)
    cfg = EngineConfig()
    counting_stub = StubLLM(default="0.9")
    kept = denoise(triples, "Who directed Inception?", cfg, counting_stub, templates["necessity"])
    assert kept == []
    assert counting_stub.calls == []  # rule layer is provider-free

    # keep-on-failure: a failing provider must never drop clean relations
    clean = parse_triples(
        ["QF1|Inception|P10|director|QF2|Christopher Nolan", "QF2|Christopher Nolan|P11|spouse|QF3|Emma Thomas"]
    )
    assert denoise(clean, "q", cfg, FailingLLM(), templates["necessity"]) == clean
    _report(6, "keyword rule drops 100% admin relations with zero LLM calls; failures keep")


# ---------------------------------------------------------------------------
# 7. SPARQL golden files under randomized substitution
# ---------------------------------------------------------------------------


def test_07_sparql_golden_randomized():
    rng = random.Random(7)
    label_alphabet = 'abcdefghij HOP"\\-_.(),:0123456789'
    goldens = {
        name: (GOLDEN_DIR / f"{name}.rq").read_text(encoding="utf-8")
        for name in ("get_entity_id", "get_head_relations", "get_tail_relations")
    }

    def independent_escape(label):
        return label.replace("\\", "\\\\").replace('"', '\\"')

    for _ in range(20):
        label = "".join(rng.choice(label_alphabet) for _ in range(rng.randint(1, 24)))
        qid = f"Q{rng.randint(1, 10**8)}"
        rng.randint(1, 10**4)  # a relation id, drawn so the later inputs stay the same
        assert entity_id_query(label) == goldens["get_entity_id"].replace(
            "{safe_name}", independent_escape(label)
        )
        assert head_relations_query(qid) == goldens["get_head_relations"].replace("{wikidata_id}", qid)
        assert tail_relations_query(qid) == goldens["get_tail_relations"].replace("{wikidata_id}", qid)
    _report(7, "3 query templates byte-match goldens over 20 randomized inputs")


# ---------------------------------------------------------------------------
# 8. end-to-end chained fixture, bit-identical on rerun
# ---------------------------------------------------------------------------


def _chained_engine():
    store = InMemoryTripleStore(parse_triples(MOVIE_LINES))
    config = EngineConfig(alpha=1.0, theta_search=0.3, theta_necessity=0.0)
    script = list(CHAIN_SCRIPT) + [(f'Question: "{CHAINED_Q}"', "yes")]
    return Engine(
        config,
        store=store,
        llm=StubLLM(script=script, default="no"),
        embedder=HashEmbedding(dimension=64),
        reranker=MappingRerank(CHAIN_MAPPING),
    )


def test_08_chained_end_to_end_bit_identical():
    question = Question(id="q1", text=CHAINED_Q)
    first = _chained_engine().answer(question)
    assert first.track is QuestionType.CHAINED
    assert "1975-05-26" in first.text
    three_hop = [p for p in first.supporting_paths if p.depth() == 3]
    assert len(three_hop) == 1
    assert len(first.supporting_paths) == 1
    assert [h.triple.relation.label for h in three_hop[0].hops] == ["director", "spouse", "birthdate"]

    second = _chained_engine().answer(question)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(second.to_dict(), sort_keys=True)
    _report(8, "3-hop chained fixture: birthdate answered, one 3-hop path, rerun identical")


# ---------------------------------------------------------------------------
# 9. end-to-end parallel fixture with one injected error
# ---------------------------------------------------------------------------


def _parallel_engine(decompose_reply):
    store = InMemoryTripleStore(parse_triples(MOVIE_LINES))
    script = [
        (e["match_substring"], e["response"])
        for e in STUB_SCRIPT
        if "Split the response" not in e["match_substring"]
    ]
    script.append(("Split the response into atomic facts", decompose_reply))
    config = EngineConfig(theta_search=0.0, theta_necessity=0.0)
    return Engine(
        config,
        store=store,
        llm=StubLLM(script=script),
        embedder=HashEmbedding(dimension=64),
        reranker=OverlapRerank(),
    )


def test_09_parallel_end_to_end_permutation_invariant():
    lines = [
        "Inception was directed by James Cameron. | Inception",
        "Inception was released in 2010. | Inception",
    ]
    question = Question(id="q2", text=PARALLEL_Q)

    def outcomes(order):
        answer = _parallel_engine("\n".join(order)).answer(question)
        assert answer.track is QuestionType.PARALLEL
        return answer, {
            r.fact.text: (r.status, r.revised_text, tuple(t.key() for t in r.best_triples))
            for r in answer.verification
        }

    answer, forward = outcomes(lines)
    statuses = {text: entry[0] for text, entry in forward.items()}
    assert statuses["Inception was directed by James Cameron."] is VerificationStatus.REVISED
    assert statuses["Inception was released in 2010."] is VerificationStatus.VERIFIED
    assert "Christopher Nolan" in answer.text

    _, backward = outcomes(list(reversed(lines)))
    assert forward == backward
    _report(9, "parallel fixture: 1 verified + 1 revised, corrected answer, order-invariant")


# ---------------------------------------------------------------------------
# 10. metric suite and hand-computed aggregate
# ---------------------------------------------------------------------------


def test_10_metrics():
    # reflexivity and case sensitivity of character-level match
    for text in ("Paris", "1975-05-26", "", "Emma Thomas"):
        assert exact_match(text, [text]) == 1
    assert exact_match("paris", ["Paris"]) == 0

    # tau monotonicity on a graded similarity
    taus = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    values = [semantic_acc("big red car", ["red car"], AccScorer(tau=t)) for t in taus]
    assert values == sorted(values, reverse=True)

    # three-record aggregate equals the hand-computed mean
    from dualtrack.chain import Answer

    answers = {
        "a": Answer(text="alpha", track=QuestionType.CHAINED),
        "b": Answer(text="beta plus extra words here", track=QuestionType.PARALLEL),
        "c": Answer(text="unrelated", track=QuestionType.PARALLEL),
    }
    questions = [
        Question(id="a", text="qa", gold_answers=["alpha"]),
        Question(id="b", text="qb", gold_answers=["beta"]),
        Question(id="c", text="qc", gold_answers=["gamma"]),
    ]
    report = evaluate(questions, lambda q: answers[q.id], scorer=AccScorer(tau=0.2))
    # em: [1, 0, 0] -> 1/3; acc: [1, 1, 0] -> 2/3 (beta overlap 1/5 >= 0.2)
    assert report["aggregate"]["em"] == pytest.approx(1 / 3)
    assert report["aggregate"]["acc"] == pytest.approx(2 / 3)
    _report(10, "EM/ACC unit suite + hand-computed 3-record aggregate")
