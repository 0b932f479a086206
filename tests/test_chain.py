"""Chained reasoning track: path scoring, expansion pruning, early stopping,
and the full search against a brute-force enumeration oracle."""

import os
import random
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MOVIE_LINES, NECESSITY, GatedEmbedding, MappingRerank, NecessityGateLLM
from dualtrack.chain import (
    HEAD,
    Hop,
    ReasoningPath,
    check_sufficiency,
    expand,
    extract_central_entity,
    path_score,
    run_chain_branch,
    search_paths,
)
from dualtrack.classifier import Question, QuestionType
from dualtrack.config import EngineConfig
from dualtrack.engine import Engine, Pipeline
from dualtrack.kg import EntityRef, InMemoryTripleStore, parse_triples
from dualtrack.linking import LinkFailure
from dualtrack.llm import ProviderError, StubLLM
from dualtrack.scoring import HashEmbedding, OverlapRerank
from oracles import (
    build_store,
    enumerate_paths,
    necessity_script,
    random_graph_lines,
    random_necessity,
    random_question,
)
from test_cli import STUB_SCRIPT

ROOT = Path(__file__).resolve().parent.parent

QUESTION = Question(id="q", text="When was the wife of the Inception director born?")

# alpha=1.0 makes combined == rerank, so these mapped values are the scores
CHAIN_MAPPING = {
    "Inception director Christopher Nolan": 0.95,
    "Christopher Nolan spouse Emma Thomas": 0.9,
    "Emma Thomas birthdate 1975-05-26": 0.85,
    "Inception publication date 2010-07-16": 0.2,
    "Inception genre science fiction film": 0.2,
    "Leonardo DiCaprio cast member Inception": 0.2,
}

CHAIN_SCRIPT = [
    ("Name the single core entity", "Inception"),
    ("(Emma Thomas, birthdate, 1975-05-26)", "yes"),
    (
        "Answer the question using only the facts in the reasoning paths",
        "Emma Thomas was born on 1975-05-26.",
    ),
]


def _pipe(store, templates, stub=None, mapping=CHAIN_MAPPING, theta=0.3):
    return Pipeline(
        store=store,
        llm=stub if stub is not None else StubLLM(script=CHAIN_SCRIPT, default="no"),
        templates=templates,
        embedder=HashEmbedding(dimension=64),
        reranker=MappingRerank(mapping),
        config=EngineConfig(alpha=1.0, theta_search=theta, theta_necessity=0.0),
    )


def _expand_pipe(templates, store, reranker, stub=None, **search):
    """Pipeline for single expansion steps: 32-dim hash embeddings, fusion on
    the rerank score alone, necessity layer off, ``search`` keys set."""
    return Pipeline(
        store=store,
        llm=stub if stub is not None else StubLLM(default="no"),
        templates=templates,
        embedder=HashEmbedding(32),
        reranker=reranker,
        config=EngineConfig(alpha=1.0, theta_necessity=0.0, **search),
    )


def _hop(score, subject="Q1", relation="P1", obj="Q2"):
    triple = parse_triples([f"{subject}|s|{relation}|r|{obj}|o"])[0]
    return Hop(triple=triple, direction=HEAD, score=score)


# ---------------------------------------------------------------------------
# path score
# ---------------------------------------------------------------------------


def test_path_score_single_hop():
    path = ReasoningPath(origin=EntityRef("Q1"), hops=(_hop(0.9),))
    assert path_score(path) == pytest.approx(0.9)


def test_path_score_product():
    path = ReasoningPath(origin=EntityRef("Q1"), hops=(_hop(0.9), _hop(0.8, "Q2", "P2", "Q3")))
    assert path_score(path) == pytest.approx(0.72)


def test_path_score_identity_element():
    path = ReasoningPath(origin=EntityRef("Q1"), hops=(_hop(1.0), _hop(1.0, "Q2", "P2", "Q3")))
    assert path_score(path) == 1.0


def test_path_score_extension_multiplies():
    rng = random.Random(3)
    path = ReasoningPath(origin=EntityRef("Q1"))
    for i in range(6):
        score = rng.random()
        extended = path.extend(_hop(score, f"Q{i + 1}", f"P{i}", f"Q{i + 2}"))
        assert abs(path_score(extended) - path_score(path) * score) <= 1e-9
        path = extended


# ---------------------------------------------------------------------------
# central entity extraction
# ---------------------------------------------------------------------------


def test_extract_central_entity(movie_store, templates):
    stub = StubLLM(script=[("Name the single core entity", "Inception")])
    assert extract_central_entity(QUESTION, _pipe(movie_store, templates, stub)).id == "QF1"


def test_extract_strips_quotes_and_blank_lines(movie_store, templates):
    stub = StubLLM(script=[("Name the single core entity", '\n  "Inception"  \n')])
    assert extract_central_entity(QUESTION, _pipe(movie_store, templates, stub)).id == "QF1"


def test_extract_unknown_surface_raises(movie_store, templates):
    stub = StubLLM(script=[("Name the single core entity", "Zzzxy")])
    with pytest.raises(LinkFailure):
        extract_central_entity(QUESTION, _pipe(movie_store, templates, stub))


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def _star_store(labels):
    lines = [f"Q1|hub|P{i}|{label}|Q{i + 2}|spoke{i}" for i, label in enumerate(labels)]
    return InMemoryTripleStore(parse_triples(lines))


def test_expand_threshold_and_scores(templates):
    # candidate scores {0.9, 0.7, 0.4, 0.2} with theta 0.5 leave 2 survivors
    labels = ["alpha", "beta", "gamma", "delta"]
    store = _star_store(labels)
    mapping = {f"hub {label} spoke{i}": s for i, (label, s) in enumerate(zip(labels, [0.9, 0.7, 0.4, 0.2]))}
    path = ReasoningPath(origin=EntityRef("Q1", "hub"))
    pipe = _expand_pipe(templates, store, MappingRerank(mapping), theta_search=0.5, w_max=5)
    children = expand(path, QUESTION, pipe)
    assert pipe.llm.calls == []  # necessity off and no crowd to select from
    assert len(children) == 2
    assert [c.hops[-1].triple.relation.label for c in children] == ["alpha", "beta"]
    assert [c.hops[-1].score for c in children] == pytest.approx([0.9, 0.7])
    assert all(c.hops[-1].score >= 0.5 for c in children)


def test_expand_all_below_threshold_dead_end(templates):
    store = _star_store(["alpha", "beta"])
    pipe = _expand_pipe(templates, store, MappingRerank({}, default=0.1), theta_search=0.9)
    children = expand(ReasoningPath(origin=EntityRef("Q1", "hub")), QUESTION, pipe)
    assert children == []


def test_expand_width_cut(templates):
    labels = [f"rel{c}" for c in "abcdefgh"]
    store = _star_store(labels)
    mapping = {f"hub {label} spoke{i}": 0.5 + i / 100 for i, label in enumerate(labels)}
    pipe = _expand_pipe(templates, store, MappingRerank(mapping), theta_search=0.1, w_max=3)
    children = expand(ReasoningPath(origin=EntityRef("Q1", "hub")), QUESTION, pipe)
    assert len(children) == 3
    assert [c.hops[-1].triple.relation.label for c in children] == ["relh", "relg", "relf"]


def test_expand_llm_selection_picks_named_relations(templates):
    greek = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa"]
    store = _star_store(greek)
    stub = StubLLM(script=[("Select at most three relations", "epsilon, theta, beta")], default="no")
    search = dict(theta_search=0.1, w_max=10, llm_select_trigger=5)
    pipe = _expand_pipe(templates, store, MappingRerank({}, default=0.8), stub, **search)
    children = expand(ReasoningPath(origin=EntityRef("Q1", "hub")), QUESTION, pipe)
    assert sorted(c.hops[-1].triple.relation.label for c in children) == ["beta", "epsilon", "theta"]


def test_expand_llm_selection_fallback_keeps_top_three(templates):
    greek = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    store = _star_store(greek)
    mapping = {f"hub {label} spoke{i}": 0.5 + i / 100 for i, label in enumerate(greek)}
    stub = StubLLM(script=[("Select at most three relations", "none of those words")], default="no")
    search = dict(theta_search=0.1, w_max=6, llm_select_trigger=5)
    pipe = _expand_pipe(templates, store, MappingRerank(mapping), stub, **search)
    children = expand(ReasoningPath(origin=EntityRef("Q1", "hub")), QUESTION, pipe)
    assert [c.hops[-1].triple.relation.label for c in children] == ["zeta", "epsilon", "delta"]


def test_expand_never_revisits_entities(templates):
    store = InMemoryTripleStore(
        parse_triples(
            [
                "Q1|a|P1|knows|Q2|b",
                "Q2|b|P1|knows|Q1|a",
                "Q2|b|P2|meets|Q3|c",
            ]
        )
    )
    path = ReasoningPath(origin=EntityRef("Q1", "a"))
    pipe = _expand_pipe(templates, store, MappingRerank({}, default=0.5), theta_search=0.0)
    children = expand(path, QUESTION, pipe)
    # two distinct triples reach Q2: the head edge and the inverse of Q2->Q1
    assert len(children) == 2
    assert all(isinstance(c.tip(), EntityRef) and c.tip().id == "Q2" for c in children)
    for child in children:
        grandchildren = expand(child, QUESTION, pipe)
        # from Q2 both edges back to the visited Q1 are barred
        assert len(grandchildren) == 1
        assert grandchildren[0].hops[-1].triple.object.id == "Q3"


def test_expand_guards_on_literal_tip_and_depth(movie_store, templates):
    literal_tip = ReasoningPath(origin=EntityRef("QF3", "Emma Thomas")).extend(
        Hop(triple=movie_store.head_relations(EntityRef("QF3"))[0], direction=HEAD, score=1.0)
    )
    pipe = _expand_pipe(templates, movie_store, MappingRerank({}, default=0.5), d_max=3)
    assert expand(literal_tip, QUESTION, pipe) == []

    deep = ReasoningPath(origin=EntityRef("QF1", "Inception"))
    for i in range(3):
        deep = deep.extend(_hop(0.5, f"Q{i + 1}", f"P{i}", f"Q{i + 2}"))
    assert expand(deep, QUESTION, pipe) == []
    assert pipe.llm.calls == []


def test_expand_applies_rule_denoise(movie_store, templates):
    pipe = _expand_pipe(templates, movie_store, MappingRerank(CHAIN_MAPPING, default=0.5), theta_search=0.0)
    children = expand(ReasoningPath(origin=EntityRef("QF1", "Inception")), QUESTION, pipe)
    labels = [c.hops[-1].triple.relation.label for c in children]
    assert "wikidata:id" not in labels
    assert len(children) == 4


def _gated_pipe(templates, store, gate, embed_error=None, necessity_error=None):
    """Necessity layer on; the embedder waits for a necessity prompt."""
    stub = NecessityGateLLM(gate, necessity_error, script=[(NECESSITY, "0.9")], default="no")
    return Pipeline(
        store=store,
        llm=stub,
        templates=templates,
        embedder=GatedEmbedding(32, gate, embed_error),
        reranker=MappingRerank({}, default=0.5),
        config=EngineConfig(alpha=1.0, theta_search=0.0, theta_necessity=0.5),
    )


def test_expand_scores_while_the_necessity_prompts_are_in_flight(templates):
    pipe = _gated_pipe(templates, _star_store(["alpha", "beta"]), threading.Event())
    children = expand(ReasoningPath(origin=EntityRef("Q1", "hub")), QUESTION, pipe)
    assert sorted(c.hops[-1].triple.relation.label for c in children) == ["alpha", "beta"]


def test_expand_raises_the_scoring_error_over_a_necessity_error(templates):
    store = _star_store(["alpha", "beta"])
    pipe = _gated_pipe(templates, store, threading.Event(), ProviderError("embedder down"), ValueError("bad"))
    with pytest.raises(ProviderError, match="embedder down"):
        expand(ReasoningPath(origin=EntityRef("Q1", "hub")), QUESTION, pipe)


# ---------------------------------------------------------------------------
# sufficiency
# ---------------------------------------------------------------------------


def test_check_sufficiency_judgments(movie_store, templates):
    path = ReasoningPath(origin=EntityRef("QF1", "Inception"))
    yes = StubLLM(script=[("Sufficient (yes/no)", "yes")])
    no = StubLLM(script=[("Sufficient (yes/no)", "no")])
    mute = StubLLM(default="unclear")
    assert check_sufficiency(path, QUESTION, _pipe(movie_store, templates, yes)) is True
    assert check_sufficiency(path, QUESTION, _pipe(movie_store, templates, no)) is False
    assert check_sufficiency(path, QUESTION, _pipe(movie_store, templates, mute)) is False


# ---------------------------------------------------------------------------
# search + full branch
# ---------------------------------------------------------------------------


def test_search_stops_early_on_sufficient_path(movie_store, templates):
    completed, stopped = search_paths(EntityRef("QF1", "Inception"), QUESTION, _pipe(movie_store, templates))
    assert stopped is True
    assert len(completed) == 1
    assert completed[0].depth() == 3
    assert [h.triple.relation.label for h in completed[0].hops] == ["director", "spouse", "birthdate"]


def test_search_without_sufficiency_collects_maximal_paths(movie_store, templates):
    pipe = _pipe(movie_store, templates, stub=StubLLM(default="no"))
    completed, stopped = search_paths(EntityRef("QF1", "Inception"), QUESTION, pipe)
    assert stopped is False
    # the only surviving depth-1 child is 'director' (others are pruned at
    # theta 0.3), so the single maximal path is the full chain
    assert [p.signature() for p in completed] == [
        (
            ("QF1|PF1|QF2", HEAD),
            ("QF2|PF2|QF3", HEAD),
            ("QF3|PF3|1975-05-26", HEAD),
        )
    ]


class _CountingStore(InMemoryTripleStore):
    def __init__(self, triples):
        super().__init__(triples)
        self.head_calls = 0

    def head_relations(self, entity):
        self.head_calls += 1
        return super().head_relations(entity)


def test_search_respects_expansion_budget(templates):
    lines = [f"Q1|hub|P{i}|knows|Q{i + 2}|spoke{i}" for i in range(6)]
    lines += [f"Q{i + 2}|spoke{i}|P9|meets|Q50|sink" for i in range(6)]
    store = _CountingStore(parse_triples(lines))
    search = dict(theta_search=0.0, w_max=6, max_expansions=2)
    pipe = _expand_pipe(templates, store, MappingRerank({}, default=0.5), **search)
    completed, stopped = search_paths(EntityRef("Q1", "hub"), QUESTION, pipe)
    assert store.head_calls == 2
    assert stopped is False
    assert completed  # truncated paths still reported


def test_run_chain_branch_three_hop_fixture(movie_store, templates):
    answer = run_chain_branch(QUESTION, _pipe(movie_store, templates))
    assert answer.track is QuestionType.CHAINED
    assert "1975" in answer.text
    assert answer.flags == set()
    three_hop = [p for p in answer.supporting_paths if p.depth() == 3]
    assert len(three_hop) == 1
    assert len(answer.supporting_paths) == 1


def test_run_chain_branch_depth_one_insufficient(movie_store, templates):
    pipe = _pipe(movie_store, templates)
    pipe = replace(pipe, config=replace(pipe.config, d_max=1))
    answer = run_chain_branch(QUESTION, pipe)
    assert "insufficient" in answer.flags
    assert all(p.depth() <= 1 for p in answer.supporting_paths)
    assert answer.supporting_paths  # partial evidence still cited


def test_run_chain_branch_entity_without_relations(templates):
    store = InMemoryTripleStore(parse_triples(["QF7|Other|P1|knows|QF8|Body"]))
    stub = StubLLM(script=[("Name the single core entity", "Body")], default="no")
    answer = run_chain_branch(QUESTION, _pipe(store, templates, stub=stub))
    assert answer.flags == {"insufficient"}
    assert answer.supporting_paths == []
    assert answer.text == ""


def test_run_chain_branch_no_central_entity(movie_store, templates):
    stub = StubLLM(script=[("Name the single core entity", "Zzzxy")], default="no")
    answer = run_chain_branch(QUESTION, _pipe(movie_store, templates, stub=stub))
    assert "no_central_entity" in answer.flags
    assert "insufficient" in answer.flags


def test_generation_prompt_grounded_in_supporting_paths(movie_store, templates):
    stub = StubLLM(script=CHAIN_SCRIPT, default="no")
    answer = run_chain_branch(QUESTION, _pipe(movie_store, templates, stub=stub))
    generation_prompts = [c for c in stub.calls if "using only the facts" in c]
    assert len(generation_prompts) == 1
    for path in answer.supporting_paths:
        assert path.verbalize() in generation_prompts[0]
    # nothing outside the supporting paths is named in the context block
    context = generation_prompts[0].split("Reasoning paths:")[1]
    assert "Leonardo DiCaprio" not in context
    assert "science fiction" not in context


def test_answer_to_dict_is_json_serializable(movie_store, templates):
    import json

    answer = run_chain_branch(QUESTION, _pipe(movie_store, templates))
    encoded = json.dumps(answer.to_dict())
    assert "1975" in encoded


def test_chain_sends_each_necessity_prompt_once(templates):
    # three "nominated for" triples at the origin share one necessity prompt
    lines = MOVIE_LINES + [f"QF1|Inception|PF9|nominated for|QF{i}|award {i}" for i in (10, 11, 12)]
    stub = StubLLM(script=CHAIN_SCRIPT + [(NECESSITY, "0.9")], default="no")
    pipe = _pipe(InMemoryTripleStore(parse_triples(lines)), templates, stub=stub)
    pipe = replace(pipe, config=replace(pipe.config, theta_necessity=0.5))
    answer = run_chain_branch(QUESTION, pipe)
    necessity = [c for c in stub.calls if NECESSITY in c]
    # director, publication date, genre, cast member, nominated for, spouse, birthdate
    assert len(necessity) == len(set(necessity)) == 7
    assert answer.text == "Emma Thomas was born on 1975-05-26."
    assert [p.verbalize() for p in answer.supporting_paths] == [
        "(Inception, director, Christopher Nolan) -> (Christopher Nolan, spouse, Emma Thomas)"
        " -> (Emma Thomas, birthdate, 1975-05-26)"
    ]
    assert answer.flags == set()


def test_engine_memo_lives_for_the_engine(movie_store):
    script = [(e["match_substring"], e["response"]) for e in STUB_SCRIPT]
    stub = StubLLM(script=script)
    engine = Engine(EngineConfig(theta_search=0.0), store=movie_store, llm=stub)
    first = engine.answer(QUESTION).to_dict()
    once = list(stub.calls)
    assert any(NECESSITY in c for c in once)
    assert engine.answer(QUESTION).to_dict() == first
    assert stub.calls == once


# ---------------------------------------------------------------------------
# search key validation
# ---------------------------------------------------------------------------


def test_search_config_validation():
    for kwargs in (
        {"d_max": 0},
        {"w_max": 0},
        {"theta_search": 1.2},
        {"llm_select_trigger": 0},
        {"top_k_paths": 0},
        {"max_expansions": 0},
    ):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            EngineConfig(**kwargs)


# ---------------------------------------------------------------------------
# oracle equivalence (spot check; the full 100-graph suite is acceptance)
# ---------------------------------------------------------------------------


def _check_search_against_oracle(templates, rng, theta_necessity):
    """Draws a graph, a question and a necessity map from ``rng``; the
    search's maximal paths must equal the enumeration oracle's."""
    lines, n = random_graph_lines(rng, max_nodes=18)
    store = build_store(lines)
    question = Question(id="r", text=random_question(rng, n))
    necessity = random_necessity(rng)
    config = EngineConfig(
        alpha=0.5, dimension=48, d_max=3, w_max=3, theta_search=0.12, llm_select_trigger=10_000,
        theta_necessity=theta_necessity,
    )
    embedder = HashEmbedding(dimension=48)
    reranker = OverlapRerank()
    pipe = Pipeline(
        store=store,
        llm=StubLLM(script=necessity_script(necessity), default="no"),
        templates=templates,
        embedder=embedder,
        reranker=reranker,
        config=config,
    )
    origin = EntityRef("Q1", "node1")
    completed, _ = search_paths(origin, question, pipe)
    expected = enumerate_paths(
        store,
        origin,
        question.text,
        d_max=3,
        w_max=3,
        theta=0.12,
        scoring=config,
        embedder=embedder,
        reranker=reranker,
        k_invalid=frozenset(config.k_invalid),
        necessity=necessity,
        theta_necessity=theta_necessity,
    )
    assert {p.signature() for p in completed} == expected


def test_search_matches_enumeration_oracle_spot(templates):
    rng = random.Random(42)
    for _ in range(5):
        _check_search_against_oracle(templates, rng, theta_necessity=0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_search_with_necessity_matches_enumeration_oracle(templates, seed):
    _check_search_against_oracle(templates, random.Random(seed), theta_necessity=0.5)


def test_stress_script_matches_the_oracle():
    # the quality gate of scripts/stress_search.py: 200 graphs of up to 30 nodes, seed 0
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stress_search.py"), "200", "30", "0"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "mismatches:    0" in result.stdout.splitlines()
