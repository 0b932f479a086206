"""Parallel fact-verification track tests, end to end against the fixture
graph with scripted stubs."""

import logging
from dataclasses import replace

import pytest

from dualtrack.classifier import Question, QuestionType
from dualtrack.denoise import DenoiseConfig
from dualtrack.engine import Pipeline
from dualtrack.kg import EntityRef, InMemoryTripleStore, KGStore, parse_triples
from dualtrack.linking import LinkFailure
from dualtrack.llm import EchoLLM, StubLLM
from dualtrack.scoring import HashEmbedding, OverlapRerank, ScoringConfig
from dualtrack.verify import (
    AtomicFact,
    VerificationStatus,
    decompose,
    draft_response,
    link_entity,
    run_parallel_branch,
    verify_fact,
)

QUESTION = Question(id="q", text="Who directed Inception and when was it released?")

DRAFT = "Inception was directed by James Cameron. Inception was released in 2010."
DECOMPOSED = (
    "Inception was directed by James Cameron. | Inception\n"
    "Inception was released in 2010. | Inception"
)

BASE_SCRIPT = [
    ("in one or two short sentences", DRAFT),
    ("Split the response into atomic facts", DECOMPOSED),
    ("James Cameron", "no"),
    ("released in 2010", "yes"),
    ("Rewrite the claim so that it agrees", "Inception was directed by Christopher Nolan."),
    ("Compose the corrected final answer", "Inception was directed by Christopher Nolan and released in 2010."),
]


def _pipe(movie_store, templates, stub, theta_necessity=0.0):
    return Pipeline(
        store=movie_store,
        llm=stub,
        templates=templates,
        embedder=HashEmbedding(dimension=64),
        reranker=OverlapRerank(),
        scoring=ScoringConfig(),
        denoising=DenoiseConfig(theta_necessity=theta_necessity),
    )


# ---------------------------------------------------------------------------
# draft + decompose
# ---------------------------------------------------------------------------


def test_draft_response_scripted(templates):
    stub = StubLLM(script=BASE_SCRIPT)
    assert draft_response(QUESTION, stub, templates) == DRAFT


def test_draft_response_echo_contains_question(templates):
    assert QUESTION.text in draft_response(QUESTION, EchoLLM(), templates)


def test_draft_empty_default_yields_zero_facts(templates):
    stub = StubLLM(default="")
    draft = draft_response(QUESTION, stub, templates)
    assert draft == ""
    assert decompose(draft, stub, templates) == []


def test_decompose_two_facts(templates):
    stub = StubLLM(script=BASE_SCRIPT)
    facts = decompose(DRAFT, stub, templates)
    assert [f.origin_index for f in facts] == [0, 1]
    assert facts[0] == AtomicFact("Inception was directed by James Cameron.", "Inception", 0)
    assert facts[1].subject_surface == "Inception"


def test_decompose_single_clause(templates):
    stub = StubLLM(script=[("Split the response into atomic facts", "Nolan directed Inception. | Nolan")])
    facts = decompose("Nolan directed Inception.", stub, templates)
    assert len(facts) == 1
    assert facts[0].origin_index == 0


def test_decompose_skips_malformed_lines(templates, caplog):
    reply = "good fact here | fact\nno separator line\nsubject missing |\n| text missing"
    stub = StubLLM(script=[("Split the response into atomic facts", reply)])
    with caplog.at_level(logging.WARNING):
        facts = decompose("whatever", stub, templates)
    assert len(facts) == 1
    assert "malformed" in caplog.text


def test_decompose_skips_subject_not_in_text(templates, caplog):
    stub = StubLLM(script=[("Split the response into atomic facts", "The film was great. | Inception")])
    with caplog.at_level(logging.WARNING):
        assert decompose("whatever", stub, templates) == []


# ---------------------------------------------------------------------------
# linking + verify_fact
# ---------------------------------------------------------------------------


def test_link_entity_exact(movie_store):
    fact = AtomicFact("Inception is a film.", "Inception", 0)
    assert link_entity(fact, movie_store) == EntityRef("QF1", "Inception")


def test_link_entity_floor(movie_store):
    fact = AtomicFact("inceptoin is a film.", "inceptoin", 0)
    with pytest.raises(LinkFailure):
        link_entity(fact, movie_store, floor=0.8)


def test_verify_fact_agreeing_claim_verified(movie_store, templates):
    stub = StubLLM(script=BASE_SCRIPT)
    fact = AtomicFact("Inception was released in 2010.", "Inception", 0)
    result = verify_fact(fact, _pipe(movie_store, templates, stub))
    assert result.status is VerificationStatus.VERIFIED
    assert result.best_triples
    assert result.revised_text is None


def test_verify_fact_contradicting_claim_revised(movie_store, templates):
    stub = StubLLM(script=BASE_SCRIPT)
    fact = AtomicFact("Inception was directed by James Cameron.", "Inception", 0)
    result = verify_fact(fact, _pipe(movie_store, templates, stub))
    assert result.status is VerificationStatus.REVISED
    assert result.revised_text == "Inception was directed by Christopher Nolan."
    assert result.revised_text != fact.text
    assert result.best_triples


class _ResolvesButEmptyStore(KGStore):
    """A live endpoint can resolve an entity that has zero direct triples."""

    def resolve_entity_id(self, label):
        return EntityRef("Q1", label)

    def head_relations(self, entity):
        return []

    def tail_relations(self, entity):
        return []


def test_verify_fact_entity_without_triples_unverifiable(templates):
    fact = AtomicFact("Hermit lives alone.", "Hermit", 0)
    result = verify_fact(fact, _pipe(_ResolvesButEmptyStore(), templates, StubLLM(default="yes")))
    assert result.status is VerificationStatus.UNVERIFIABLE
    assert result.best_triples == []


def test_verify_fact_link_failure_unverifiable(movie_store, templates):
    fact = AtomicFact("Zzzxy is unknown.", "Zzzxy", 0)
    result = verify_fact(fact, _pipe(movie_store, templates, StubLLM(default="yes")))
    assert result.status is VerificationStatus.UNVERIFIABLE
    assert result.best_triples == []


def test_verify_fact_all_candidates_denoised_away(templates):
    store = InMemoryTripleStore(parse_triples(["QF1|Ghost|P1|wikidata:id|Q123|"]))
    fact = AtomicFact("Ghost has an id.", "Ghost", 0)
    stub = StubLLM(default="yes")
    result = verify_fact(fact, _pipe(store, templates, stub))
    assert result.status is VerificationStatus.UNVERIFIABLE
    assert stub.calls == []  # rule layer drops everything before any LLM use


def test_verify_fact_unchanged_rewrite_downgraded(movie_store, templates, caplog):
    fact = AtomicFact("Inception was directed by James Cameron.", "Inception", 0)
    script = [
        ("James Cameron. | Inception", "unused"),
        ("Judgment (yes/no)", "no"),
        ("Rewrite the claim so that it agrees", fact.text),  # no-op rewrite
    ]
    with caplog.at_level(logging.WARNING):
        result = verify_fact(fact, _pipe(movie_store, templates, StubLLM(script=script)))
    assert result.status is VerificationStatus.UNVERIFIABLE
    assert result.best_triples  # evidence retained even when unverifiable


def test_verify_fact_unparseable_judgment_unverifiable(movie_store, templates):
    fact = AtomicFact("Inception was released in 2010.", "Inception", 0)
    stub = StubLLM(default="cannot decide")
    result = verify_fact(fact, _pipe(movie_store, templates, stub))
    assert result.status is VerificationStatus.UNVERIFIABLE
    assert result.best_triples


def test_verify_fact_best_triples_come_from_linked_entity(movie_store, templates):
    fact = AtomicFact("Emma Thomas was born in 1975.", "Emma Thomas", 0)
    stub = StubLLM(script=[("Judgment (yes/no)", "yes")])
    result = verify_fact(fact, _pipe(movie_store, templates, stub))
    entity_triples = {t.key() for t in movie_store.head_relations(EntityRef("QF3"))} | {
        t.key() for t in movie_store.tail_relations(EntityRef("QF3"))
    }
    assert result.best_triples
    assert {t.key() for t in result.best_triples} <= entity_triples


# ---------------------------------------------------------------------------
# full branch
# ---------------------------------------------------------------------------


def test_run_parallel_branch_revises_injected_error(movie_store, templates):
    stub = StubLLM(script=BASE_SCRIPT)
    answer = run_parallel_branch(QUESTION, _pipe(movie_store, templates, stub))
    assert answer.track is QuestionType.PARALLEL
    assert answer.draft == DRAFT
    statuses = {r.fact.text: r.status for r in answer.verification}
    assert statuses["Inception was directed by James Cameron."] is VerificationStatus.REVISED
    assert statuses["Inception was released in 2010."] is VerificationStatus.VERIFIED
    assert "Christopher Nolan" in answer.text
    assert answer.flags == set()


def test_run_parallel_branch_all_verified_passes_draft_through(movie_store, templates):
    draft = "Inception was released in 2010."
    script = [
        ("in one or two short sentences", draft),
        ("Split the response into atomic facts", "Inception was released in 2010. | Inception"),
        ("Judgment (yes/no)", "yes"),
        ("Compose the corrected final answer", draft),  # passthrough synthesis
    ]
    answer = run_parallel_branch(QUESTION, _pipe(movie_store, templates, StubLLM(script=script)))
    assert [r.status for r in answer.verification] == [VerificationStatus.VERIFIED]
    assert answer.text == draft
    assert answer.flags == set()


def test_verify_fact_top_k_bounds_evidence(movie_store, templates):
    fact = AtomicFact("Inception was released in 2010.", "Inception", 0)
    stub = StubLLM(script=[("Judgment (yes/no)", "yes")])
    pipe = _pipe(movie_store, templates, stub)
    assert len(verify_fact(fact, pipe).best_triples) == 3  # default top_k on 5 candidates
    assert len(verify_fact(fact, replace(pipe, verify_top_k=2)).best_triples) == 2


def test_run_parallel_branch_synthesis_receives_revision(movie_store, templates):
    stub = StubLLM(script=BASE_SCRIPT)
    run_parallel_branch(QUESTION, _pipe(movie_store, templates, stub))
    synthesis_prompts = [c for c in stub.calls if "Compose the corrected final answer" in c]
    assert len(synthesis_prompts) == 1
    assert "Inception was directed by Christopher Nolan." in synthesis_prompts[0]
    assert DRAFT in synthesis_prompts[0]


def test_run_parallel_branch_zero_facts_flags_draft(movie_store, templates):
    stub = StubLLM(script=[("in one or two short sentences", "Some draft."), ("Split the response", "")])
    answer = run_parallel_branch(QUESTION, _pipe(movie_store, templates, stub))
    assert answer.text == "Some draft."
    assert answer.flags == {"unverified"}
    assert answer.verification == []


def test_run_parallel_branch_all_unverifiable_flags_draft(movie_store, templates):
    script = [
        ("in one or two short sentences", "Zzzxy did something."),
        ("Split the response into atomic facts", "Zzzxy did something. | Zzzxy"),
    ]
    answer = run_parallel_branch(QUESTION, _pipe(movie_store, templates, StubLLM(script=script)))
    assert answer.flags == {"unverified"}
    assert answer.text == "Zzzxy did something."
    assert [r.status for r in answer.verification] == [VerificationStatus.UNVERIFIABLE]


def test_fact_order_permutation_leaves_results_unchanged(movie_store, templates):
    def outcomes(decomposed_reply):
        script = [e for e in BASE_SCRIPT if "Split the response" not in e[0]]
        script.append(("Split the response into atomic facts", decomposed_reply))
        answer = run_parallel_branch(QUESTION, _pipe(movie_store, templates, StubLLM(script=script)))
        return {
            r.fact.text: (r.status, r.revised_text, tuple(t.key() for t in r.best_triples))
            for r in answer.verification
        }

    lines = DECOMPOSED.splitlines()
    forward = outcomes("\n".join(lines))
    reversed_ = outcomes("\n".join(reversed(lines)))
    assert forward == reversed_
