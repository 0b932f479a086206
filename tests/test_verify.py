"""Parallel fact-verification track tests, end to end against the fixture
graph with scripted stubs."""

import logging
import random
import re
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GatedEmbedding, NecessityGateLLM
from dualtrack.classifier import Question, QuestionType
from dualtrack.config import EngineConfig
from dualtrack.engine import Pipeline
from dualtrack.kg import EntityRef, InMemoryTripleStore, KGStore, parse_triples
from dualtrack.linking import LinkFailure, link_surface
from dualtrack.llm import ProviderError, StubLLM
from dualtrack.scoring import HashEmbedding, OverlapRerank
from dualtrack.transport import CLAIM_THREADS
from oracles import RELATION_WORDS, build_store, random_graph_lines, random_necessity, serial_verify
from dualtrack.verify import (
    AtomicFact,
    VerificationStatus,
    decompose,
    draft_response,
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
        config=EngineConfig(theta_necessity=theta_necessity),
    )


# ---------------------------------------------------------------------------
# draft + decompose
# ---------------------------------------------------------------------------


def test_draft_response_scripted(templates):
    stub = StubLLM(script=BASE_SCRIPT)
    assert draft_response(QUESTION, stub, templates) == DRAFT


def test_draft_response_echo_contains_question(templates):
    stub = StubLLM()
    draft_response(QUESTION, stub, templates)
    (prompt,) = stub.calls
    assert QUESTION.text in prompt


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
    assert link_surface(fact.subject_surface, movie_store) == EntityRef("QF1", "Inception")


def test_link_entity_floor(movie_store):
    fact = AtomicFact("inceptoin is a film.", "inceptoin", 0)
    with pytest.raises(LinkFailure):
        link_surface(fact.subject_surface, movie_store, floor=0.8)


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


def test_verify_fact_scores_and_shows_a_self_loop_once(templates):
    store = InMemoryTripleStore(
        parse_triples(["Q1|Alpha|P1|same as|Q1|Alpha", "Q1|Alpha|P2|located in|Q2|Beta"])
    )
    stub = StubLLM(script=[("Judgment (yes/no)", "yes")])
    result = verify_fact(AtomicFact("Alpha is the same as Alpha.", "Alpha", 0), _pipe(store, templates, stub))
    assert result.status is VerificationStatus.VERIFIED
    assert sorted(t.key() for t in result.best_triples) == ["Q1|P1|Q1", "Q1|P2|Q2"]
    (judge_prompt,) = [p for p in stub.calls if "Judgment (yes/no)" in p]
    assert judge_prompt.count("Alpha same as Alpha") == 1


def _gated_pipe(movie_store, templates, gate, embed_error=None, necessity_error=None):
    """Necessity layer on, failing only "publication date"; the embedder
    waits for a necessity prompt."""
    script = [("Relation: publication date\n", "0.1"), ("Judgment (yes/no)", "yes")]
    return Pipeline(
        store=movie_store,
        llm=NecessityGateLLM(gate, necessity_error, script=script, default="0.9"),
        templates=templates,
        embedder=GatedEmbedding(64, gate, embed_error),
        reranker=OverlapRerank(),
        config=EngineConfig(theta_necessity=0.5),
    )


def test_verify_fact_scores_while_the_necessity_prompts_are_in_flight(movie_store, templates):
    fact = AtomicFact("Inception was released in 2010.", "Inception", 0)
    result = verify_fact(fact, _gated_pipe(movie_store, templates, threading.Event()))
    assert result.status is VerificationStatus.VERIFIED
    # director, genre and cast member: the rule drops wikidata:id, necessity publication date
    assert sorted(t.relation.label for t in result.best_triples) == ["cast member", "director", "genre"]


def test_verify_fact_raises_the_scoring_error_over_a_necessity_error(movie_store, templates):
    fact = AtomicFact("Inception was released in 2010.", "Inception", 0)
    pipe = _gated_pipe(movie_store, templates, threading.Event(), ProviderError("embedder down"), ValueError("bad"))
    with pytest.raises(ProviderError, match="embedder down"):
        verify_fact(fact, pipe)


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
    assert len(verify_fact(fact, replace(pipe, config=replace(pipe.config, verify_top_k=2))).best_triples) == 2


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


# ---------------------------------------------------------------------------
# claim fan-out
# ---------------------------------------------------------------------------

FANOUT_CLAIMS = [
    ("Inception was released in 2010.", "Inception"),
    ("Christopher Nolan is married to Emma Thomas.", "Christopher Nolan"),
    ("Emma Thomas was born in 1975.", "Emma Thomas"),
]
FANOUT_TEXTS = [text for text, _ in FANOUT_CLAIMS]


# as many claims as the benchmark's largest decompositions, over every
# fixture entity
WIDE_CLAIMS = FANOUT_CLAIMS + [
    ("Leonardo DiCaprio starred in Inception.", "Leonardo DiCaprio"),
    ("Inception is a science fiction film.", "Inception"),
    ("Christopher Nolan directed Inception.", "Christopher Nolan"),
    ("Emma Thomas is married to Christopher Nolan.", "Emma Thomas"),
    ("science fiction film is the genre of Inception.", "science fiction film"),
]


class _JudgeHookLLM(StubLLM):
    """Calls ``hook(claim)`` on the claim's thread before answering its judge
    prompt, so a test can order or synchronise the claims."""

    def __init__(self, hook, claims=FANOUT_CLAIMS):
        super().__init__(
            script=[
                ("in one or two short sentences", "A draft."),
                ("Split the response into atomic facts", "\n".join(f"{t} | {s}" for t, s in claims)),
                ("Judgment (yes/no)", "yes"),
                ("Compose the corrected final answer", "A final answer."),
            ]
        )
        self.hook = hook

    def complete(self, request):
        if "Judgment (yes/no)" in request.prompt:
            claim = request.prompt.split("Claim: ", 1)[1].split("\n", 1)[0]
            self.hook(claim)
        return super().complete(request)


def test_run_parallel_branch_judges_claims_concurrently(movie_store, templates):
    barrier = threading.Barrier(len(FANOUT_CLAIMS), timeout=2)
    stub = _JudgeHookLLM(lambda claim: barrier.wait())
    answer = run_parallel_branch(QUESTION, _pipe(movie_store, templates, stub))
    assert "error" not in answer.flags
    assert [r.status for r in answer.verification] == [VerificationStatus.VERIFIED] * len(FANOUT_CLAIMS)


def test_run_parallel_branch_judges_eight_claims_concurrently(movie_store, templates):
    barrier = threading.Barrier(len(WIDE_CLAIMS), timeout=2)
    stub = _JudgeHookLLM(lambda claim: barrier.wait(), claims=WIDE_CLAIMS)
    answer = run_parallel_branch(QUESTION, _pipe(movie_store, templates, stub))
    assert [r.fact.text for r in answer.verification] == [text for text, _ in WIDE_CLAIMS]
    assert [r.status for r in answer.verification] == [VerificationStatus.VERIFIED] * len(WIDE_CLAIMS)


def test_consecutive_questions_share_the_long_lived_claim_threads(movie_store, templates):
    judged_on = set()
    stub = _JudgeHookLLM(lambda claim: judged_on.add(threading.current_thread()))
    for _ in range(CLAIM_THREADS + 1):
        run_parallel_branch(QUESTION, _pipe(movie_store, templates, stub))
    # more questions than claim threads, and every thread they used still runs
    assert len(judged_on) <= CLAIM_THREADS
    assert judged_on <= {t for t in threading.enumerate() if t.name.startswith("claim")}


def test_run_parallel_branch_keeps_fact_order_when_claims_finish_in_reverse(movie_store, templates):
    judged = []
    turn = {claim: threading.Event() for claim in FANOUT_TEXTS}
    turn[FANOUT_TEXTS[-1]].set()

    def last_claim_first(claim):
        if not turn[claim].wait(timeout=2):
            raise TimeoutError(f"{claim!r} waited for a later claim that never ran")
        judged.append(claim)
        index = FANOUT_TEXTS.index(claim)
        if index:
            turn[FANOUT_TEXTS[index - 1]].set()

    answer = run_parallel_branch(QUESTION, _pipe(movie_store, templates, _JudgeHookLLM(last_claim_first)))
    assert judged == FANOUT_TEXTS[::-1]
    assert [r.fact.text for r in answer.verification] == FANOUT_TEXTS
    assert [r.fact.origin_index for r in answer.verification] == [0, 1, 2]


def test_run_parallel_branch_raises_the_first_claims_error(movie_store, templates):
    second_failed = threading.Event()

    def two_outages(claim):
        if claim == FANOUT_TEXTS[0]:
            second_failed.wait(timeout=2)
            raise ProviderError("outage on the first claim")
        if claim == FANOUT_TEXTS[1]:
            second_failed.set()
            raise ProviderError("outage on the second claim")

    with pytest.raises(ProviderError, match="first claim"):
        run_parallel_branch(QUESTION, _pipe(movie_store, templates, _JudgeHookLLM(two_outages)))
    assert second_failed.is_set()  # the later claim did fail, and failed first


class _RecordingStore(KGStore):
    """Delegates to ``inner`` and records each call with the calling thread;
    looking up a label in ``fail`` raises ``ProviderError``."""

    def __init__(self, inner, fail=()):
        self.inner = inner
        self.fail = set(fail)
        self.calls = []

    def resolve_entity_id(self, label):
        self.calls.append(("resolve", label, threading.current_thread()))
        if label in self.fail:
            raise ProviderError(f"lookup of {label!r} failed")
        return self.inner.resolve_entity_id(label)

    def head_relations(self, entity):
        self.calls.append(("head", entity.id, threading.current_thread()))
        return self.inner.head_relations(entity)

    def tail_relations(self, entity):
        self.calls.append(("tail", entity.id, threading.current_thread()))
        return self.inner.tail_relations(entity)

    def entities(self):
        self.calls.append(("entities", None, threading.current_thread()))
        return self.inner.entities()


def test_run_parallel_branch_links_each_subject_on_its_claims_thread(movie_store, templates):
    store = _RecordingStore(movie_store)
    stub = _JudgeHookLLM(lambda claim: None)
    answer = run_parallel_branch(QUESTION, _pipe(store, templates, stub))
    assert [r.status for r in answer.verification] == [VerificationStatus.VERIFIED] * len(FANOUT_CLAIMS)
    for _, subject in FANOUT_CLAIMS:
        entity_id = movie_store.resolve_entity_id(subject).id
        (resolver,) = [t for name, arg, t in store.calls if name == "resolve" and arg == subject]
        (head,) = [t for name, arg, t in store.calls if name == "head" and arg == entity_id]
        (tail,) = [t for name, arg, t in store.calls if name == "tail" and arg == entity_id]
        assert resolver.name.startswith("claim")
        assert head is resolver  # the claim fetches head itself
        assert tail.name.startswith("leaf")  # and its tail on the leaf executor, at the same time


def test_run_parallel_branch_raises_an_earlier_claims_error_over_a_later_link_error(movie_store, templates):
    def first_claim_down(claim):
        if claim == FANOUT_TEXTS[0]:
            raise ProviderError("outage on the first claim")

    store = _RecordingStore(movie_store, fail={FANOUT_CLAIMS[1][1]})
    with pytest.raises(ProviderError, match="first claim"):
        run_parallel_branch(QUESTION, _pipe(store, templates, _JudgeHookLLM(first_claim_down)))


def test_run_parallel_branch_raises_a_link_error_on_its_claims_turn(movie_store, templates):
    store = _RecordingStore(movie_store, fail={FANOUT_CLAIMS[1][1]})
    with pytest.raises(ProviderError, match="Christopher Nolan"):
        run_parallel_branch(QUESTION, _pipe(store, templates, _JudgeHookLLM(lambda claim: None)))


# ---------------------------------------------------------------------------
# the parallel track against its serial oracle
# ---------------------------------------------------------------------------
#
# A fault names one kind of call and what it is about: ("resolve", surface),
# ("head" or "tail", entity id) and ("entities", None) for the store;
# ("draft" / "decompose" / "synthesize", None) for those prompts; ("judge" /
# "rewrite" / "embed" / "rerank" / "necessity", relation word) for the calls
# about a claim that holds the word. Every call it names raises, whichever
# thread makes it and in whatever order, so the serial and the concurrent
# run see the same failures.


class _FaultyStore(KGStore):
    def __init__(self, inner, fault):
        self.inner = inner
        self.fault = fault

    def _check(self, kind, subject):
        if self.fault == (kind, subject):
            raise ProviderError(f"{kind} of {subject} failed")

    def resolve_entity_id(self, label):
        self._check("resolve", label)
        return self.inner.resolve_entity_id(label)

    def head_relations(self, entity):
        self._check("head", entity.id)
        return self.inner.head_relations(entity)

    def tail_relations(self, entity):
        self._check("tail", entity.id)
        return self.inner.tail_relations(entity)

    def entities(self):
        self._check("entities", None)
        return self.inner.entities()


def _about(fault, kind, text):
    if fault[0] == kind and (fault[1] is None or fault[1] in text.split()):
        raise ProviderError(f"{kind} about {text!r} failed")


class _FaultyEmbedding(HashEmbedding):
    def __init__(self, fault):
        super().__init__(48)
        self.fault = fault

    def embed(self, texts):
        _about(self.fault, "embed", texts[0])
        return super().embed(texts)


class _FaultyRerank(OverlapRerank):
    def __init__(self, fault):
        self.fault = fault

    def rerank(self, query, texts):
        _about(self.fault, "rerank", query)
        return super().rerank(query, texts)


def _section(prompt, name):
    """The text after ``name:`` in a prompt, up to the next blank line."""
    return re.search(rf"{name}:\s(.*?)\n\n", prompt, re.S).group(1)


class _TrackLLM(StubLLM):
    """Answers every prompt of the parallel track from its content: a claim
    is supported when its words, less the full stop, are an evidence line;
    a claim with the ``unsure`` word gets an unparseable judgment, one in
    ``echoed`` a rewrite that changes nothing, any other the first line of
    its evidence. Synthesis answers with the verification results."""

    def __init__(self, decomposition, necessity, unsure, echoed, fault):
        super().__init__()
        self.decomposition = decomposition
        self.necessity = necessity
        self.unsure = unsure
        self.echoed = echoed
        self.fault = fault

    def complete(self, request):
        return replace(super().complete(request), text=self._reply(request.prompt))

    def _reply(self, prompt):
        if "in one or two short sentences" in prompt:
            _about(self.fault, "draft", "")
            return "A draft."
        if "Split the response into atomic facts" in prompt:
            _about(self.fault, "decompose", "")
            return self.decomposition
        if "Rate how necessary" in prompt:
            word = re.search(r"Relation: (.*)\n", prompt).group(1)
            _about(self.fault, "necessity", word)
            return str(self.necessity.get(word, 1.0))
        if "Compose the corrected final answer" in prompt:
            _about(self.fault, "synthesize", "")
            return _section(prompt, "Verification results")
        claim, evidence = _section(prompt, "Claim"), _section(prompt, "Triples").splitlines()
        if "Judgment (yes/no)" in prompt:
            _about(self.fault, "judge", claim)
            if self.unsure in claim.split():
                return "perhaps"
            return "yes" if claim.rstrip(".") in evidence else "no"
        _about(self.fault, "rewrite", claim)
        return claim if claim in self.echoed else evidence[0] + "."


def _random_claims(rng, lines, node_count):
    """0-8 ``(text, subject)`` claims: true ones read off a triple, false
    ones drawn at random, and some about a misspelt or unknown subject."""
    claims = []
    for _ in range(rng.randint(0, 8)):
        node = rng.randrange(node_count) + 1
        subject = rng.choice([f"node{node}"] * 6 + [f"nod{node}", "zqxw"])
        heads = [line.split("|") for line in lines if line.startswith(f"Q{node}|")]
        if heads and rng.random() < 0.5:
            _, _, _, word, obj_field, obj_label = rng.choice(heads)
            text = f"{subject} {word} {obj_label or obj_field}."
        else:
            text = f"{subject} {rng.choice(RELATION_WORDS)} node{rng.randrange(node_count) + 1}."
        claims.append((text, subject))
    return claims


def _random_fault(rng, claims, node_count):
    if not claims or rng.random() < 0.25:
        return (None, None)
    text, subject = rng.choice(claims)
    word = text.split()[1]
    return rng.choice(
        [
            ("resolve", subject),
            ("head", f"Q{rng.randrange(node_count) + 1}"),
            ("tail", f"Q{rng.randrange(node_count) + 1}"),
            ("entities", None),
            (rng.choice(["draft", "decompose", "synthesize"]), None),
        ]
        + [(kind, word) for kind in ("judge", "rewrite", "embed", "rerank", "necessity")] * 2
    )


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1))
def test_run_parallel_branch_matches_the_serial_oracle(templates, seed):
    rng = random.Random(seed)
    lines, node_count = random_graph_lines(rng, max_nodes=12)
    claims = _random_claims(rng, lines, node_count)
    fault = _random_fault(rng, claims, node_count)
    llm = _TrackLLM(
        decomposition="\n".join(f"{text} | {subject}" for text, subject in claims),
        necessity=random_necessity(rng),
        unsure=rng.choice(RELATION_WORDS),
        echoed={text for text, _ in claims if rng.random() < 0.2},
        fault=fault,
    )
    config = EngineConfig(
        dimension=48, top_n=rng.choice([2, 4, 50]), verify_top_k=rng.choice([1, 3]), theta_necessity=0.5
    )
    store = _FaultyStore(build_store(lines), fault)

    def pipeline():
        return Pipeline(
            store=store,
            llm=llm,
            templates=templates,
            embedder=_FaultyEmbedding(fault),
            reranker=_FaultyRerank(fault),
            config=config,
        )

    expected, error = serial_verify(QUESTION, pipeline())
    pipe = pipeline()
    for _ in ("cold", "warm"):  # the second run reads what the first left in the pipeline's caches
        if error is None:
            assert run_parallel_branch(QUESTION, pipe).to_dict() == expected.to_dict()
        else:
            with pytest.raises(type(error)) as raised:
                run_parallel_branch(QUESTION, pipe)
            assert str(raised.value) == str(error)
