"""Parallel fact-verification track.

Draft an answer, decompose it into atomic claims, then ground and judge
every claim against the KG independently: no claim's outcome feeds
another's. Mismatched claims are rewritten from the retrieved triples; the
final answer is synthesized from the draft plus all verification results.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import repeat
from typing import TYPE_CHECKING

from .classifier import Answer, Question, QuestionType
from .denoise import denoise
from .kg import EntityRef, Triple, fetch_relations
from .linking import LinkFailure, link_surface
from .llm import LLMProvider, MemoLLM, PromptTemplate, Unparseable, ask, parse_yes_no
from .scoring import score_candidates, verbalize

if TYPE_CHECKING:
    from .engine import Pipeline

log = logging.getLogger(__name__)

# Claim threads per question. Claims mostly wait on provider round trips,
# and with case-folded subjects linked without edit distance, 8 threads read
# a lower p50 than 3 on verify_fanout, at a higher peak RSS. 8 is not yet
# shown better over 10 alternating pairs against this tree, so 3 stays. The
# bound keeps an evaluation's claim threads at most ``parallelism`` times
# this.
MAX_CLAIM_WORKERS = 3


class VerificationStatus(str, Enum):
    VERIFIED = "verified"
    REVISED = "revised"
    UNVERIFIABLE = "unverifiable"


@dataclass(frozen=True)
class AtomicFact:
    """A minimal verifiable claim extracted from a draft response."""

    text: str
    subject_surface: str
    origin_index: int


@dataclass
class VerificationResult:
    fact: AtomicFact
    status: VerificationStatus
    best_triples: list[Triple] = field(default_factory=list)
    revised_text: str | None = None

    def to_dict(self) -> dict:
        return {
            "fact": self.fact.text,
            "subject": self.fact.subject_surface,
            "origin_index": self.fact.origin_index,
            "status": self.status.value,
            "best_triples": [verbalize(t) for t in self.best_triples],
            "revised_text": self.revised_text,
        }


def draft_response(question: Question, llm: LLMProvider, templates: dict[str, PromptTemplate]) -> str:
    """Initial unverified LLM answer; this is what gets decomposed."""
    return ask(llm, templates["draft"], question=question.text)


def decompose(response: str, llm: LLMProvider, templates: dict[str, PromptTemplate]) -> list[AtomicFact]:
    """Split a response into atomic facts via the LLM.

    The prompt requests one ``fact | subject`` line per claim; malformed
    lines are skipped with a warning rather than guessed at.
    """
    if not response.strip():
        return []
    reply = ask(llm, templates["decompose"], response=response)
    facts: list[AtomicFact] = []
    for raw in reply.splitlines():
        line = raw.strip().lstrip("-*").strip()
        if not line:
            continue
        text, sep, subject = line.partition("|")
        text, subject = text.strip(), subject.strip()
        if not sep or not text or not subject:
            log.warning("skipping malformed fact line %r", raw)
            continue
        if subject not in text:
            log.warning("skipping fact whose subject %r is not in the text %r", subject, text)
            continue
        facts.append(AtomicFact(text=text, subject_surface=subject, origin_index=len(facts)))
    return facts


def _link_subject(fact: AtomicFact, pipe: Pipeline) -> EntityRef | Exception:
    """The entity the fact's subject links to, or the exception linking raised."""
    try:
        return link_surface(fact.subject_surface, pipe.store, pipe.config.link_floor)
    except Exception as exc:  # verify_fact reports a LinkFailure and raises the rest
        return exc


def verify_fact(
    fact: AtomicFact, pipe: Pipeline, subject: EntityRef | Exception | None = None
) -> VerificationResult:
    """Ground one claim: retrieve the linked entity's triples, denoise, score,
    and let the LLM judge the best ones against the claim.

    Unlinkable subjects and empty candidate sets come back unverifiable; a
    mismatch triggers the rewrite prompt. The rewrite must actually change
    the claim, otherwise the result is downgraded to unverifiable.

    ``subject`` is what linking the fact's subject gave (the entity, or the
    exception it raised) when the caller has linked it already; by default
    the subject is linked here.
    """
    if subject is None:
        subject = _link_subject(fact, pipe)
    if isinstance(subject, LinkFailure):
        log.info("fact %d unverifiable: %s", fact.origin_index, subject)
        return VerificationResult(fact=fact, status=VerificationStatus.UNVERIFIABLE)
    if isinstance(subject, Exception):
        raise subject
    entity = subject

    pool = fetch_relations(pipe.store, entity).all()
    pool = denoise(pool, fact.text, pipe.config)  # rule layer only
    if not pool:
        return VerificationResult(fact=fact, status=VerificationStatus.UNVERIFIABLE)
    scored = score_candidates(fact.text, pool, pipe.config, pipe.embedder, pipe.reranker)
    # necessity layer: denoise asks each distinct relation label once
    scored = denoise(scored, fact.text, pipe.config, pipe.llm, pipe.templates["necessity"])
    if not scored:
        return VerificationResult(fact=fact, status=VerificationStatus.UNVERIFIABLE)

    best = [c.payload for c in scored[: pipe.config.verify_top_k]]
    evidence = "\n".join(verbalize(t) for t in best)
    reply = ask(pipe.llm, pipe.templates["judge"], fact=fact.text, triples=evidence)
    try:
        matched = parse_yes_no(reply)
    except Unparseable:
        log.warning("judgment reply %r unparseable for fact %d", reply, fact.origin_index)
        return VerificationResult(fact=fact, status=VerificationStatus.UNVERIFIABLE, best_triples=best)
    if matched:
        return VerificationResult(fact=fact, status=VerificationStatus.VERIFIED, best_triples=best)

    revised = ask(pipe.llm, pipe.templates["rewrite"], fact=fact.text, triples=evidence).strip()
    if not revised or revised == fact.text:
        log.warning("rewrite produced no change for fact %d", fact.origin_index)
        return VerificationResult(fact=fact, status=VerificationStatus.UNVERIFIABLE, best_triples=best)
    return VerificationResult(
        fact=fact, status=VerificationStatus.REVISED, best_triples=best, revised_text=revised
    )


def _summarize(results: list[VerificationResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"- claim: {r.fact.text}")
        lines.append(f"  status: {r.status.value}")
        if r.revised_text:
            lines.append(f"  revision: {r.revised_text}")
        if r.best_triples:
            lines.append("  evidence: " + "; ".join(verbalize(t) for t in r.best_triples))
    return "\n".join(lines)


def run_parallel_branch(question: Question, pipe: Pipeline) -> Answer:
    """Full parallel track: draft, decompose, verify the facts, synthesize.
    If nothing was verifiable the draft comes back flagged. Each distinct
    prompt of the question reaches the LLM once (see ``MemoLLM``).

    The facts are independent, so they are verified concurrently, on up to
    ``MAX_CLAIM_WORKERS`` threads that belong to this question. Their
    subjects are linked first, in turn on this thread, because that order
    keeps the error order below: linking stops at the first fact whose
    linking raises anything but ``LinkFailure``, so no later fact starts.
    A subject equal to a label after case folding costs one listing of the
    store's labels and no edit distance. Results follow fact order. If facts
    fail, the error raised is the earliest failing fact's in fact order,
    linking errors included; facts that are already running finish first,
    and facts not yet started are cancelled."""
    pipe = replace(pipe, llm=MemoLLM(pipe.llm))
    draft = draft_response(question, pipe.llm, pipe.templates)
    facts = decompose(draft, pipe.llm, pipe.templates)
    subjects = []
    for fact in facts:
        subjects.append(_link_subject(fact, pipe))
        if isinstance(subjects[-1], Exception) and not isinstance(subjects[-1], LinkFailure):
            break  # this fact raises, so no later fact's outcome is used
    with ThreadPoolExecutor(max(1, min(len(subjects), MAX_CLAIM_WORKERS)), thread_name_prefix="claim") as pool:
        results = list(pool.map(verify_fact, facts, repeat(pipe), subjects))
    if not facts or all(r.status is VerificationStatus.UNVERIFIABLE for r in results):
        return Answer(
            text=draft,
            track=QuestionType.PARALLEL,
            verification=results,
            draft=draft,
            flags={"unverified"},
        )
    text = ask(
        pipe.llm,
        pipe.templates["synthesize"],
        question=question.text,
        draft=draft,
        verifications=_summarize(results),
    ).strip()
    return Answer(text=text, track=QuestionType.PARALLEL, verification=results, draft=draft)
