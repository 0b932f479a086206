"""Parallel fact-verification track.

Draft an answer, decompose it into atomic claims, then ground and judge
every claim against the KG independently: no claim's outcome feeds
another's. Mismatched claims are rewritten from the retrieved triples; the
final answer is synthesized from the draft plus all verification results.
"""

from __future__ import annotations

import logging
from concurrent.futures import wait
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .classifier import Answer, Question, QuestionType
from .denoise import denoise
from .kg import Triple
from .linking import LinkFailure, link_surface
from .llm import LLMProvider, PromptTemplate, Unparseable, ask, parse_yes_no
from .scoring import score_candidates, start_scoring
from .transport import CLAIMS

if TYPE_CHECKING:
    from .engine import Pipeline

log = logging.getLogger(__name__)


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
            "best_triples": [t.text for t in self.best_triples],
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


def verify_fact(fact: AtomicFact, pipe: Pipeline) -> VerificationResult:
    """Ground one claim: link its subject, retrieve the entity's triples,
    ground them, and let the LLM judge the best ones against the claim.

    Grounding runs the keyword rule (``denoise`` with no LLM), starts the
    rule-kept triples' scoring requests (``scoring.start_scoring``), asks
    necessity (``denoise`` with the LLM) for every rule-kept label while
    they are in flight, and then scores on this thread
    (``score_candidates``). Scoring runs in a ``finally``, so a scoring
    error wins over a necessity error. The evidence is the scored triples
    whose label passed necessity, best fused score first.

    Unlinkable subjects (``LinkFailure``) and empty grounded sets come back
    unverifiable; any other error propagates. A mismatch triggers the
    rewrite prompt. The rewrite must actually change the claim, otherwise
    the result is downgraded to unverifiable.
    """
    cfg = pipe.config
    try:
        entity = link_surface(fact.subject_surface, pipe.store, cfg.link_floor)
    except LinkFailure as exc:
        log.info("fact %d unverifiable: %s", fact.origin_index, exc)
        return VerificationResult(fact=fact, status=VerificationStatus.UNVERIFIABLE)

    relations = pipe.store.relations(entity)
    pool = denoise(relations.all(), fact.text, cfg)
    if not pool:
        return VerificationResult(fact=fact, status=VerificationStatus.UNVERIFIABLE)
    requests = start_scoring(fact.text, pool, relations, pipe)
    try:
        kept = denoise(pool, fact.text, cfg, pipe.llm, pipe.templates["necessity"])
    finally:
        scored = score_candidates(fact.text, pool, pipe, *requests)
    necessary = {t.key() for t in kept}
    best = [c.payload for c in scored if c.payload.key() in necessary][: cfg.verify_top_k]
    if not best:
        return VerificationResult(fact=fact, status=VerificationStatus.UNVERIFIABLE)

    evidence = "\n".join(t.text for t in best)
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
            lines.append("  evidence: " + "; ".join(t.text for t in r.best_triples))
    return "\n".join(lines)


def run_parallel_branch(question: Question, pipe: Pipeline) -> Answer:
    """Full parallel track: draft, decompose, verify the facts, synthesize.
    If nothing was verifiable the draft comes back flagged. Every provider
    is read through the pipeline's caches.

    The facts are independent, so all of them are verified at once, each on
    a thread of the process-wide ``transport.CLAIMS``; a claim links its own
    subject on its thread. Results follow fact order. If claims fail, the
    error raised is the earliest failing claim's in fact order, whether
    linking or a later step raised it, once every claim has finished."""
    draft = draft_response(question, pipe.llm, pipe.templates)
    facts = decompose(draft, pipe.llm, pipe.templates)
    claims = [CLAIMS.submit(verify_fact, fact, pipe) for fact in facts]
    wait(claims)
    results = [claim.result() for claim in claims]
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
