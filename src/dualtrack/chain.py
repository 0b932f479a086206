"""Chained multi-hop track: scored depth-first path expansion from a central
entity, with dynamic pruning and sufficiency-based early stopping.

Search constraints: depth capped at ``d_max``; per step only the top
``w_max`` relations above ``theta_search`` survive, and when more than
``LLM_SELECT_TRIGGER`` (8) do, an LLM picks at most three. The width cut
comes first, so LLM selection runs only when ``w_max`` is 9 or more; at the
default ``w_max`` of 5 it never runs, and no benchmark workload reaches it.
The source abstract does not say whether selection should come before the
width cut, so the order stays as it is.
After every expansion the freshly extended path is checked for
sufficiency; a "yes" ends the search immediately. The final answer is
generated strictly from the triples of the best-scoring paths.

Each expansion grounds its triples in this order: the keyword rule, then
scoring, then necessity for only the relations whose fused score clears
``theta_search``, since no other relation can become a child. The
sufficiency prompt of the best such relation's child goes out with those
necessity prompts, so the check the search makes next costs no round trip
of its own.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .classifier import Answer, Question, QuestionType
from .denoise import denoise
from .kg import EntityRef, ObjectTerm, Triple, term_label
from .linking import LinkFailure, link_surface
from .llm import CompletionRequest, Unparseable, ask, parse_yes_no, render
from .scoring import ScoredCandidate, score_candidates, start_scoring
from .transport import entry_value

if TYPE_CHECKING:
    from .engine import Pipeline

log = logging.getLogger(__name__)

HEAD = "head"
TAIL = "tail"

# Survivors of the width cut above which an LLM picks at most three.
LLM_SELECT_TRIGGER = 8


@dataclass(frozen=True)
class Hop:
    triple: Triple
    direction: str  # HEAD: moved subject->object; TAIL: moved object->subject
    score: float

    @property
    def target(self) -> ObjectTerm:
        return self.triple.object if self.direction == HEAD else self.triple.subject

    def triple_text(self) -> str:
        parts = ", ".join(term_label(t) for t in (self.triple.subject, self.triple.relation, self.triple.object))
        return f"({parts})"

    def describe(self) -> str:
        text = self.triple_text()
        return text + " [inverse]" if self.direction == TAIL else text


@dataclass(frozen=True)
class ReasoningPath:
    origin: EntityRef
    hops: tuple[Hop, ...] = ()

    def depth(self) -> int:
        return len(self.hops)

    def tip(self) -> ObjectTerm:
        return self.hops[-1].target if self.hops else self.origin

    def extend(self, hop: Hop) -> "ReasoningPath":
        return ReasoningPath(origin=self.origin, hops=self.hops + (hop,))

    def visited_ids(self) -> set[str]:
        visited = {self.origin.id}
        for hop in self.hops:
            target = hop.target
            if isinstance(target, EntityRef):
                visited.add(target.id)
        return visited

    def signature(self) -> tuple[tuple[str, str], ...]:
        """Order-stable identity: the (triple key, direction) of every hop."""
        return tuple((hop.triple.key(), hop.direction) for hop in self.hops)

    def verbalize(self) -> str:
        return " -> ".join(hop.describe() for hop in self.hops)

    def to_dict(self) -> dict:
        return {
            "origin": {"id": self.origin.id, "label": self.origin.label},
            "score": path_score(self),
            "hops": [
                {
                    "triple": hop.triple_text(),
                    "direction": hop.direction,
                    "score": hop.score,
                }
                for hop in self.hops
            ],
        }


def path_score(path: ReasoningPath) -> float:
    """Product of the hop relation scores (1.0 for an empty path)."""
    return math.prod(hop.score for hop in path.hops)


def extract_central_entity(question: Question, pipe: Pipeline) -> EntityRef:
    """LLM-extract the question's core entity surface form and link it."""
    reply = ask(pipe.llm, pipe.templates["extract_entity"], question=question.text)
    lines = [line.strip().strip('"') for line in reply.splitlines()]
    surface = next((line for line in lines if line), "")
    if not surface:
        raise LinkFailure(f"entity extraction produced nothing for {question.id}")
    return link_surface(surface, pipe.store, pipe.config.link_floor)


def expand(path: ReasoningPath, question: Question, pipe: Pipeline, checks: dict) -> list[ReasoningPath]:
    """One expansion step: retrieve, ground in the order the module
    docstring gives, prune, extend. Returns one extended path per surviving
    relation, best score first.

    The keyword rule is ``denoise`` without an LLM and necessity is
    ``denoise`` with one; scoring (``scoring.start_scoring`` and
    ``score_candidates``) runs on this thread, and a scoring error is raised
    before any necessity prompt is sent. The sufficiency prompt of the best
    candidate at or above ``theta_search`` is started just before the
    necessity prompts (``MemoLLM.start``), and its entry is stored in
    ``checks`` under that candidate's child. It is the next check
    :func:`search_paths` makes when the candidate survives, and
    :func:`check_sufficiency` reads that entry instead of sending it again.
    """
    cfg = pipe.config
    tip = path.tip()
    if not isinstance(tip, EntityRef) or path.depth() >= cfg.d_max:
        return []
    relations = pipe.store.relations(tip)
    visited = path.visited_ids()
    candidates: list[Triple] = []
    direction_by_key: dict[str, str] = {}
    for direction, triples in ((HEAD, relations.head), (TAIL, relations.tail)):
        for triple in triples:
            far = triple.object if direction == HEAD else triple.subject
            if isinstance(far, EntityRef) and far.id in visited:
                continue  # cycle guard: never revisit an entity
            key = triple.key()
            if key not in direction_by_key:
                direction_by_key[key] = direction
                candidates.append(triple)

    def child(candidate: ScoredCandidate) -> ReasoningPath:
        triple = candidate.payload
        return path.extend(Hop(triple=triple, direction=direction_by_key[triple.key()], score=candidate.combined))

    pool = denoise(candidates, question.text, cfg)
    if not pool:
        return []
    requests = start_scoring(question.text, pool, relations, pipe)
    scored = [c for c in score_candidates(question.text, pool, pipe, *requests) if c.combined >= cfg.theta_search]
    if scored:
        first = child(scored[0])
        checks[first] = pipe.llm.start(_sufficiency_request(first, question, pipe))
    # called with an empty list too, which sends nothing: perfbench's tracer counts this call's span
    kept = denoise([c.payload for c in scored], question.text, cfg, pipe.llm, pipe.templates["necessity"])
    necessary = {t.key() for t in kept}
    # scored is best first, so the width cut keeps the best w_max
    survivors = [c for c in scored if c.payload.key() in necessary][: cfg.w_max]
    if len(survivors) > LLM_SELECT_TRIGGER:
        survivors = _llm_select(survivors, question, pipe)
    return [child(c) for c in survivors]


def _llm_select(survivors: list[ScoredCandidate], question: Question, pipe: Pipeline) -> list[ScoredCandidate]:
    """Ask the LLM to pick at most three relations from a crowded candidate
    set; on a reply naming nothing recognizable, keep the top three by score."""
    listing = "\n".join(f"- {term_label(c.payload.relation)}" for c in survivors)
    reply = ask(pipe.llm, pipe.templates["select_relations"], question=question.text, relations=listing)
    named = {token.strip().lower() for token in re.split(r"[,;\n]", reply) if token.strip()}
    picked = [c for c in survivors if term_label(c.payload.relation).lower() in named]
    if not picked:
        log.warning("relation selection reply %r named no candidate; keeping top 3", reply)
        picked = list(survivors)
    return picked[:3]


def _sufficiency_request(path: ReasoningPath, question: Question, pipe: Pipeline) -> CompletionRequest:
    bindings = {"question": question.text, "path": path.verbalize()}
    return CompletionRequest(prompt=render(pipe.templates["sufficiency"], bindings))


def check_sufficiency(path: ReasoningPath, question: Question, pipe: Pipeline, started=None) -> bool:
    """LLM judgment: does the path already hold every fact the question
    needs? Unparseable replies mean "keep searching". ``started`` is the
    entry that :func:`expand` started for this path's prompt, if it did: it
    is read, so a prompt whose early send failed is not sent again."""
    if started is None:
        started = pipe.llm.complete(_sufficiency_request(path, question, pipe)).text
    reply = entry_value(started)
    try:
        return parse_yes_no(reply)
    except Unparseable:
        return False


def search_paths(
    origin: EntityRef, question: Question, pipe: Pipeline, trace: list | None = None
) -> tuple[list[ReasoningPath], bool]:
    """Depth-first search from the origin honoring all constraints.

    Returns every maximal path found (paths at full depth, dead ends, literal
    tips, and at most one path that passed the sufficiency check, which
    terminates the search early) plus whether that early stop fired. Children
    are visited in descending score order so high-score paths are reached
    before the budget runs out.
    """
    cfg = pipe.config
    completed: list[ReasoningPath] = []
    checks: dict[ReasoningPath, object] = {}  # sufficiency prompts started by expand, by child
    expansions = 0
    stopped = False

    def visit(path: ReasoningPath) -> None:
        nonlocal expansions, stopped
        if stopped:
            return
        if expansions >= cfg.max_expansions:
            log.warning("expansion budget %d exhausted for %s", cfg.max_expansions, question.id)
            if path.depth():
                completed.append(path)
            return
        expansions += 1
        children = expand(path, question, pipe, checks)
        if not children:
            if path.depth():
                completed.append(path)  # dead end: maximal as-is
            return
        for child in children:
            if stopped:
                return
            if trace is not None:
                trace.append((child.depth(), child.hops[-1].describe(), child.hops[-1].score))
            if check_sufficiency(child, question, pipe, checks.pop(child, None)):
                completed.append(child)
                stopped = True
                return
            if child.depth() >= cfg.d_max or not isinstance(child.tip(), EntityRef):
                completed.append(child)
            else:
                visit(child)

    visit(ReasoningPath(origin=origin))
    return completed, stopped


def run_chain_branch(question: Question, pipe: Pipeline, trace: list | None = None) -> Answer:
    """Full chained track: extract and link the central entity, search, then
    generate an answer grounded strictly in the best paths' triples, every
    provider read through the pipeline's caches.

    The ``insufficient`` flag marks runs where no path was ever judged
    sufficient: either nothing was found at all, or the search exhausted its
    constraints (depth, width, threshold, budget) with only partial paths.
    """
    try:
        origin = extract_central_entity(question, pipe)
    except LinkFailure as exc:
        log.warning("chain run aborted for %s: %s", question.id, exc)
        return Answer(
            text="",
            track=QuestionType.CHAINED,
            flags={"no_central_entity", "insufficient"},
        )
    completed, stopped_early = search_paths(origin, question, pipe, trace)
    if not completed:
        return Answer(text="", track=QuestionType.CHAINED, flags={"insufficient"})
    ranked = sorted(completed, key=lambda p: (-path_score(p), p.signature()))
    best = ranked[: pipe.config.top_k_paths]
    context = "\n".join(p.verbalize() for p in best)
    text = ask(pipe.llm, pipe.templates["generate"], question=question.text, triples=context).strip()
    flags = set() if stopped_early else {"insufficient"}
    return Answer(text=text, track=QuestionType.CHAINED, supporting_paths=best, flags=flags)
