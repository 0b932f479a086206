"""Dual-layer task-aware relation denoising.

Layer one is a provider-free keyword rule that drops administrative
relations ("entity ID", "data source", ...). Layer two asks the LLM for a
necessity score of each remaining relation against the question and drops
the ones below a threshold. The scores are independent, so each distinct
relation label is asked once, and all labels are asked concurrently.
Failures never drop evidence: unresolved labels, unparseable scores and
provider errors all keep the item and log a warning.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from itertools import repeat
from typing import TYPE_CHECKING, Sequence, Union

from .kg import RelationRef, Triple
from .llm import LLMProvider, PromptTemplate, ProviderError, Unparseable, ask, parse_score
from .scoring import ScoredCandidate

if TYPE_CHECKING:
    from .config import EngineConfig

log = logging.getLogger(__name__)

DEFAULT_INVALID_KEYWORDS = ("id", "source", "version", "metadata")

# Necessity threads per denoise call. Each thread mostly waits on one LLM
# round trip; on the chain_hub benchmark graph (14 content labels) 16 threads
# were no faster than 8. Each of a question's claim threads denoises, so one
# question has at most ``verify.MAX_CLAIM_WORKERS`` times this many LLM
# requests in flight.
MAX_NECESSITY_WORKERS = 8

Denoisable = Union[Triple, RelationRef, ScoredCandidate]


def _relation_of(item: Denoisable) -> RelationRef:
    if isinstance(item, ScoredCandidate):
        item = item.payload
    if isinstance(item, Triple):
        return item.relation
    return item


def rule_filter(relation: RelationRef, cfg: EngineConfig) -> bool:
    """True when the relation should be dropped by the keyword rule."""
    if not relation.label:
        log.warning("relation %s has no label; keeping it unfiltered", relation.id)
        return False
    label = relation.label.lower()
    return any(keyword in label for keyword in cfg.k_invalid)


def _prompt_label(relation: RelationRef) -> str:
    return relation.label or relation.id


def necessity_score(
    relation: RelationRef,
    question: str,
    llm: LLMProvider,
    template: PromptTemplate,
) -> float:
    """LLM-judged necessity of the relation for the question, in [0, 1].

    An unparseable reply scores 1.0 (keep) so parse failures can never
    silently delete evidence.
    """
    reply = ask(llm, template, relation=_prompt_label(relation), question=question)
    try:
        return parse_score(reply)
    except Unparseable:
        log.warning("unparseable necessity reply %r for relation %s; keeping", reply, relation.id)
        return 1.0


def _necessary(
    relation: RelationRef,
    question: str,
    cfg: EngineConfig,
    llm: LLMProvider,
    template: PromptTemplate,
) -> bool:
    """True when the relation passes the necessity threshold or cannot be
    scored because the provider failed."""
    try:
        score = necessity_score(relation, question, llm, template)
    except ProviderError as exc:
        log.warning("necessity scoring failed for %s (%s); keeping", relation.id, exc)
        return True
    if score < cfg.theta_necessity:
        log.debug("dropping %s: necessity %.2f < %.2f", relation.id, score, cfg.theta_necessity)
        return False
    return True


def denoise(
    candidates: Sequence[Denoisable],
    question: str,
    cfg: EngineConfig,
    llm: LLMProvider | None = None,
    template: PromptTemplate | None = None,
) -> list[Denoisable]:
    """Apply the keyword rule, then (when an LLM is supplied) the necessity
    threshold. Survivor order follows input order.

    With no LLM, or with ``theta_necessity`` at 0, only the rule layer runs
    and no provider call is made. Otherwise candidates that share a label
    share one necessity prompt, and the distinct labels are scored on up to
    ``MAX_NECESSITY_WORKERS`` threads that belong to this call. A provider
    error keeps every candidate with that label; any other error raised is
    the one for the earliest such label in input order, after the labels
    already being scored finish.
    """
    kept = [c for c in candidates if not rule_filter(_relation_of(c), cfg)]
    if llm is None or template is None or cfg.theta_necessity == 0.0:
        return kept
    relations: dict[str, RelationRef] = {}
    for candidate in kept:
        relation = _relation_of(candidate)
        relations.setdefault(_prompt_label(relation), relation)
    workers = max(1, min(len(relations), MAX_NECESSITY_WORKERS))
    with ThreadPoolExecutor(workers, thread_name_prefix="necessity") as pool:
        verdicts = pool.map(
            _necessary, relations.values(), repeat(question), repeat(cfg), repeat(llm), repeat(template)
        )
        necessary = dict(zip(relations, verdicts))
    return [c for c in kept if necessary[_prompt_label(_relation_of(c))]]
