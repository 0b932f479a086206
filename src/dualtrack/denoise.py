"""Dual-layer task-aware relation denoising.

Layer one is a provider-free keyword rule that drops administrative
relations ("entity ID", "data source", ...); its verdict depends only on
the label, so it is taken once per label. Layer two asks the LLM for a
necessity score of each remaining relation against the question and drops
the ones below a threshold. The scores are independent, so each distinct
relation label is asked once, and all labels are asked concurrently on the
process's leaf executor, ``transport.LEAVES``; a label whose reply the
engine's ``MemoLLM`` already holds is scored inline instead, since a
hand-off to a leaf thread costs more than reading the memo. Both tracks run
both layers through ``scoring.ground``, which scores the rule-kept pool
while the necessity layer runs and keeps the candidates whose label passed.
Failures never drop evidence: unresolved labels, unparseable scores and
provider errors all keep the item and log a warning.
"""

from __future__ import annotations

import logging
from concurrent.futures import Future, wait
from typing import TYPE_CHECKING, Sequence

from .kg import RelationRef, Triple, term_label
from .llm import (
    CompletionRequest,
    LLMProvider,
    MemoLLM,
    PromptTemplate,
    ProviderError,
    Unparseable,
    parse_score,
    render,
)
from .transport import LEAVES

if TYPE_CHECKING:
    from .config import EngineConfig

log = logging.getLogger(__name__)

DEFAULT_INVALID_KEYWORDS = ("id", "source", "version", "metadata")


def rule_filter(relation: RelationRef, cfg: EngineConfig) -> bool:
    """True when the relation should be dropped by the keyword rule."""
    if not relation.label:
        log.warning("relation %s has no label; keeping it unfiltered", relation.id)
        return False
    label = relation.label.lower()
    return any(keyword in label for keyword in cfg.k_invalid)


def _rule_kept(candidates: Sequence[Triple], cfg: EngineConfig, verdicts: dict[str, bool]) -> list[Triple]:
    """The candidates the keyword rule keeps, in input order. ``rule_filter``
    runs only for a label not yet in ``verdicts``, which gets its verdict."""
    kept = []
    for candidate in candidates:
        relation = candidate.relation
        dropped = verdicts.get(relation.label)
        if dropped is None:
            dropped = verdicts[relation.label] = rule_filter(relation, cfg)
        if not dropped:
            kept.append(candidate)
    return kept


def _necessity_request(relation: RelationRef, question: str, template: PromptTemplate) -> CompletionRequest:
    return CompletionRequest(prompt=render(template, {"relation": term_label(relation), "question": question}))


def _necessary(relation: RelationRef, request: CompletionRequest, cfg: EngineConfig, llm: LLMProvider) -> bool:
    """True when the relation passes the necessity threshold, or cannot be
    scored because the provider failed or its reply does not parse."""
    try:
        reply = llm.complete(request).text
    except ProviderError as exc:
        log.warning("necessity scoring failed for %s (%s); keeping", relation.id, exc)
        return True
    try:
        score = parse_score(reply)
    except Unparseable:
        log.warning("unparseable necessity reply %r for relation %s; keeping", reply, relation.id)
        return True
    if score < cfg.theta_necessity:
        log.debug("dropping %s: necessity %.2f < %.2f", relation.id, score, cfg.theta_necessity)
        return False
    return True


def denoise(
    candidates: Sequence[Triple],
    question: str,
    cfg: EngineConfig,
    llm: LLMProvider | None = None,
    template: PromptTemplate | None = None,
    rule_verdicts: dict[str, bool] | None = None,
) -> list[Triple]:
    """Apply the keyword rule, then (when an LLM is supplied) the necessity
    threshold. Survivor order follows input order.

    The rule judges each distinct label once. ``rule_verdicts`` holds its
    verdicts by label and gets those of the labels it judges: a caller that
    passes one dict to several calls has each label judged once in all of
    them, as ``scoring.ground`` does for its two calls of one step.

    With no LLM, or with ``theta_necessity`` at 0, only the rule layer runs
    and no task is submitted. Otherwise candidates that share a label share
    one necessity prompt, rendered once, and the distinct labels are scored
    concurrently on ``transport.LEAVES``, except those whose reply a
    ``MemoLLM`` already holds, which are scored inline once the others are
    submitted; the call waits for every label. A provider error keeps every
    candidate with that label. Any other error raised is the one for the
    earliest such label in input order, raised once every label has
    finished: no label is cancelled.
    """
    kept = _rule_kept(candidates, cfg, {} if rule_verdicts is None else rule_verdicts)
    if llm is None or template is None or cfg.theta_necessity == 0.0:
        return kept
    labels = [term_label(c.relation) for c in kept]
    relations: dict[str, RelationRef] = {}
    for label, candidate in zip(labels, kept):
        relations.setdefault(label, candidate.relation)
    requests = {label: _necessity_request(r, question, template) for label, r in relations.items()}
    held = [label for label, request in requests.items() if isinstance(llm, MemoLLM) and llm.holds(request)]
    verdicts: dict[str, bool | Exception | Future] = {
        label: LEAVES.submit(_necessary, relations[label], request, cfg, llm)
        for label, request in requests.items()
        if label not in held
    }
    for label in held:
        try:
            verdicts[label] = _necessary(relations[label], requests[label], cfg, llm)
        except Exception as exc:  # raised below, in label order
            verdicts[label] = exc
    wait([v for v in verdicts.values() if isinstance(v, Future)])
    necessary = {label: _verdict(verdicts[label]) for label in relations}
    return [c for label, c in zip(labels, kept) if necessary[label]]


def _verdict(outcome: bool | Exception | Future) -> bool:
    """A label's verdict from a leaf's future, or from its inline outcome."""
    if isinstance(outcome, Future):
        return outcome.result()
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
