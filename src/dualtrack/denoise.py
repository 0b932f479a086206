"""Dual-layer task-aware relation denoising.

Layer one is a provider-free keyword rule that drops administrative
relations ("entity ID", "data source", ...): a label that holds a keyword
as whole words. Its verdict depends only on the label, so it is taken once
per label. Layer two asks the LLM for a necessity score of each relation
it is given against the question and drops the ones below a threshold.
The scores are independent, so each distinct relation label is asked
once, and all labels are asked concurrently on the process's leaf
executor, ``transport.LEAVES``, through the pipeline's ``MemoLLM``: a
label whose reply it keeps is scored inline, with no hand-off to a leaf
thread. Both tracks run both layers through ``scoring.ground``. A claim
asks necessity for every rule-kept relation while its pool is scored; a
chain step asks only for the relations whose fused score is at least
``theta_search``, once the scores are in, since no other relation can
become a child.
Failures never drop evidence: unresolved labels, unparseable scores and
provider errors all keep the item and log a warning.
"""

from __future__ import annotations

import functools
import logging
import re
from concurrent.futures import Future, wait
from typing import TYPE_CHECKING, Sequence

from .kg import RelationRef, Triple, term_label
from .llm import CompletionRequest, MemoLLM, PromptTemplate, ProviderError, Unparseable, parse_score, render
from .transport import entry_value

if TYPE_CHECKING:
    from .config import EngineConfig

log = logging.getLogger(__name__)

DEFAULT_INVALID_KEYWORDS = ("id", "source", "version", "metadata")


@functools.lru_cache(maxsize=16)
def _keyword_pattern(keywords: tuple[str, ...]) -> re.Pattern:
    """Finds any of ``keywords`` in a lower-cased label as whole words: a
    keyword's words in order, apart by anything but word characters. A
    keyword with no word never matches."""
    phrases = "|".join(filter(None, (r"\W+".join(map(re.escape, re.findall(r"\w+", k))) for k in keywords)))
    return re.compile(rf"\b(?:{phrases})\b" if phrases else "(?!)")


def rule_filter(relation: RelationRef, cfg: EngineConfig) -> bool:
    """True when the relation should be dropped by the keyword rule: some
    keyword's words occur in its label as whole words, in order ("id" drops
    "wikidata:id" and "Entity ID", not "width" or "place of residence")."""
    if not relation.label:
        log.warning("relation %s has no label; keeping it unfiltered", relation.id)
        return False
    return _keyword_pattern(tuple(cfg.k_invalid)).search(relation.label.lower()) is not None


def rule_kept(
    candidates: Sequence[Triple], cfg: EngineConfig, verdicts: dict[str, bool] | None = None
) -> list[Triple]:
    """The candidates the keyword rule keeps, in input order. ``rule_filter``
    runs once per label: only for a label not yet in ``verdicts``, which
    gets its verdict."""
    verdicts = {} if verdicts is None else verdicts
    kept = []
    for candidate in candidates:
        relation = candidate.relation
        dropped = verdicts.get(relation.label)
        if dropped is None:
            dropped = verdicts[relation.label] = rule_filter(relation, cfg)
        if not dropped:
            kept.append(candidate)
    return kept


def _necessary(relation: RelationRef, reply: str | Future, cfg: EngineConfig) -> bool:
    """True when the relation passes the necessity threshold, or cannot be
    scored because the provider failed or its reply does not parse.
    ``reply`` is what ``MemoLLM.start`` returned for the relation's prompt."""
    try:
        reply = entry_value(reply)
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
    llm: MemoLLM | None = None,
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
    one necessity prompt, rendered once, and ``llm.start`` sends the
    distinct labels' prompts concurrently on ``transport.LEAVES``, save
    those whose reply the memo keeps or has in flight; the call waits for
    every label. A provider error keeps every candidate with that label.
    Any other error raised is the one for the earliest such label in input
    order, raised once every label has finished: no label is cancelled.
    """
    kept = rule_kept(candidates, cfg, rule_verdicts)
    if llm is None or template is None or cfg.theta_necessity == 0.0:
        return kept
    labels = [term_label(c.relation) for c in kept]
    relations: dict[str, RelationRef] = {}
    for label, candidate in zip(labels, kept):
        relations.setdefault(label, candidate.relation)
    replies = {
        label: llm.start(CompletionRequest(prompt=render(template, {"relation": label, "question": question})))
        for label in relations
    }
    wait([reply for reply in replies.values() if isinstance(reply, Future)])
    necessary = {label: _necessary(relation, replies[label], cfg) for label, relation in relations.items()}
    return [c for label, c in zip(labels, kept) if necessary[label]]
