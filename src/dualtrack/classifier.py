"""Question routing between the two reasoning tracks.

A few-shot rule prompt asks the LLM whether the question needs connecting
facts through shared intermediate entities: "yes" routes to the chained
track, "no" to the parallel fact-verification track. The routing rules live
entirely inside the prompt; there is no duplicated rule engine in code.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

from .llm import LLMProvider, PromptTemplate, Unparseable, ask, parse_yes_no

log = logging.getLogger(__name__)


class QuestionType(str, Enum):
    CHAINED = "chained"
    PARALLEL = "parallel"


@dataclass
class Question:
    id: str
    text: str
    gold_answers: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.text:
            raise ValueError("question text must be non-empty")


@dataclass
class Answer:
    """Final engine output for either track."""

    text: str
    track: QuestionType | None = None
    supporting_paths: list = field(default_factory=list)  # ReasoningPath items
    verification: list = field(default_factory=list)  # VerificationResult items
    draft: str | None = None  # parallel track only
    flags: set[str] = field(default_factory=set)

    def to_dict(self) -> dict:
        return {
            "text": self.text,
            "track": self.track.value if self.track else None,
            "flags": sorted(self.flags),
            "draft": self.draft,
            "supporting_paths": [p.to_dict() for p in self.supporting_paths],
            "verification": [v.to_dict() for v in self.verification],
        }


@dataclass
class Classification:
    track: QuestionType
    raw_response: str
    fallback: bool = False


def classify(question: Question, llm: LLMProvider, template: PromptTemplate) -> Classification:
    """Route a question. An unparseable reply falls back to the chained
    track: depth-1 paths subsume one-hop lookups, so that is the safer
    misroute."""
    reply = ask(llm, template, question=question.text)
    try:
        chained = parse_yes_no(reply)
    except Unparseable:
        log.warning("classifier reply %r unparseable; defaulting to chained", reply)
        return Classification(track=QuestionType.CHAINED, raw_response=reply, fallback=True)
    track = QuestionType.CHAINED if chained else QuestionType.PARALLEL
    return Classification(track=track, raw_response=reply)
