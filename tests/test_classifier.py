"""Routing classifier tests, driven by scripted stubs."""

import pytest

from dualtrack.classifier import Question, QuestionType, classify
from dualtrack.llm import StubLLM

# the few-shot block's own exemplars, with their annotated judgments
EXEMPLARS = [
    ("Where was the CEO of Microsoft born?", "yes"),
    ("Who is older: Elon Musk or Jeff Bezos?", "no"),
    ("Which university did the inventor of Python attend?", "yes"),
    ("What is the capital and population of France?", "no"),
    ("Who directed Inception and what other films did they make?", "no"),
    ("What is the tallest mountain and who first climbed it?", "no"),
]


def _exemplar_stub():
    # key on the final 'Question: "..."' line; the exemplar lines inside the
    # few-shot block use a 'Q: ' prefix, so they never collide
    return StubLLM(script=[(f'Question: "{q}"', label) for q, label in EXEMPLARS])


def test_exemplar_questions_present_in_prompt(templates):
    for question, label in EXEMPLARS:
        assert question in templates["classification"].body


def test_classifier_reproduces_all_exemplar_labels(templates):
    stub = _exemplar_stub()
    for question, label in EXEMPLARS:
        decision = classify(Question(id="t", text=question), stub, templates["classification"])
        expected = QuestionType.CHAINED if label == "yes" else QuestionType.PARALLEL
        assert decision.track is expected, question
        assert decision.fallback is False


def test_classifier_is_deterministic(templates):
    stub = _exemplar_stub()
    question = Question(id="t", text=EXEMPLARS[0][0])
    first = classify(question, stub, templates["classification"])
    second = classify(question, stub, templates["classification"])
    assert first == second


def test_unparseable_reply_falls_back_to_default(templates):
    stub = StubLLM(default="cannot tell")
    decision = classify(Question(id="t", text="anything?"), stub, templates["classification"])
    assert decision.track is QuestionType.CHAINED
    assert decision.fallback is True
    assert decision.raw_response == "cannot tell"


def test_noisy_but_parseable_reply_is_not_fallback(templates):
    stub = StubLLM(default="Yes, clearly (A->B->C).")
    decision = classify(Question(id="t", text="anything?"), stub, templates["classification"])
    assert decision.track is QuestionType.CHAINED
    assert decision.fallback is False


def test_question_requires_text():
    with pytest.raises(ValueError):
        Question(id="x", text="")
