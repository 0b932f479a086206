"""Metric definitions and the batch evaluation loop."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualtrack.chain import Answer
from dualtrack.classifier import Question, QuestionType
from dualtrack.evaluation import (
    AccScorer,
    evaluate,
    exact_match,
    format_report,
    load_dataset,
    semantic_acc,
    token_jaccard,
)

# ---------------------------------------------------------------------------
# exact match
# ---------------------------------------------------------------------------


def test_exact_match_identity():
    assert exact_match("Paris", ["Paris"]) == 1


def test_exact_match_is_case_sensitive():
    assert exact_match("paris", ["Paris"]) == 0


def test_exact_match_unequal_strings():
    assert exact_match("Paris, France", ["Paris"]) == 0


def test_exact_match_trims_outer_whitespace_only():
    assert exact_match("  Paris \n", ["Paris"]) == 1
    assert exact_match("Pa ris", ["Paris"]) == 0


def test_exact_match_any_gold():
    assert exact_match("Paris", ["Lyon", "Paris"]) == 1
    assert exact_match("Paris", []) == 0


@given(st.text(max_size=50))
def test_exact_match_reflexive(text):
    assert exact_match(text, [text]) == 1


# ---------------------------------------------------------------------------
# semantic accuracy
# ---------------------------------------------------------------------------


def test_token_jaccard_values():
    assert token_jaccard("big red car", "red car") == pytest.approx(2 / 3)
    assert token_jaccard("alpha", "beta") == 0.0
    assert token_jaccard("same", "same") == 1.0
    assert token_jaccard("", "") == 1.0
    assert token_jaccard("word", "") == 0.0


def test_semantic_acc_identical_prediction():
    assert semantic_acc("Paris", ["Paris"], AccScorer(tau=1.0)) == 1


def test_semantic_acc_disjoint_tokens():
    # token overlap of 0 < tau 0.5
    assert semantic_acc("London", ["Paris"], AccScorer(tau=0.5)) == 0


def test_semantic_acc_tau_zero_always_passes():
    assert semantic_acc("anything", ["whatever"], AccScorer(tau=0.0)) == 1


def test_semantic_acc_max_over_golds():
    assert semantic_acc("red car", ["blue boat", "red car"], AccScorer(tau=0.9)) == 1


def test_semantic_acc_no_golds():
    assert semantic_acc("pred", [], AccScorer()) == 0


@given(
    pred=st.text(max_size=30),
    gold=st.text(max_size=30),
    t1=st.floats(0.0, 1.0),
    t2=st.floats(0.0, 1.0),
)
def test_semantic_acc_monotone_nonincreasing_in_tau(pred, gold, t1, t2):
    lo, hi = sorted((t1, t2))
    assert semantic_acc(pred, [gold], AccScorer(tau=lo)) >= semantic_acc(pred, [gold], AccScorer(tau=hi))


def test_acc_scorer_validates_tau():
    with pytest.raises(ValueError):
        AccScorer(tau=1.5)


# ---------------------------------------------------------------------------
# evaluation loop
# ---------------------------------------------------------------------------


def _answer_fn(mapping):
    def fn(question):
        value = mapping[question.id]
        if isinstance(value, Exception):
            raise value
        return Answer(text=value, track=QuestionType.CHAINED)

    return fn


def _questions():
    return [
        Question(id="a", text="qa", gold_answers=["alpha"]),
        Question(id="b", text="qb", gold_answers=["beta"]),
        Question(id="c", text="qc", gold_answers=["gamma"]),
    ]


def test_evaluate_aggregates_are_plain_means():
    # em per record: 1, 0, 0 -> 1/3; acc: 1, 1, 0 -> 2/3
    report = evaluate(
        _questions(),
        _answer_fn({"a": "alpha", "b": "beta spilled", "c": "unrelated"}),
        scorer=AccScorer(tau=0.5),
    )
    agg = report["aggregate"]
    assert agg["n"] == 3
    assert agg["invalid"] == 0
    assert agg["em"] == pytest.approx(1 / 3)
    assert agg["acc"] == pytest.approx(2 / 3)
    assert agg["per_track"]["chained"]["n"] == 3


def test_evaluate_empty_dataset():
    report = evaluate([], _answer_fn({}))
    assert report["records"] == []
    assert report["aggregate"]["n"] == 0
    assert report["aggregate"]["em"] is None
    assert report["aggregate"]["acc"] is None


def test_evaluate_engine_failure_recorded_and_run_continues():
    report = evaluate(
        _questions(),
        _answer_fn({"a": "alpha", "b": RuntimeError("boom"), "c": "gamma"}),
    )
    agg = report["aggregate"]
    assert agg["n"] == 3
    assert agg["invalid"] == 1
    assert agg["em"] == pytest.approx(1.0)  # mean over the two valid records
    failed = next(r for r in report["records"] if r["question_id"] == "b")
    assert "boom" in failed["error"]


def test_evaluate_scorer_failure_marks_record_invalid():
    def bad_scorer(a, b):
        raise ValueError("similarity model offline")

    report = evaluate(
        _questions()[:1],
        _answer_fn({"a": "alpha"}),
        scorer=AccScorer(scorer=bad_scorer),
    )
    assert report["aggregate"]["invalid"] == 1
    assert report["aggregate"]["em"] is None
    assert "scorer" in report["records"][0]["error"]


def test_evaluate_parallelism_preserves_order_and_results():
    mapping = {"a": "alpha", "b": "beta", "c": "gamma"}
    serial = evaluate(_questions(), _answer_fn(mapping), parallelism=1)
    threaded = evaluate(_questions(), _answer_fn(mapping), parallelism=3)
    assert [r["question_id"] for r in threaded["records"]] == ["a", "b", "c"]
    assert serial["aggregate"]["em"] == threaded["aggregate"]["em"]


def test_evaluate_per_track_breakdown():
    def fn(question):
        track = QuestionType.CHAINED if question.id == "a" else QuestionType.PARALLEL
        return Answer(text=question.gold_answers[0], track=track)

    report = evaluate(_questions(), fn)
    per_track = report["aggregate"]["per_track"]
    assert per_track["chained"]["n"] == 1
    assert per_track["parallel"]["n"] == 2
    assert per_track["parallel"]["em"] == 1.0


def test_evaluate_latency_recorded():
    report = evaluate(_questions()[:1], _answer_fn({"a": "alpha"}))
    assert report["records"][0]["latency_ms"] >= 0


# ---------------------------------------------------------------------------
# dataset loading + report formatting
# ---------------------------------------------------------------------------


def test_load_dataset(tmp_path):
    path = tmp_path / "qs.jsonl"
    path.write_text(
        '{"id": "1", "question": "who?", "gold_answers": ["x"]}\n'
        "\n"
        '{"id": "2", "question": "what?"}\n',
        encoding="utf-8",
    )
    questions, skipped = load_dataset(path)
    assert skipped == 0
    assert [q.id for q in questions] == ["1", "2"]
    assert questions[1].gold_answers == []


def test_load_dataset_skips_malformed_lines(tmp_path):
    path = tmp_path / "qs.jsonl"
    path.write_text(
        '{"id": "1", "question": "who?", "gold_answers": ["x"]}\n'
        "this is not json\n"
        '{"question": "missing id"}\n'
        '{"id": "3", "question": "ok?", "gold_answers": []}\n',
        encoding="utf-8",
    )
    questions, skipped = load_dataset(path)
    assert [q.id for q in questions] == ["1", "3"]
    assert skipped == 2


def test_load_dataset_skips_gold_answers_that_are_not_a_list_of_scalars(tmp_path):
    path = tmp_path / "qs.jsonl"
    path.write_text(
        '{"id": "1", "question": "where?", "gold_answers": "Paris"}\n'
        '{"id": "2", "question": "where?", "gold_answers": {"Paris": 1}}\n'
        '{"id": "3", "question": "where?", "gold_answers": [["Paris"]]}\n'
        '{"id": "4", "question": "where?", "gold_answers": [true]}\n'
        '["not", "an", "object"]\n'
        '{"id": "5", "question": "when?", "gold_answers": ["Paris", 1975, 2.5]}\n',
        encoding="utf-8",
    )
    questions, skipped = load_dataset(path)
    assert [q.id for q in questions] == ["5"]
    assert questions[0].gold_answers == ["Paris", "1975", "2.5"]
    assert skipped == 5


def test_load_dataset_skips_ids_and_questions_of_the_wrong_type(tmp_path):
    path = tmp_path / "qs.jsonl"
    path.write_text(
        '{"id": null, "question": null}\n'
        '{"id": "1", "question": {"a": 1}}\n'
        '{"id": "2", "question": 7}\n'
        '{"id": true, "question": "who?"}\n'
        '{"id": 1.5, "question": "who?"}\n'
        '{"id": ["3"], "question": "who?"}\n'
        '{"id": 4, "question": "who?"}\n'
        '{"id": "5", "question": "what?"}\n',
        encoding="utf-8",
    )
    questions, skipped = load_dataset(path)
    assert [(q.id, q.text) for q in questions] == [("4", "who?"), ("5", "what?")]
    assert skipped == 6


def test_format_report_renders_table():
    report = evaluate(_questions()[:2], _answer_fn({"a": "alpha", "b": "beta"}))
    table = format_report(report)
    assert "EM=1.000" in table
    assert "chained" in table
    json.dumps(report)  # the report itself must be JSON-serializable
