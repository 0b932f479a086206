"""Dataset ingestion and metrics.

Exact Match is character-level equality (whitespace-trimmed, case kept)
against any gold alias. Semantic accuracy thresholds a pluggable similarity
scorer; the default is token-level Jaccard so desk-scale runs need no
model, and a model-backed scorer can be dropped in through ``AccScorer``.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .classifier import Answer, Question
from .scoring import token_jaccard

log = logging.getLogger(__name__)


def exact_match(pred: str, golds: Sequence[str]) -> int:
    """1 iff the prediction equals any gold after trimming outer whitespace.

    Deliberately case-sensitive: the metric is character-level consistency.
    """
    pred = pred.strip()
    return int(any(pred == gold.strip() for gold in golds))


@dataclass
class AccScorer:
    """Similarity function plus acceptance threshold for semantic accuracy."""

    scorer: Callable[[str, str], float] = token_jaccard
    tau: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")


def semantic_acc(pred: str, golds: Sequence[str], s: AccScorer) -> int:
    """1 iff the best similarity across golds reaches the threshold."""
    if not golds:
        return 0
    best = max(s.scorer(pred, gold) for gold in golds)
    return int(best >= s.tau)


@dataclass
class EvalRecord:
    question_id: str
    predicted: str
    gold: list[str]
    em: int
    acc: int
    track: str | None
    latency_ms: int
    flags: list[str] = field(default_factory=list)
    error: str | None = None  # set -> record excluded from aggregates

    def to_dict(self) -> dict:
        return asdict(self)


def load_dataset(path: str | Path) -> tuple[list[Question], int]:
    """Read a JSONL dataset of {id, question, gold_answers}.

    ``id`` must be a string or an integer, ``question`` a string, and
    ``gold_answers``, when present, a list of strings or numbers. Malformed
    lines are skipped and counted, not fatal.
    """
    questions: list[Question] = []
    skipped = 0
    with Path(path).open(encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                qid, text = obj["id"], obj["question"]
                if not isinstance(qid, (str, int)) or isinstance(qid, bool):
                    raise TypeError(f"id must be a string or an integer, got {qid!r}")
                if not isinstance(text, str):
                    raise TypeError(f"question must be a string, got {text!r}")
                golds = obj.get("gold_answers", [])
                if not isinstance(golds, list) or not all(_is_gold(g) for g in golds):
                    raise TypeError(f"gold_answers must be a list of strings or numbers, got {golds!r}")
                question = Question(id=str(qid), text=text, gold_answers=[str(g) for g in golds])
            except (ValueError, KeyError, TypeError) as exc:
                log.warning("%s:%d: skipping malformed line (%s)", path, lineno, exc)
                skipped += 1
                continue
            questions.append(question)
    return questions, skipped


def _is_gold(value) -> bool:
    return isinstance(value, (str, int, float)) and not isinstance(value, bool)


def _run_one(question: Question, answer_fn: Callable[[Question], Answer], scorer: AccScorer) -> EvalRecord:
    start = time.perf_counter()
    try:
        answer = answer_fn(question)
    except Exception as exc:  # per-question failures never stop the run
        log.warning("evaluation of %s failed: %s", question.id, exc)
        return EvalRecord(
            question_id=question.id,
            predicted="",
            gold=list(question.gold_answers),
            em=0,
            acc=0,
            track=None,
            latency_ms=int((time.perf_counter() - start) * 1000),
            error=f"engine: {exc}",
        )
    latency_ms = int((time.perf_counter() - start) * 1000)
    em = acc = 0
    error = None
    if "error" in answer.flags:  # a branch exception the engine caught
        error = "engine: branch failed"
    else:
        em = exact_match(answer.text, question.gold_answers)
        try:
            acc = semantic_acc(answer.text, question.gold_answers, scorer)
        except Exception as exc:
            log.warning("similarity scorer failed on %s: %s", question.id, exc)
            error = f"scorer: {exc}"
    return EvalRecord(
        question_id=question.id,
        predicted=answer.text,
        gold=list(question.gold_answers),
        em=em,
        acc=acc,
        track=answer.track.value if answer.track else None,
        latency_ms=latency_ms,
        flags=sorted(answer.flags),
        error=error,
    )


def evaluate(
    questions: Sequence[Question],
    answer_fn: Callable[[Question], Answer],
    scorer: AccScorer | None = None,
    parallelism: int = 1,
) -> dict:
    """Run the engine over a dataset and aggregate EM/ACC.

    Questions run on up to ``parallelism`` threads; records follow question
    order. Aggregates are plain means over valid records; invalid records
    (engine or scorer failure) are excluded and counted. An empty dataset
    yields null aggregates rather than a crash.
    """
    scorer = scorer or AccScorer()
    with ThreadPoolExecutor(max(1, min(parallelism, len(questions)))) as pool:
        records = list(pool.map(lambda q: _run_one(q, answer_fn, scorer), questions))

    valid = [r for r in records if r.error is None]
    aggregate: dict = {
        "n": len(records),
        "invalid": len(records) - len(valid),
        "em": sum(r.em for r in valid) / len(valid) if valid else None,
        "acc": sum(r.acc for r in valid) / len(valid) if valid else None,
        "per_track": {},
    }
    for track in sorted({r.track for r in valid if r.track}):
        subset = [r for r in valid if r.track == track]
        aggregate["per_track"][track] = {
            "n": len(subset),
            "em": sum(r.em for r in subset) / len(subset),
            "acc": sum(r.acc for r in subset) / len(subset),
        }
    return {"records": [r.to_dict() for r in records], "aggregate": aggregate}


def format_report(report: dict) -> str:
    """Human-readable table for stdout; the JSON report stays authoritative."""
    lines = []
    header = f"{'id':<12} {'track':<9} {'em':>3} {'acc':>4} {'ms':>6}  prediction"
    lines.append(header)
    lines.append("-" * len(header))
    for record in report["records"]:
        predicted = record["predicted"]
        if len(predicted) > 48:
            predicted = predicted[:45] + "..."
        status = record["error"] or predicted
        lines.append(
            f"{record['question_id']:<12} {record['track'] or '-':<9} "
            f"{record['em']:>3} {record['acc']:>4} {record['latency_ms']:>6}  {status}"
        )
    agg = report["aggregate"]
    em = "n/a" if agg["em"] is None else f"{agg['em']:.3f}"
    acc = "n/a" if agg["acc"] is None else f"{agg['acc']:.3f}"
    lines.append("-" * len(header))
    lines.append(f"n={agg['n']} invalid={agg['invalid']} EM={em} ACC={acc}")
    for track, stats in agg["per_track"].items():
        lines.append(f"  {track}: n={stats['n']} EM={stats['em']:.3f} ACC={stats['acc']:.3f}")
    return "\n".join(lines)
