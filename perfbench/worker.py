"""One workload in a fresh interpreter, importing ``dualtrack`` from ``src/``.

``worker.py setup DIR`` builds an ``Engine`` from ``DIR/config.json`` (which
loads the generated triples file) and prints ``ready``; the parent times it
from launch, so the import of the package is part of the measurement.

``worker.py run DIR --seconds S --trace 0|1`` runs the workload and prints
one JSON object with the raw measurements on its last line.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import dualtrack  # noqa: E402  (needs the path above)
from dualtrack import Engine, InMemoryTripleStore, Question, load_config  # noqa: E402
from dualtrack.engine import PACKAGED_PROMPTS  # noqa: E402
from dualtrack.llm import load_templates  # noqa: E402
from dualtrack.scoring import HashEmbedding, OverlapRerank  # noqa: E402


class Runner:
    """Builds instrumented engines over one loaded store and answers
    question lists through ``Engine.evaluate``."""

    def __init__(self, work: Path):
        from scripted import ScriptedLLM, TemplateIndex

        self.world = json.loads((work / "world.json").read_text(encoding="utf-8"))
        self.config = load_config(work / "config.json")
        self.store = InMemoryTripleStore.from_file(self.config.triples_file)
        self.index = TemplateIndex(load_templates(PACKAGED_PROMPTS))
        self.llm = ScriptedLLM(self.world, self.index)
        self.questions = [
            Question(id=q["id"], text=q["question"], gold_answers=q["gold"]) for q in self.world["questions"]
        ]

    def engine(self, tracer=None):
        """A fresh engine whose four providers count into a fresh ledger."""
        from providers import CountingEmbedder, CountingLLM, CountingReranker, CountingStore, Ledger

        latency = self.world["latency_ms"]
        ledger = Ledger()
        engine = Engine(
            self.config,
            store=CountingStore(self.store, latency["kg"], ledger, tracer),
            llm=CountingLLM(self.llm, latency["llm"], ledger, self.index, tracer),
            embedder=CountingEmbedder(HashEmbedding(self.config.dimension), latency["embed"], ledger, tracer),
            reranker=CountingReranker(OverlapRerank(), latency["rerank"], ledger, tracer),
        )
        return engine, ledger


def answer_all(engine: Engine, questions: list[Question]) -> dict:
    """Evaluate ``questions``; keep each answer and its latency."""
    lock = threading.Lock()
    latencies, answers = [], {}
    inner = engine.answer

    def timed(question):
        start = time.perf_counter()
        try:
            answer = inner(question)
        finally:
            with lock:
                latencies.append((time.perf_counter() - start) * 1000.0)
        with lock:
            answers[question.id] = answer
        return answer

    engine.answer = timed  # Engine.evaluate calls self.answer
    start = time.perf_counter()
    report = engine.evaluate(questions)
    wall_ms = (time.perf_counter() - start) * 1000.0
    engine.answer = inner
    return {"report": report, "latencies": latencies, "answers": answers, "wall_ms": wall_ms}


def _signature(answer) -> list:
    return [answer.text, sorted(answer.flags), answer.track.value if answer.track else None]


def check_answers(world: dict, counted: dict) -> list[str]:
    """Output gate over the counted questions; returns the failures.

    - the bundled movie questions must give the answers the acceptance tests
      pin: the birthdate on the one director -> spouse -> birthdate path,
      and the corrected parallel answer with one revised and one verified
      claim, each equal to a gold answer of ``data/questions.jsonl``;
    - a parallel answer whose claims all came back verified or revised must
      equal the planted gold: the planted relation is unique at each
      subject, so a verified claim is true and a revision states the KG's
      object;
    - a chained answer whose supporting paths hold the planted answer
      triple must equal the planted gold.
    """
    problems = []
    for q in world["questions"][: world["counted"]]:
        answer = counted["answers"].get(q["id"])
        if answer is None:
            problems.append(f"{q['id']}: no answer")
            continue
        if q["track"] == "parallel":
            statuses = [r.status.value for r in answer.verification]
            grounded = bool(statuses) and "unverifiable" not in statuses
        else:
            grounded = any(q["answer_triple"] in p.verbalize() for p in answer.supporting_paths)
        if (grounded or q.get("movie")) and answer.text not in q["gold"]:
            problems.append(f"{q['id']}: answer {answer.text!r} is not a gold answer {q['gold']!r}")
        if not q.get("movie"):
            continue
        if q["track"] == "chained":
            labels = [[h.triple.relation.label for h in p.hops] for p in answer.supporting_paths]
            if labels != [["director", "spouse", "birthdate"]]:
                problems.append(f"{q['id']}: movie supporting paths {labels!r}")
        elif sorted(statuses) != ["revised", "verified"]:
            problems.append(f"{q['id']}: movie verification statuses {sorted(statuses)!r}")
    return problems


def run(work: Path, seconds: float, trace: bool):
    """Returns the raw measurements and, for a traced run, the tracer."""
    # per-question warnings (classifier fallbacks, empty rewrites) are
    # expected here; keep them out of the measured loop
    logging.getLogger("dualtrack").setLevel(logging.ERROR)
    runner = Runner(work)
    world = runner.world
    counted_n = world["counted"]
    counted_qs = runner.questions[:counted_n]
    workers = runner.config.parallelism
    out = {"counted": counted_n, "workers": workers}

    engine, ledger = runner.engine()
    first = answer_all(engine, counted_qs)
    totals = ledger.snapshot()
    problems = check_answers(world, first)
    runs = [first]
    tracer = None

    if trace:
        from tracing import Tracer, instrument, layer_metrics

        tracer = Tracer()
        traced_engine, traced_ledger = runner.engine(tracer)
        with instrument(tracer):
            traced = answer_all(traced_engine, counted_qs)
        traced_totals = traced_ledger.snapshot()
        if {k: v for k, v in traced_totals.items() if not k.endswith(".ms")} != {
            k: v for k, v in totals.items() if not k.endswith(".ms")
        }:
            problems.append("traced provider call counts differ from the untraced run")
        for q in counted_qs:
            if _signature(traced["answers"][q.id]) != _signature(first["answers"][q.id]):
                problems.append(f"{q.id}: traced answer differs from the untraced one")
        layers = layer_metrics(tracer.spans, traced_totals, runner.index.names, traced["wall_ms"], workers)
        layers["evaluation.invalid"] = traced["report"]["aggregate"]["invalid"]
        layers["trace.overhead_ms"] = traced["wall_ms"] - first["wall_ms"]
        out["layers"] = layers
    else:
        # keep answering, in batches that keep every worker busy, until the
        # run's time is used up; counts come from the counted prefix only
        elapsed_ms = first["wall_ms"]
        batch = 1 if workers == 1 else 8 * workers
        position = counted_n
        while elapsed_ms < seconds * 1000.0:
            if position >= len(runner.questions):
                position = 0  # start the question list over
            more = answer_all(engine, runner.questions[position : position + batch])
            runs.append(more)
            elapsed_ms += more["wall_ms"]
            position += batch

    records = [r for run_ in runs for r in run_["report"]["records"]]
    out["latencies"] = [ms for run_ in runs for ms in run_["latencies"]]
    out["wall_ms"] = sum(run_["wall_ms"] for run_ in runs)
    out["attempted"] = len(records)
    out["failed"] = sum(1 for r in records if r["error"] or "error" in r["flags"])
    out["llm_calls"] = sum(totals.get(f"llm.{name}", 0) for name in runner.index.names + ["other"])
    out["prompt_chars"] = totals.get("llm.prompt_chars", 0)
    out["kg_queries"] = sum(totals.get(f"kg.{key}", 0) for key in ("resolve", "label", "fetch", "inventory"))
    out["em"] = sum(r["em"] for r in first["report"]["records"]) / counted_n
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["problems"] = problems
    return out, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("work", type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", type=Path, help="write the traced run's spans here (JSONL)")
    args = parser.parse_args(argv)
    if not Path(dualtrack.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"dualtrack imported from {dualtrack.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.mode == "setup":
        Engine(load_config(args.work / "config.json"))
        print("ready", flush=True)
        return 0
    out, tracer = run(args.work, args.seconds, bool(args.trace))
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
