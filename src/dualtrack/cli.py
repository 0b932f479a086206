"""Command-line surface.

Subcommands: answer, classify, verify, chain, denoise, eval. Exit codes:
0 success, 1 input error (bad flags, missing files, bad config), 2 a
failure of the KG endpoint or the LLM, embedding or rerank provider: no
connection, an error status, or a malformed reply.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .classifier import Question
from .config import load_config
from .engine import Engine
from .evaluation import format_report, load_dataset
from .kg import load_triples
from .transport import ProviderError

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract says 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dualtrack", description=__doc__)
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--stub-script", help="path to scripted stub-LLM responses (JSON)")
    parser.add_argument("--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, descr in (
        ("answer", "classify the question and run the matching track"),
        ("classify", "print the routed track and the raw classifier reply"),
        ("verify", "run the parallel fact-verification track"),
        ("chain", "run the chained reasoning track and print the explored tree"),
    ):
        cmd = sub.add_parser(name, help=descr)
        cmd.add_argument("--question", required=True)

    cmd = sub.add_parser("denoise", help="inspect the denoiser's verdict per triple")
    cmd.add_argument("--question", required=True)
    cmd.add_argument("--triples", required=True, help="fixture triples file")

    cmd = sub.add_parser("eval", help="run a JSONL dataset and write a report")
    cmd.add_argument("--dataset", required=True)
    cmd.add_argument("--out", required=True, help="where to write the JSON report")
    return parser


def _question(text: str) -> Question:
    return Question(id="cli", text=text)


def _cmd_classify(engine: Engine, args) -> int:
    decision = engine.classify(_question(args.question))
    print(decision.track.value)
    print(decision.raw_response)
    return 0


def _cmd_answer(engine: Engine, args) -> int:
    answer = engine.answer(_question(args.question))
    print(json.dumps(answer.to_dict(), indent=2))
    return 0


def _cmd_verify(engine: Engine, args) -> int:
    answer = engine.verify(_question(args.question))
    payload = {
        "draft": answer.draft,
        "verification": [v.to_dict() for v in answer.verification],
        "answer": answer.text,
        "flags": sorted(answer.flags),
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_chain(engine: Engine, args) -> int:
    trace: list = []
    answer = engine.chain(_question(args.question), trace=trace)
    for depth, description, score in trace:
        print(f"{'  ' * depth}{description} (score={score:.4f})")
    print(json.dumps(answer.to_dict(), indent=2))
    return 0


def _cmd_denoise(engine: Engine, args) -> int:
    triples = load_triples(args.triples)
    for triple, kept, reason in engine.explain_denoise(triples, _question(args.question)):
        verdict = "KEEP" if kept else "DROP"
        print(f"{verdict} ({triple.text})" + ("" if kept else f"  [{reason}]"))
    return 0


def _cmd_eval(engine: Engine, args) -> int:
    questions, skipped = load_dataset(args.dataset)
    report = engine.evaluate(questions)
    report["aggregate"]["skipped_lines"] = skipped
    Path(args.out).write_text(json.dumps(report, indent=2), encoding="utf-8")
    print(format_report(report))
    if skipped:
        print(f"skipped {skipped} malformed dataset line(s)")
    print(f"report written to {args.out}")
    return 0


_HANDLERS = {
    "answer": _cmd_answer,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "chain": _cmd_chain,
    "denoise": _cmd_denoise,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # covers --help (0) and usage errors (1)
        return int(exc.code or 0)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        config = load_config(args.config)
        engine = Engine(config, stub_script=args.stub_script)
        return _HANDLERS[args.command](engine, args)
    except ProviderError as exc:
        sys.stderr.write(f"provider failure: {exc}\n")
        return 2
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
