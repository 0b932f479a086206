"""Spans around the calls into each layer, recorded only in the traced run.

:func:`instrument` rebinds module-level names of the package at run time
(and restores them afterwards), so the system under test needs no change.
Each span records its name, start, end, thread, parent span and root span
(the question it belongs to). Parents come from a per-thread stack, so the
evaluation workers' spans never mix. Spans stay in memory until
:meth:`Tracer.write` at the end of the run.

:func:`layer_metrics` turns the spans and the provider ledger into the
per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int
    root: int
    name: str
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(
            id=span_id,
            parent=parent.id if parent else 0,
            root=parent.root if parent else span_id,
            name=name,
            thread=threading.get_ident(),
            start=time.perf_counter(),
            attrs=attrs,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def _answer_attrs(args, kwargs, answer):
    return {"track": answer.track.value if answer.track else None, "flags": sorted(answer.flags)}


def _denoise_attrs(args, kwargs, kept):
    llm = args[3] if len(args) > 3 else kwargs.get("llm")
    return {"necessity": llm is not None, "in": len(args[0]), "out": len(kept)}


# (module, attribute, span name, attributes taken from the call and result).
# score_candidates, denoise and link_surface are bound into the calling
# modules by ``from ... import``, so they are rebound there too.
PATCHES = [
    ("dualtrack.engine", "Engine.answer", "engine", _answer_attrs),
    ("dualtrack.engine", "classify", "classifier", lambda a, k, r: {"fallback": r.fallback}),
    ("dualtrack.linking", "link_surface", "linking", None),
    ("dualtrack.chain", "link_surface", "linking", None),
    ("dualtrack.verify", "link_surface", "linking", None),
    ("dualtrack.chain", "expand", "chain.expand", None),
    ("dualtrack.chain", "check_sufficiency", "chain.sufficiency", lambda a, k, r: {"yes": bool(r)}),
    ("dualtrack.chain", "score_candidates", "scoring", None),
    ("dualtrack.verify", "score_candidates", "scoring", None),
    ("dualtrack.chain", "denoise", "denoise", _denoise_attrs),
    ("dualtrack.verify", "denoise", "denoise", _denoise_attrs),
    ("dualtrack.verify", "verify_fact", "verify.fact", lambda a, k, r: {"status": r.status.value}),
]


def _traced(fn, name, attrs_fn, tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            if attrs_fn is not None:
                span.attrs.update(attrs_fn(args, kwargs, result))
            return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind every name in :data:`PATCHES` to a traced wrapper for the
    duration of the block. A name the package no longer has is reported on
    stderr and skipped, so its layer reads zero."""
    restore = []
    wrapped = {}
    for module_name, attr, span_name, attrs_fn in PATCHES:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf, None)
        if original is None:
            print(f"tracing: {module_name}.{attr} not found; layer not traced", file=sys.stderr)
            continue
        if id(original) not in wrapped:
            wrapped[id(original)] = _traced(original, span_name, attrs_fn, tracer)
        setattr(owner, leaf, wrapped[id(original)])
        restore.append((owner, leaf, original))
    try:
        yield tracer
    finally:
        for owner, leaf, original in reversed(restore):
            setattr(owner, leaf, original)


def _covered_ms(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` covered by the union of ``children``."""
    total, cursor = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        start, end = max(child.start, cursor), min(child.end, span.end)
        if end > start:
            total += end - start
            cursor = end
    return total * 1000.0


def layer_metrics(spans: list[Span], ledger: dict, templates: list[str], evaluate_ms: float, workers: int) -> dict:
    """Per-layer numbers from one traced pass. Counts and times are totals
    over the pass."""
    children: dict[int, list[Span]] = {}
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def total_ms(name):
        return sum(s.ms for s in named(name))

    def self_ms(name):
        return sum(s.ms - _covered_ms(s, children.get(s.id, [])) for s in named(name))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    llm_calls = llm_unique = 0
    for name in templates:
        calls, unique = ledger.get(f"llm.{name}", 0), ledger.get(f"llm.{name}.unique", 0)
        m[f"llm.calls.{name}"] = calls
        m[f"llm.unique.{name}"] = unique
        llm_calls += calls
        llm_unique += unique
    m["llm.ms"] = sum(v for k, v in ledger.items() if k.startswith("llm.") and k.endswith(".ms"))
    m["llm.unique_ratio"] = ratio(llm_unique, llm_calls)

    m["kg.fetches"] = ledger.get("kg.fetch", 0)
    m["kg.unique_entities"] = ledger.get("kg.fetch.unique", 0)
    m["kg.triples_returned"] = ledger.get("kg.triples", 0)
    m["kg.ms"] = sum(v for k, v in ledger.items() if k.startswith("kg.") and k.endswith(".ms"))

    m["scoring.embed_calls"] = ledger.get("embed.calls", 0)
    m["scoring.embed_texts"] = ledger.get("embed.texts", 0)
    m["scoring.embed_unique_texts"] = ledger.get("embed.texts.unique", 0)
    m["scoring.rerank_calls"] = ledger.get("rerank.calls", 0)
    m["scoring.rerank_texts"] = ledger.get("rerank.texts", 0)
    m["scoring.self_ms"] = self_ms("scoring")

    rule = [s for s in named("denoise") if not s.attrs.get("necessity")]
    necessity = [s for s in named("denoise") if s.attrs.get("necessity")]
    necessity_calls = sum(
        1 for s in necessity for c in children.get(s.id, []) if c.attrs.get("template") == "necessity"
    )
    necessity_dropped = sum(s.attrs["in"] - s.attrs["out"] for s in necessity)
    m["denoise.rule_dropped"] = sum(s.attrs["in"] - s.attrs["out"] for s in rule)
    m["denoise.necessity_calls"] = necessity_calls
    m["denoise.necessity_dropped"] = necessity_dropped
    m["denoise.necessity_drop_ratio"] = ratio(necessity_dropped, necessity_calls)
    m["denoise.ms"] = total_ms("denoise")

    m["linking.calls"] = len(named("linking"))
    m["linking.fuzzy_fallbacks"] = ledger.get("kg.inventory", 0)
    m["linking.ms"] = total_ms("linking")

    sufficiency = named("chain.sufficiency")
    m["chain.expansions"] = len(named("chain.expand"))
    m["chain.expand_self_ms"] = self_ms("chain.expand")
    m["chain.sufficiency_calls"] = len(sufficiency)
    m["chain.sufficiency_yes_ratio"] = ratio(sum(s.attrs.get("yes", False) for s in sufficiency), len(sufficiency))
    m["chain.select_calls"] = ledger.get("llm.select_relations", 0)
    m["chain.early_stops"] = sum(
        1 for s in named("engine")
        if s.attrs.get("track") == "chained" and "insufficient" not in s.attrs.get("flags", ())
    )

    facts = named("verify.fact")
    phases: dict[int, list[Span]] = {}
    for s in facts:
        phases.setdefault(s.root, []).append(s)
    m["verify.facts"] = len(facts)
    for status in ("verified", "revised", "unverifiable"):
        m[f"verify.{status}"] = sum(1 for s in facts if s.attrs.get("status") == status)
    m["verify.fact_ms_sum"] = sum(s.ms for s in facts)
    # wall time of each question's claim-verification phase
    m["verify.ms"] = sum(
        (max(s.end for s in group) - min(s.start for s in group)) * 1000.0 for group in phases.values()
    )

    classified = named("classifier")
    m["classifier.calls"] = len(classified)
    m["classifier.fallbacks"] = sum(1 for s in classified if s.attrs.get("fallback"))
    m["classifier.ms"] = total_ms("classifier")

    m["evaluation.worker_busy_ratio"] = ratio(total_ms("engine"), evaluate_ms * workers)
    m["engine.self_ms"] = self_ms("engine")
    m["trace.spans"] = len(spans)
    return m
