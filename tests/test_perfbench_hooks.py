"""Guard for the benchmark's per-layer tracing.

``perfbench/tracing.py`` rebinds package names at run time; a renamed or
re-signed function there silently reads zero. These tests load that module
as it is and check that every hook still resolves and records its span.
"""

import importlib
import importlib.util
import json
import math
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from conftest import MOVIE_LINES, RecordingEmbedding
from dualtrack import chain, verify
from dualtrack import denoise as denoise_module
from dualtrack.classifier import Question
from dualtrack.config import EngineConfig
from dualtrack.engine import Engine
from dualtrack.kg import EntityRef, InMemoryTripleStore, parse_triples
from dualtrack.llm import StubLLM
from oracles import keyword_rule
from test_cli import CHAINED_Q, PARALLEL_Q, STUB_SCRIPT

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPT = [(e["match_substring"], e["response"]) for e in STUB_SCRIPT]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_patch_target_resolves(tracing):
    missing = [f"{m}.{a}" for m, a, _, _ in tracing.PATCHES if _resolve(m, a) is None]
    assert missing == []


def _engine(llm=None, embedder=None):
    return Engine(
        EngineConfig(theta_search=0.0),
        store=InMemoryTripleStore(parse_triples(MOVIE_LINES)),
        llm=llm or StubLLM(script=SCRIPT),
        embedder=embedder,
    )


def test_traced_movie_questions_record_every_layer(tracing, capsys):
    questions = [Question(id="q1", text=CHAINED_Q), Question(id="q2", text=PARALLEL_Q)]
    untraced = [_engine().answer(q).to_dict() for q in questions]
    originals = {(m, a): _resolve(m, a) for m, a, _, _ in tracing.PATCHES}

    engine = _engine()
    traced, spans = [], {}
    for question in questions:  # one tracer per question, so each track shows its own layers
        with tracing.instrument(tracing.Tracer()) as tracer:
            traced.append(engine.answer(question).to_dict())
        spans[question.id] = tracer.spans

    assert "not found" not in capsys.readouterr().err
    assert traced == untraced
    assert {(m, a): _resolve(m, a) for m, a, _, _ in tracing.PATCHES} == originals
    names = {span.name for track_spans in spans.values() for span in track_spans}
    for layer in (
        "engine",
        "classifier",
        "linking",
        "chain.expand",
        "chain.sufficiency",
        "scoring",
        "verify.fact",
        "denoise",
    ):
        assert layer in names, layer
    for question in questions:  # each track passes its own module's scoring and denoise names
        track_spans = spans[question.id]
        assert any(s.name == "scoring" for s in track_spans), question.id
        assert any(s.name == "denoise" and s.attrs["necessity"] for s in track_spans), question.id
    tracks = [s.attrs["track"] for q in questions for s in spans[q.id] if s.name == "engine"]
    assert tracks == ["chained", "parallel"]


# per-layer names that perfbench/worker.py adds beside layer_metrics' own
WORKER_LAYERS = {"evaluation.invalid", "trace.overhead_ms"}


def test_layer_metrics_name_every_declared_per_layer_metric(tracing, monkeypatch, templates):
    """A traced run reports each ``per_layer`` name of BENCHMARK.json with a
    finite number: names built from the packaged templates and from the
    rebound package names must not drift from the declared ones."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # scripted.py imports workloads
    providers, scripted = _load("providers"), _load("scripted")
    tracer, ledger = tracing.Tracer(), providers.Ledger()
    index = scripted.TemplateIndex(templates)
    engine = Engine(
        EngineConfig(theta_search=0.0),
        store=providers.CountingStore(InMemoryTripleStore(parse_triples(MOVIE_LINES)), 0, ledger, tracer),
        llm=providers.CountingLLM(StubLLM(script=SCRIPT), 0, ledger, index, tracer),
    )
    with tracing.instrument(tracer):
        for question in (Question(id="q1", text=CHAINED_Q), Question(id="q2", text=PARALLEL_Q)):
            engine.answer(question)
    layers = tracing.layer_metrics(tracer.spans, ledger.snapshot(), index.names, 1.0, 1)

    declared = {m["name"] for m in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(layers) | WORKER_LAYERS == declared
    assert all(type(v) in (int, float) and math.isfinite(v) for v in layers.values()), layers


def test_movie_questions_send_no_prompt_twice(monkeypatch, templates):
    """Call budget: within a question every distinct prompt reaches the LLM
    once, so each template's call count equals its distinct-prompt count."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # scripted.py imports workloads
    providers, scripted = _load("providers"), _load("scripted")
    ledger = providers.Ledger()
    index = scripted.TemplateIndex(templates)
    engine = _engine(providers.CountingLLM(StubLLM(script=SCRIPT), 0, ledger, index))
    for question in (Question(id="q1", text=CHAINED_Q), Question(id="q2", text=PARALLEL_Q)):
        engine.answer(question)

    counts = ledger.snapshot()
    budget = {
        name: (counts.get(f"llm.{name}", 0), counts.get(f"llm.{name}.unique", 0))
        for name in index.names + ["other"]
    }
    assert all(calls == unique for calls, unique in budget.values()), budget
    assert budget["necessity"][0] > 0
    assert budget["other"] == (0, 0)


def test_movie_questions_embed_each_query_and_entity_once():
    """Embedding budget: over both questions each distinct query text and
    each distinct entity reaches the embedder once, in one request: a
    query's one text, or every distinct text of the entity's triples that
    the keyword rule keeps (Inception's ``wikidata:id`` is never embedded).
    The chain grounds Inception, Christopher Nolan and Emma Thomas; both
    claims are about Inception, whose rows the chain already fetched."""
    embedder = RecordingEmbedding(256)
    engine = _engine(embedder=embedder)
    engine.answer(Question(id="q1", text=CHAINED_Q))
    claims = [result.fact.text for result in engine.answer(Question(id="q2", text=PARALLEL_Q)).verification]

    store = InMemoryTripleStore(parse_triples(MOVIE_LINES))

    def entity_texts(qid, label):
        entity = EntityRef(qid, label)
        triples = store.head_relations(entity) + store.tail_relations(entity)
        return tuple(dict.fromkeys(t.text for t in triples if not keyword_rule(t.relation.label, k_invalid)))

    k_invalid = engine.config.k_invalid

    expected = [(CHAINED_Q,)] + [(claim,) for claim in claims] + [
        entity_texts("QF1", "Inception"),
        entity_texts("QF2", "Christopher Nolan"),
        entity_texts("QF3", "Emma Thomas"),
    ]
    assert len(claims) == 2
    assert not any("wikidata:id" in text for request in embedder.requests for text in request)
    assert Counter(embedder.requests) == Counter(expected)


def test_movie_questions_stay_within_the_grounding_work_budget(monkeypatch):
    """Work budget: within each grounding step the keyword rule runs at most
    once per distinct relation label."""
    rule_calls = []  # (thread, label)
    rule_filter = denoise_module.rule_filter

    def counted_rule(relation, cfg):
        rule_calls.append((threading.get_ident(), relation.label))
        return rule_filter(relation, cfg)

    monkeypatch.setattr(denoise_module, "rule_filter", counted_rule)

    steps = []  # (rule labels seen in the step, the step's relation labels)

    def counted(ground):
        def wrapper(query_text, triples, *rest):
            me, before = threading.get_ident(), len(rule_calls)
            try:
                return ground(query_text, triples, *rest)
            finally:  # claims ground on several threads at once
                seen = [label for thread, label in rule_calls[before:] if thread == me]
                steps.append((seen, {t.relation.label for t in triples}))

        return wrapper

    for module in (chain, verify):
        monkeypatch.setattr(module, "ground", counted(module.ground))

    engine = _engine()
    for question in (Question(id="q1", text=CHAINED_Q), Question(id="q2", text=PARALLEL_Q)):
        engine.answer(question)

    assert len(steps) > 2 and sum(len(seen) for seen, _ in steps) > 0
    for seen, labels in steps:
        assert len(seen) == len(set(seen)) and set(seen) <= labels, (seen, labels)
