"""Engine routing and the command-line surface: subcommands, exit codes,
and the no-network guarantee of stub mode."""

import json
import os
import random
import shutil
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MOVIE_LINES, DownSession, RecordingEmbedding, RecordingStore
from dualtrack import chain, scoring, transport, verify
from dualtrack.classifier import Question, QuestionType
from dualtrack.cli import main
from dualtrack.config import EngineConfig, load_config
from dualtrack.engine import PACKAGED_PROMPTS, Engine, Pipeline
from dualtrack.evaluation import evaluate
from dualtrack.kg import CachedStore, InMemoryTripleStore, SparqlClient, parse_triples
from dualtrack.llm import MemoLLM, StubLLM
from dualtrack.scoring import CachedEmbedder, HashEmbedding, HttpEmbedding, HttpRerank, OverlapRerank, cosines
from dualtrack.transport import ProviderError
from oracles import RELATION_WORDS, build_store, necessity_script, random_graph_lines, random_necessity, random_question

CHAINED_Q = "When was the wife of the Inception director born?"
PARALLEL_Q = "Who directed Inception and when was it released?"

STUB_SCRIPT = [
    {"match_substring": f'Question: "{CHAINED_Q}"', "response": "yes"},
    {"match_substring": f'Question: "{PARALLEL_Q}"', "response": "no"},
    {"match_substring": "Name the single core entity", "response": "Inception"},
    {"match_substring": "Sufficient (yes/no)", "response": "no"},
    {"match_substring": "(Emma Thomas, birthdate, 1975-05-26)", "response": "yes"},
    {
        "match_substring": "Answer the question using only the facts in the reasoning paths",
        "response": "Emma Thomas was born on 1975-05-26.",
    },
    {
        "match_substring": "in one or two short sentences",
        "response": "Inception was directed by James Cameron. Inception was released in 2010.",
    },
    {
        "match_substring": "Split the response into atomic facts",
        "response": "Inception was directed by James Cameron. | Inception\nInception was released in 2010. | Inception",
    },
    {"match_substring": "James Cameron", "response": "no"},
    {"match_substring": "released in 2010", "response": "yes"},
    {"match_substring": "Rewrite the claim so that it agrees", "response": "Inception was directed by Christopher Nolan."},
    {
        "match_substring": "Compose the corrected final answer",
        "response": "Inception was directed by Christopher Nolan and released in 2010.",
    },
    {"match_substring": "Rate how necessary the relation is", "response": "0.9"},
]


@pytest.fixture
def workspace(tmp_path):
    triples = tmp_path / "movies.triples"
    triples.write_text("\n".join(MOVIE_LINES) + "\n", encoding="utf-8")
    script = tmp_path / "stub.json"
    script.write_text(json.dumps(STUB_SCRIPT), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"triples_file": str(triples), "theta_search": 0.0}), encoding="utf-8"
    )
    dataset = tmp_path / "qs.jsonl"
    dataset.write_text(
        json.dumps({"id": "q1", "question": CHAINED_Q, "gold_answers": ["1975-05-26", "Emma Thomas was born on 1975-05-26."]})
        + "\n"
        + json.dumps({"id": "q2", "question": PARALLEL_Q, "gold_answers": ["Inception was directed by Christopher Nolan and released in 2010."]})
        + "\n"
        + "not json\n",
        encoding="utf-8",
    )
    return tmp_path


def _cli(workspace, *args):
    return main(
        ["--config", str(workspace / "config.json"), "--stub-script", str(workspace / "stub.json"), *args]
    )


# ---------------------------------------------------------------------------
# engine routing
# ---------------------------------------------------------------------------


def _engine(workspace, llm=None, **overrides):
    config = EngineConfig(
        triples_file=str(workspace / "movies.triples"), theta_search=0.0, **overrides
    )
    if llm is None:
        return Engine(config, stub_script=workspace / "stub.json")
    return Engine(config, llm=llm)


def test_engine_routes_chained_question(workspace):
    answer = _engine(workspace).answer(Question(id="1", text=CHAINED_Q))
    assert answer.track is QuestionType.CHAINED
    assert answer.supporting_paths
    assert "1975" in answer.text


def test_engine_routes_parallel_question(workspace):
    answer = _engine(workspace).answer(Question(id="2", text=PARALLEL_Q))
    assert answer.track is QuestionType.PARALLEL
    assert len(answer.verification) == 2
    assert "Christopher Nolan" in answer.text


def test_engine_classifier_fallback_flag(workspace):
    engine = _engine(workspace, llm=StubLLM(default="shrug"))  # unparseable classification
    answer = engine.answer(Question(id="3", text="Opaque question?"))
    assert answer.track is QuestionType.CHAINED
    assert "classifier_fallback" in answer.flags


def test_engine_branch_failure_becomes_flagged_answer(workspace, monkeypatch):
    engine = _engine(workspace)

    def explode(question, trace=None):
        raise RuntimeError("branch blew up")

    monkeypatch.setattr(engine, "chain", explode)
    answer = engine.answer(Question(id="4", text=CHAINED_Q))
    assert "error" in answer.flags
    assert answer.track is QuestionType.CHAINED


class _ShortEmbedding(HashEmbedding):
    """Returns one row fewer than it was asked for."""

    def embed(self, texts):
        return super().embed(texts)[:-1]


@pytest.mark.parametrize("text", ["¿??"], ids=["zero_query_vector"])
def test_engine_evaluate_branch_failure_is_invalid(workspace, text):
    # "¿??" has no word token, so its query vector is all zero (ZeroVector)
    config = EngineConfig(triples_file=str(workspace / "movies.triples"), theta_search=0.0)
    engine = Engine(config, stub_script=workspace / "stub.json")
    report = engine.evaluate([Question(id="e", text=text, gold_answers=["1975-05-26"])])
    (record,) = report["records"]
    assert "error" in record["flags"]
    assert record["error"] == "engine: branch failed"
    assert report["aggregate"]["invalid"] == 1
    assert report["aggregate"]["em"] is None


def test_engine_denoise_asks_each_relation_label_once(workspace):
    triples = parse_triples([f"QF1|Inception|PF9|nominated for|QF{i}|award {i}" for i in range(10, 15)])
    stub = StubLLM(default="0.9")
    rows = _engine(workspace, llm=stub).explain_denoise(triples, Question(id="d", text="Which awards?"))
    assert [kept for _, kept, _ in rows] == [True] * 5
    assert len(stub.calls) == 1


def test_engine_transport_failure_propagates(workspace, monkeypatch):
    engine = _engine(workspace)

    def explode(question, trace=None):
        raise ProviderError("endpoint down")

    monkeypatch.setattr(engine, "chain", explode)
    with pytest.raises(ProviderError):
        engine.answer(Question(id="5", text=CHAINED_Q))


def test_engine_stub_mode_touches_no_network(workspace, monkeypatch):
    def no_network(*args, **kwargs):
        raise AssertionError("network access attempted")

    monkeypatch.setattr(requests.Session, "request", no_network)
    monkeypatch.setattr(requests, "get", no_network)
    monkeypatch.setattr(requests, "post", no_network)
    engine = _engine(workspace)
    for text in (CHAINED_Q, PARALLEL_Q):
        engine.answer(Question(id="x", text=text))
    report = engine.evaluate([Question(id="y", text=CHAINED_Q, gold_answers=["1975-05-26"])])
    assert report["aggregate"]["n"] == 1


@pytest.mark.parametrize(
    "down, message",
    [
        (
            {"embedder": HttpEmbedding("http://emb.test", dimension=256, session=DownSession())},
            "embedding endpoint failed",
        ),
        ({"reranker": HttpRerank("http://rr.test", session=DownSession())}, "rerank endpoint failed"),
        ({"embedder": _ShortEmbedding(256)}, "embedder returned"),  # score_candidates' row-count check
    ],
    ids=["embedding", "rerank", "short_embedding"],
)
def test_engine_evaluate_provider_outage_is_invalid(workspace, down, message):
    config = EngineConfig(triples_file=str(workspace / "movies.triples"), theta_search=0.0)
    engine = Engine(config, stub_script=workspace / "stub.json", **down)
    report = engine.evaluate(
        [
            Question(id="q1", text=CHAINED_Q, gold_answers=["1975-05-26"]),
            Question(id="q2", text=PARALLEL_Q, gold_answers=["2010"]),
        ]
    )
    assert report["aggregate"]["invalid"] == 2
    assert report["aggregate"]["em"] is None
    for record in report["records"]:
        assert message in record["error"]


def test_engine_evaluate_uses_configured_tau_and_parallelism(workspace):
    engine = _engine(workspace, parallelism=2, tau=0.4)
    questions = [
        Question(id="q1", text=CHAINED_Q, gold_answers=["Emma Thomas was born on 1975-05-26."]),
        Question(id="q2", text=PARALLEL_Q, gold_answers=["Inception was directed by Christopher Nolan and released in 2010."]),
    ]
    report = engine.evaluate(questions)
    assert report["aggregate"]["n"] == 2
    assert report["aggregate"]["acc"] == 1.0


def _evaluate_within(engine, questions, seconds=60.0):
    reports = []
    worker = threading.Thread(target=lambda: reports.append(engine.evaluate(questions)), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"evaluation still running after {seconds} s"
    return reports[0]


def test_engine_evaluate_parallel_questions_share_the_leaf_executor(workspace):
    questions = [Question(id=f"q{i}", text=PARALLEL_Q, gold_answers=["2010"]) for i in range(12)]
    answers = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so shared state is contended
    try:
        for parallelism in (1, 4):
            engine = _engine(workspace, parallelism=parallelism, theta_necessity=0.5)
            report = _evaluate_within(engine, questions)
            answers.append([(r["question_id"], r["track"], r["predicted"], r["flags"]) for r in report["records"]])
    finally:
        sys.setswitchinterval(interval)
    assert answers[0] == answers[1]
    assert {track for _, track, _, _ in answers[0]} == {"parallel"}
    assert all(flags == [] for _, _, _, flags in answers[0])


def test_leaves_refuses_a_submit_from_a_leaf_task(workspace):
    """A leaf task that submits to LEAVES gets a RuntimeError at once, where
    its task could otherwise wait for a free leaf thread forever; question
    and claim threads still submit, so both movie questions answer."""
    refused = transport.LEAVES.submit(transport.LEAVES.submit, sum, [1, 2])
    with pytest.raises(RuntimeError, match="leaf task"):
        refused.result(timeout=30)
    assert transport.LEAVES.submit(sum, [1, 2]).result(timeout=30) == 3

    engine = _engine(workspace, theta_necessity=0.5)
    chained = engine.answer(Question(id="c", text=CHAINED_Q))
    parallel = engine.answer(Question(id="p", text=PARALLEL_Q))
    assert (chained.text, chained.flags) == ("Emma Thomas was born on 1975-05-26.", set())
    assert parallel.text == "Inception was directed by Christopher Nolan and released in 2010."
    assert sorted(r.status.value for r in parallel.verification) == ["revised", "verified"]


def test_grounding_scores_on_the_thread_that_called_ground(workspace, monkeypatch):
    """Every leaf task is one provider request: the cosines of both movie
    questions are taken off the leaf executor, and each step's
    ``score_candidates`` runs on the thread that grounds the step, the one
    that called ``chain.expand`` or ``verify.verify_fact``."""
    cosine_threads = []  # the name of the thread of each cosines call
    grounding = threading.local()  # the track and thread of the step this thread grounds
    score_threads = []  # (track, thread that grounds, thread that scored)

    def recorded_cosines(*args):
        cosine_threads.append(threading.current_thread().name)
        return cosines(*args)

    def recorded_step(track, step):
        def recorded(*args):
            grounding.step = (track, threading.current_thread().name)
            try:
                return step(*args)
            finally:
                del grounding.step  # scoring outside a step raises, and flags its answer

        return recorded

    def recorded_score(score):
        def recorded(*args):
            score_threads.append((*grounding.step, threading.current_thread().name))
            return score(*args)

        return recorded

    monkeypatch.setattr(scoring, "cosines", recorded_cosines)
    monkeypatch.setattr(chain, "expand", recorded_step("chained", chain.expand))
    monkeypatch.setattr(verify, "verify_fact", recorded_step("parallel", verify.verify_fact))
    for module in (chain, verify):
        monkeypatch.setattr(module, "score_candidates", recorded_score(module.score_candidates))
    engine = _engine(workspace, theta_necessity=0.5)
    answers = [engine.answer(Question(id="c", text=CHAINED_Q)), engine.answer(Question(id="p", text=PARALLEL_Q))]
    assert [answer.flags for answer in answers] == [set(), set()]
    assert cosine_threads and not [name for name in cosine_threads if name.startswith("leaf")]
    assert {track for track, _, _ in score_threads} == {"chained", "parallel"}
    assert all(caller == scorer for _, caller, scorer in score_threads)


def test_engine_sends_each_kg_query_once_per_run(workspace):
    questions = [Question(id="c", text=CHAINED_Q), Question(id="p", text=PARALLEL_Q)]
    store = RecordingStore(InMemoryTripleStore.from_file(workspace / "movies.triples"))
    engine = Engine(EngineConfig(theta_search=0.0), store=store, stub_script=workspace / "stub.json")
    first = [json.dumps(engine.answer(q).to_dict(), sort_keys=True) for q in questions]
    sent = len(store.calls)
    assert sent > 0
    second = [json.dumps(engine.answer(q).to_dict(), sort_keys=True) for q in questions]
    assert len(store.calls) == sent
    assert second == first

    store = RecordingStore(InMemoryTripleStore.from_file(workspace / "movies.triples"))
    engine = Engine(EngineConfig(theta_search=0.0, parallelism=4), store=store, stub_script=workspace / "stub.json")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        report = _evaluate_within(engine, [Question(id=f"q{i}", text=q.text) for i, q in enumerate(questions * 6)])
    finally:
        sys.setswitchinterval(interval)
    assert report["aggregate"]["invalid"] == 0
    assert len(store.calls) == sent
    assert set(Counter(store.calls).values()) == {1}


def test_engine_sends_each_llm_prompt_once_per_run(workspace):
    questions = [Question(id="c", text=CHAINED_Q), Question(id="p", text=PARALLEL_Q)]
    script = [(e["match_substring"], e["response"]) for e in STUB_SCRIPT]
    store = InMemoryTripleStore.from_file(workspace / "movies.triples")

    def signature(answer):
        return json.dumps(answer.to_dict(), sort_keys=True)

    serial_llm = StubLLM(script=script)
    serial = Engine(EngineConfig(theta_search=0.0), store=store, llm=serial_llm)
    expected = {q.text: signature(serial.answer(q)) for q in questions}

    stub = StubLLM(script=script)
    engine = Engine(EngineConfig(theta_search=0.0, parallelism=4), store=store, llm=stub)
    answers = {}
    route = engine.answer

    def answer(question):  # Engine.evaluate calls self.answer; keep each whole answer
        result = route(question)
        answers[question.id] = signature(result)
        return result

    engine.answer = answer
    repeated = [Question(id=f"q{i}", text=q.text) for i, q in enumerate(questions * 6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        report = _evaluate_within(engine, repeated)
    finally:
        sys.setswitchinterval(interval)
    assert report["aggregate"]["invalid"] == 0
    assert answers == {q.id: expected[q.text] for q in repeated}
    assert set(Counter(stub.calls).values()) == {1}
    assert Counter(stub.calls) == Counter(serial_llm.calls)


def _random_questions(rng: random.Random, node_count: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Questions of both tracks over an oracle graph of ``node_count``
    nodes, and the stub script that answers them. Subjects are linked
    exactly, by case folding, by edit distance, or not at all."""
    script = []

    def surface(node):
        return rng.choice([f"node{node}", f"NODE{node}", f"node{node}x", "nothing here"])

    texts = []
    for i in range(rng.randint(2, 4)):
        if rng.random() < 0.5:
            text = random_question(rng, node_count)
            node = text.rsplit("node", 1)[1].rstrip("?")
            script += [
                (f'Question: "{text}"', "yes"),
                (f"Question:\n{text}\n\nCore entity:", surface(node)),
            ]
        else:
            text = f"what is true of node{rng.randrange(node_count) + 1}, case {i}?"
            facts = []
            for j in range(rng.randint(1, 3)):
                subject = surface(rng.randrange(node_count) + 1)
                fact = f"{subject} {rng.choice(RELATION_WORDS)} something, claim {i}.{j}."
                facts.append(f"{fact} | {subject}")
                if rng.random() < 0.5:
                    script.append((f"Claim: {fact}\n\nTriples", "yes"))
            script += [
                (f'Question: "{text}"', "no"),
                (f"Question:\n{text}\n\nAnswer:", f"draft {i}"),
                (f"Response:\ndraft {i}\n", "\n".join(facts)),
            ]
        texts.append(text)
    return texts, script


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_engine_answers_alike_with_a_cold_warm_or_shared_kg_cache(seed):
    rng = random.Random(seed)
    lines, node_count = random_graph_lines(rng, max_nodes=18)
    store = build_store(lines)
    texts, script = _random_questions(rng, node_count)
    script += necessity_script(random_necessity(rng))

    def engine(llm=None, embedder=None):
        config = EngineConfig(alpha=0.5, dimension=48, d_max=3, w_max=3, theta_search=0.12, theta_necessity=0.5)
        return Engine(
            config, store=store, llm=llm or StubLLM(script=script, default="no"),
            embedder=embedder or HashEmbedding(48), reranker=OverlapRerank(),
        )

    def signature(answer):
        return json.dumps(answer.to_dict(), sort_keys=True)

    fresh = {text: signature(engine().answer(Question(id="f", text=text))) for text in texts}
    shared_llm = StubLLM(script=script, default="no")
    shared_embedder = RecordingEmbedding(48)
    shared = engine(shared_llm, shared_embedder)
    questions = [Question(id=f"q{i}", text=text) for i, text in enumerate(texts * 3)]
    for _ in ("cold", "warm"):
        answers = {}

        def answer(question):  # Engine.evaluate's route, keeping each whole answer
            result = shared.answer(question)
            answers[question.id] = signature(result)
            return result

        report = evaluate(questions, answer, parallelism=4)
        assert report["aggregate"]["invalid"] == 0
        assert answers == {q.id: fresh[q.text] for q in questions}
    # over both passes, the shared engine sent each distinct prompt once
    assert set(Counter(shared_llm.calls).values()) == {1}
    # and one embedding request per distinct query text and per distinct
    # entity: a query's one text, or every distinct text of the entity's triples
    keys = list(shared.pipeline.embedder._rows._entries)
    expected = [
        (key,) if isinstance(key, str)  # a query text; else an EntityRef
        else tuple(dict.fromkeys(t.text for t in store.head_relations(key) + store.tail_relations(key)))
        for key in keys
    ]
    assert Counter(shared_embedder.requests) == Counter(expected)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_engine_evaluate_gives_the_same_records_at_parallelism_one_and_four(seed):
    rng = random.Random(seed)
    lines, node_count = random_graph_lines(rng, max_nodes=18)
    store = build_store(lines)
    texts, script = _random_questions(rng, node_count)
    script += necessity_script(random_necessity(rng))
    questions = [
        Question(id=f"q{i}", text=text, gold_answers=[rng.choice(["no", "yes", text])])
        for i, text in enumerate(texts * 2)
    ]

    def records(parallelism):
        config = EngineConfig(
            alpha=0.5, dimension=48, d_max=3, w_max=3, theta_search=0.12, theta_necessity=0.5,
            parallelism=parallelism,
        )
        embedder = RecordingEmbedding(48)
        engine = Engine(
            config, store=store, llm=StubLLM(script=script, default="no"),
            embedder=embedder, reranker=OverlapRerank(),
        )
        report = engine.evaluate(questions)
        for record in report["records"]:
            del record["latency_ms"]
        return report, (len(embedder.requests), sum(map(len, embedder.requests)))

    serial, serial_embedding = records(1)
    assert {r["track"] for r in serial["records"]} <= {"chained", "parallel"}
    # the same records, and the same embedding requests and texts from a cold engine
    assert records(4) == (serial, serial_embedding)


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------


def test_cli_classify(workspace, capsys):
    assert _cli(workspace, "classify", "--question", CHAINED_Q) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "chained"
    assert out[1] == "yes"


def test_cli_answer_chained(workspace, capsys):
    assert _cli(workspace, "answer", "--question", CHAINED_Q) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["track"] == "chained"
    assert "1975" in payload["text"]


def test_cli_verify(workspace, capsys):
    assert _cli(workspace, "verify", "--question", PARALLEL_Q) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["draft"].startswith("Inception was directed by James Cameron.")
    statuses = {v["fact"]: v["status"] for v in payload["verification"]}
    assert statuses["Inception was directed by James Cameron."] == "revised"
    assert "Christopher Nolan" in payload["answer"]


def test_cli_chain_prints_tree_then_json(workspace, capsys):
    assert _cli(workspace, "chain", "--question", CHAINED_Q) == 0
    out = capsys.readouterr().out
    tree, js = out.split("{", 1)
    assert "(Inception, director, Christopher Nolan)" in tree
    assert "score=" in tree
    payload = json.loads("{" + js)
    assert payload["supporting_paths"]


def test_cli_denoise(workspace, capsys):
    assert _cli(workspace, "denoise", "--question", "Who directed Inception?", "--triples", str(workspace / "movies.triples")) == 0
    out = capsys.readouterr().out
    assert "DROP (Inception wikidata:id Q1375011)" in out
    assert "KEEP (Inception director Christopher Nolan)" in out


def test_cli_eval_writes_report(workspace, capsys):
    out_path = workspace / "report.json"
    code = _cli(workspace, "eval", "--dataset", str(workspace / "qs.jsonl"), "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["aggregate"]["n"] == 2
    assert report["aggregate"]["skipped_lines"] == 1
    stdout = capsys.readouterr().out
    assert "EM=" in stdout
    assert "skipped 1 malformed" in stdout


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_cli_missing_dataset_exits_1(workspace, capsys):
    code = _cli(workspace, "eval", "--dataset", str(workspace / "nope.jsonl"), "--out", str(workspace / "r.json"))
    assert code == 1
    assert "error" in capsys.readouterr().err.lower()


def test_cli_unknown_flag_exits_1(capsys):
    assert main(["answer", "--question", "x", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_cli_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_cli_missing_subcommand_exits_1(capsys):
    assert main([]) == 1


def test_cli_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_cli_bad_config_exits_1(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"alpha": 9.0}', encoding="utf-8")
    assert main(["--config", str(config), "classify", "--question", "x"]) == 1


def test_cli_incomplete_prompts_dir_exits_1(workspace, capsys):
    prompts = workspace / "prompts"
    prompts.mkdir()
    shutil.copy(PACKAGED_PROMPTS / "classification.txt", prompts)
    config = workspace / "prompts.json"
    config.write_text(
        json.dumps({"triples_file": str(workspace / "movies.triples"), "prompts_dir": str(prompts)}),
        encoding="utf-8",
    )
    code = main(
        ["--config", str(config), "--stub-script", str(workspace / "stub.json"), "answer", "--question", CHAINED_Q]
    )
    assert code == 1
    assert "extract_entity" in capsys.readouterr().err


def _custom_prompts(workspace, name, old, new):
    """A copy of the packaged prompts with ``old`` replaced by ``new`` in
    template ``name``, and a config that points at it."""
    prompts = workspace / "prompts"
    shutil.copytree(PACKAGED_PROMPTS, prompts)
    path = prompts / f"{name}.txt"
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    config = workspace / "prompts.json"
    config.write_text(
        json.dumps({"triples_file": str(workspace / "movies.triples"), "prompts_dir": str(prompts)}),
        encoding="utf-8",
    )
    return config


def test_cli_prompts_dir_with_an_unknown_placeholder_exits_1(workspace, capsys):
    config = _custom_prompts(workspace, "judge", "{fact}", "{claim}")
    code = main(
        ["--config", str(config), "--stub-script", str(workspace / "stub.json"), "answer", "--question", PARALLEL_Q]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "judge" in err and "claim" in err


def test_prompts_dir_may_leave_a_placeholder_out(workspace):
    config = _custom_prompts(workspace, "judge", "Claim: {fact}\n", "")
    engine = Engine(load_config(config, env={}), stub_script=workspace / "stub.json")
    assert "fact" not in engine.pipeline.templates["judge"].required_placeholders


def test_cli_rejects_a_malformed_stub_script(workspace, capsys):
    (workspace / "stub.json").write_text(json.dumps([{"match_substring": "Inception"}]), encoding="utf-8")
    assert _cli(workspace, "classify", "--question", CHAINED_Q) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "entry 0 must be an object" in err


def test_cli_stub_script_needs_the_stub_llm(workspace, monkeypatch, capsys):
    config = workspace / "http_llm.json"
    config.write_text(
        json.dumps(
            {
                "triples_file": str(workspace / "movies.triples"),
                "llm_provider": "http",
                "llm_url": "http://127.0.0.1:9/complete",
            }
        ),
        encoding="utf-8",
    )
    monkeypatch.setattr(requests.Session, "post", DownSession.post)
    code = main(
        ["--config", str(config), "--stub-script", str(workspace / "stub.json"), "classify", "--question", CHAINED_Q]
    )
    assert code == 1
    assert "llm_provider" in capsys.readouterr().err


def test_engine_refuses_a_stub_script_with_an_injected_llm(workspace):
    # the script is never opened, so an injected stub would silently run unscripted
    config = EngineConfig(triples_file=str(workspace / "movies.triples"))
    with pytest.raises(ValueError, match="injected llm"):
        Engine(config, llm=StubLLM(default="x"), stub_script=workspace / "stub.json")


def test_cli_unreachable_endpoint_exits_2(workspace, monkeypatch, capsys):
    # live-KG config: no triples file, endpoint that refuses connections
    config = workspace / "live.json"
    config.write_text(json.dumps({"sparql_url": "http://127.0.0.1:9/sparql"}), encoding="utf-8")

    def refuse(self, url, **kwargs):
        raise requests.ConnectionError("connection refused")

    monkeypatch.setattr(requests.Session, "get", refuse)
    code = main(
        [
            "--config", str(config),
            "--stub-script", str(workspace / "stub.json"),
            "chain", "--question", CHAINED_Q,
        ]
    )
    assert code == 2
    assert "provider failure" in capsys.readouterr().err


def test_cli_embedding_outage_exits_2(workspace, monkeypatch, capsys):
    config = workspace / "http_embedding.json"
    config.write_text(
        json.dumps(
            {
                "triples_file": str(workspace / "movies.triples"),
                "theta_search": 0.0,
                "embedding_provider": "http",
                "embedding_url": "http://127.0.0.1:9/embed",
            }
        ),
        encoding="utf-8",
    )
    monkeypatch.setattr(requests.Session, "post", lambda self, *a, **k: DownSession().post())
    code = main(
        [
            "--config", str(config),
            "--stub-script", str(workspace / "stub.json"),
            "answer", "--question", CHAINED_Q,
        ]
    )
    assert code == 2
    assert "embedding endpoint failed" in capsys.readouterr().err


def test_cli_llm_reply_with_non_string_text_exits_2(workspace, monkeypatch, capsys):
    config = workspace / "http_llm.json"
    config.write_text(
        json.dumps(
            {
                "triples_file": str(workspace / "movies.triples"),
                "llm_provider": "http",
                "llm_url": "http://127.0.0.1:9/complete",
            }
        ),
        encoding="utf-8",
    )

    class NumberText:
        status_code = 200

        def json(self):
            return {"text": 5}

    monkeypatch.setattr(requests.Session, "post", lambda self, *a, **k: NumberText())
    code = main(["--config", str(config), "answer", "--question", CHAINED_Q])
    assert code == 2
    assert "provider failure:" in capsys.readouterr().err


class _JsonReply:
    status_code = 200

    def __init__(self, body):
        self.body = body

    def json(self):
        return self.body


# For each malformed reply: the config keys that route one service to a fake
# endpoint (no request leaves the process: the ``requests.Session`` verb is
# patched), that verb, and the reply's body as a function of the request.
MALFORMED_SERVICE_REPLIES = {
    "wrong_dimension_rows": (
        {"embedding_provider": "http", "embedding_url": "http://127.0.0.1:9/embed"},
        "post",
        lambda request: {"embeddings": [[0.5, 0.5] for _ in request["json"]["texts"]]},
    ),
    "too_few_rows": (
        {"embedding_provider": "http", "embedding_url": "http://127.0.0.1:9/embed"},
        "post",
        lambda request: {"embeddings": [[1.0] * 256 for _ in request["json"]["texts"][1:]]},
    ),
    "nan_rerank_score": (
        {"rerank_provider": "http", "rerank_url": "http://127.0.0.1:9/rerank"},
        "post",
        lambda request: {"scores": [float("nan")] * len(request["json"]["texts"])},
    ),
    "sparql_without_bindings": (
        {"triples_file": "", "sparql_url": "http://127.0.0.1:9/sparql"},
        "get",
        lambda request: {"head": {"vars": ["item"]}},
    ),
}


@pytest.mark.parametrize("command", ["answer", "chain", "verify"])
@pytest.mark.parametrize("fault", list(MALFORMED_SERVICE_REPLIES))
def test_cli_malformed_service_reply_exits_2(workspace, monkeypatch, capsys, fault, command):
    settings, verb, body = MALFORMED_SERVICE_REPLIES[fault]
    question = PARALLEL_Q if command == "verify" else CHAINED_Q
    config = workspace / "malformed.json"
    config.write_text(
        json.dumps({"triples_file": str(workspace / "movies.triples"), "theta_search": 0.0, **settings}),
        encoding="utf-8",
    )
    monkeypatch.setattr(requests.Session, verb, lambda self, url, **request: _JsonReply(body(request)))
    code = main(
        ["--config", str(config), "--stub-script", str(workspace / "stub.json"), command, "--question", question]
    )
    assert code == 2
    assert "provider failure:" in capsys.readouterr().err


def test_stub_engine_never_imports_requests():
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys, threading, dualtrack\n"
        f"dualtrack.Engine(dualtrack.EngineConfig(triples_file={str(root / 'data' / 'movies.triples')!r}))\n"
        "print('requests' in sys.modules, threading.active_count())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False 1"  # and no thread starts before a question runs


def test_answering_questions_never_imports_numpy(workspace):
    # both tracks score with the standard library: one chained and one
    # parallel movie question, scored on hash embeddings, load no numpy
    root = Path(__file__).resolve().parent.parent
    code = (
        "import json, sys, dualtrack\n"
        f"engine = dualtrack.Engine(dualtrack.load_config({str(workspace / 'config.json')!r}, env={{}}),"
        f" stub_script={str(workspace / 'stub.json')!r})\n"
        f"answers = [engine.answer(dualtrack.Question(id=str(i), text=t)) for i, t in enumerate({[CHAINED_Q, PARALLEL_Q]!r})]\n"
        "print(json.dumps([sorted(a.flags) for a in answers]), 'numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[[], []] False"


def test_pipeline_wraps_raw_providers_once_and_replace_keeps_its_caches(movie_store, templates):
    stub, embedder = StubLLM(), HashEmbedding(16)
    pipe = Pipeline(store=movie_store, llm=stub, templates=templates, embedder=embedder, reranker=OverlapRerank())
    assert isinstance(pipe.store, CachedStore) and pipe.store.inner is movie_store
    assert isinstance(pipe.llm, MemoLLM) and pipe.llm.inner is stub
    assert isinstance(pipe.embedder, CachedEmbedder) and pipe.embedder.inner is embedder
    narrow = replace(pipe, config=EngineConfig(w_max=2))
    assert (narrow.store, narrow.llm, narrow.embedder) == (pipe.store, pipe.llm, pipe.embedder)
    assert Engine(llm=stub, store=pipe.store).pipeline.store is pipe.store  # an injected cache is kept


def test_sparql_client_is_default_store_in_live_mode(tmp_path):
    config = EngineConfig(cache_dir=str(tmp_path / "cache"))
    engine = Engine(config, llm=StubLLM())
    assert isinstance(engine.pipeline.store, CachedStore)
    assert isinstance(engine.pipeline.store.inner, SparqlClient)
    assert engine.pipeline.store.inner.endpoint_url == "https://query.wikidata.org/sparql"
