"""Prompt templating, provider doubles, and reply parsers."""

import json
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from dualtrack import llm, transport
from dualtrack.config import PROVIDERS, EngineConfig
from dualtrack.kg import EntityRef, RelationRef, SparqlClient, Triple
from dualtrack.llm import (
    CompletionRequest,
    CompletionResponse,
    HttpLLM,
    LLMProvider,
    MemoLLM,
    MissingPlaceholder,
    PromptTemplate,
    ProviderError,
    StubLLM,
    Unparseable,
    ask,
    load_templates,
    parse_score,
    parse_yes_no,
    render,
)
from dualtrack.scoring import HttpEmbedding, HttpRerank

# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_render_classification_embeds_question(templates):
    rendered = render(templates["classification"], {"question": "Q1"})
    assert 'Question: "Q1"' in rendered


def test_render_missing_placeholder(templates):
    with pytest.raises(MissingPlaceholder):
        render(templates["classification"], {})


def test_render_no_placeholders_is_identity():
    template = PromptTemplate.from_body("t", "no placeholders here")
    assert render(template, {}) == "no placeholders here"


def test_render_is_single_pass():
    template = PromptTemplate.from_body("t", "value: {a} and {b}")
    out = render(template, {"a": "{b}", "b": "x"})
    assert out == "value: {b} and x"


_names = st.sampled_from(["question", "fact", "triples", "path", "draft"])
_text = st.text(alphabet=st.characters(blacklist_characters="{}"), max_size=40)


@given(parts=st.lists(st.tuples(_text, _names), min_size=1, max_size=5), tail=_text,
       values=st.dictionaries(_names, _text))
def test_render_pure_and_deterministic(parts, tail, values):
    body = "".join(f"{chunk}{{{name}}}" for chunk, name in parts) + tail
    template = PromptTemplate.from_body("t", body)
    bindings = {name: values.get(name, "") for _, name in parts}
    first = render(template, bindings)
    second = render(template, bindings)
    assert first == second
    assert template.body == body  # no mutation


def test_load_templates(tmp_path):
    (tmp_path / "alpha.txt").write_text("hello {name}", encoding="utf-8")
    (tmp_path / "beta.txt").write_text("static", encoding="utf-8")
    loaded = load_templates(tmp_path)
    assert set(loaded) == {"alpha", "beta"}
    assert loaded["alpha"].required_placeholders == frozenset({"name"})


def test_load_templates_empty_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_templates(tmp_path)


# ---------------------------------------------------------------------------
# providers
# ---------------------------------------------------------------------------


def test_stub_scripted_key_wins():
    stub = StubLLM(script=[("Judgment (yes/no)", "yes")])
    reply = stub.complete(CompletionRequest("... Judgment (yes/no): "))
    assert reply.text == "yes"


def test_stub_longest_match_wins():
    stub = StubLLM(script=[("born", "short"), ("born in 1970", "long")])
    assert stub.complete(CompletionRequest("was born in 1970?")).text == "long"
    assert stub.complete(CompletionRequest("born where?")).text == "short"


def test_stub_equal_length_ties_go_to_first_registered():
    stub = StubLLM(script=[("aaa", "first"), ("bbb", "second")])
    assert stub.complete(CompletionRequest("aaa bbb")).text == "first"


def test_stub_default():
    assert StubLLM(default="fallback").complete(CompletionRequest("x")).text == "fallback"


def test_stub_records_calls():
    stub = StubLLM()
    stub.complete(CompletionRequest("one"))
    stub.complete(CompletionRequest("two"))
    assert stub.calls == ["one", "two"]


def test_stub_from_script_file(tmp_path):
    path = tmp_path / "script.json"
    path.write_text('[{"match_substring": "ping", "response": "pong"}]', encoding="utf-8")
    stub = StubLLM.from_script_file(path)
    assert stub.complete(CompletionRequest("ping?")).text == "pong"


@pytest.mark.parametrize(
    "entry",
    [
        "ping",
        ["ping", "pong"],
        {"response": "pong"},
        {"match_substring": "ping"},
        {"match_substring": 3, "response": "pong"},
        {"match_substring": "ping", "response": None},
    ],
)
def test_stub_script_file_names_its_bad_entry(tmp_path, entry):
    path = tmp_path / "script.json"
    path.write_text(json.dumps([{"match_substring": "ping", "response": "pong"}, entry]), encoding="utf-8")
    with pytest.raises(ValueError, match="entry 1 must be an object"):
        StubLLM.from_script_file(path)


def test_stub_script_file_must_hold_a_list(tmp_path):
    path = tmp_path / "script.json"
    path.write_text('{"match_substring": "ping", "response": "pong"}', encoding="utf-8")
    with pytest.raises(ValueError, match="JSON list"):
        StubLLM.from_script_file(path)


def test_stub_rejects_empty_keys():
    with pytest.raises(ValueError):
        StubLLM(script=[("", "x")])


class _FakeHttpSession:
    """Answers a GET or POST with ``responses`` in turn, then with
    ``response`` (or raises ``error``), and records every request. An
    exception among the responses is raised when its turn comes."""

    def __init__(self, response=None, error=None, responses=()):
        self.response = response
        self.error = error
        self.responses = list(responses)
        self.sent = []

    def post(self, url, timeout=None, **kwargs):
        self.sent.append({"url": url, **kwargs})
        if self.error:
            raise self.error
        outcome = self.responses.pop(0) if self.responses else self.response
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    get = post


class _FakeHttpResponse:
    def __init__(self, payload, status_code=200, headers=None):
        self.payload = payload
        self.status_code = status_code
        self.headers = headers or {}

    def json(self):
        if isinstance(self.payload, Exception):  # a body that does not parse
            raise self.payload
        return self.payload


def test_http_llm_roundtrip():
    session = _FakeHttpSession(response=_FakeHttpResponse({"text": "pong"}))
    provider = HttpLLM("http://llm.test", session=session)
    reply = provider.complete(CompletionRequest("ping", temperature=0.0, max_tokens=64))
    assert reply.text == "pong"
    assert session.sent[0]["json"] == {"prompt": "ping", "temperature": 0.0, "max_tokens": 64}


def test_http_llm_errors():
    bad_status = HttpLLM("http://llm.test", session=_FakeHttpSession(response=_FakeHttpResponse({}, 500)))
    with pytest.raises(ProviderError):
        bad_status.complete(CompletionRequest("x"))
    bad_shape = HttpLLM("http://llm.test", session=_FakeHttpSession(response=_FakeHttpResponse({"nope": 1})))
    with pytest.raises(ProviderError):
        bad_shape.complete(CompletionRequest("x"))
    down = HttpLLM("http://llm.test", session=_FakeHttpSession(error=requests.ConnectionError("boom")))
    with pytest.raises(ProviderError):
        down.complete(CompletionRequest("x"))


def _fix_jitter(monkeypatch, jitter=(1.0,)):
    """Patch the retry wait's random factor; returns the ``random.uniform``
    calls. The factors in ``jitter`` are served in turn, the last one
    repeated."""
    draws = []
    factors = list(jitter)

    def uniform(low, high):
        draws.append((low, high))
        return factors.pop(0) if len(factors) > 1 else factors[0]

    monkeypatch.setattr(transport.random, "uniform", uniform)
    return draws


@dataclass(frozen=True)
class _HttpCase:
    """One outside service as ``transport.request_json`` sees it: how to
    build its client around a session, one call, a reply that succeeds with
    what the call then returns, the field it reads, and its ``PROVIDERS``
    key (None for the KG store, which the registry does not build)."""

    make: Callable[..., Any]
    call: Callable[[Any], Any]
    reply: dict
    result: Any
    field: str
    key: str | None


_SPARQL_ROW = {
    "relation": {"type": "uri", "value": "http://www.wikidata.org/prop/direct/P1"},
    "relationLabel": {"type": "literal", "value": "p"},
    "o": {"type": "uri", "value": "http://www.wikidata.org/entity/Q2"},
    "oLabel": {"type": "literal", "value": "x"},
}


HTTP_CASES = {
    "llm": _HttpCase(
        make=lambda **kw: HttpLLM("http://llm.test", **kw),
        call=lambda provider: provider.complete(CompletionRequest("ping")).text,
        reply={"text": "pong"},
        result="pong",
        field="text",
        key="llm_provider",
    ),
    "embedding": _HttpCase(
        make=lambda **kw: HttpEmbedding("http://emb.test", dimension=2, **kw),
        call=lambda provider: provider.embed(["x"]),
        reply={"embeddings": [[1.0, 2.0]]},
        result=[[1.0, 2.0]],
        field="embeddings",
        key="embedding_provider",
    ),
    "rerank": _HttpCase(
        make=lambda **kw: HttpRerank("http://rr.test", **kw),
        call=lambda provider: provider.rerank("q", ["a"]),
        reply={"scores": [0.25]},
        result=[0.25],
        field="scores",
        key="rerank_provider",
    ),
    "sparql": _HttpCase(
        make=lambda **kw: SparqlClient("http://kg.test/sparql", **kw),
        call=lambda client: client.head_relations(EntityRef("Q1")),
        reply={"results": {"bindings": [_SPARQL_ROW]}},
        result=[Triple(EntityRef("Q1"), RelationRef("P1", "p"), EntityRef("Q2", "x"))],
        field="results",
        key=None,
    ),
}

http_case = pytest.mark.parametrize("case", list(HTTP_CASES.values()), ids=list(HTTP_CASES))
_REGISTERED = [name for name, case in HTTP_CASES.items() if case.key]
registered_case = pytest.mark.parametrize("case", [HTTP_CASES[name] for name in _REGISTERED], ids=_REGISTERED)


@http_case
def test_http_provider_retries_rate_limit_reply(monkeypatch, retry_sleeps, case):
    _fix_jitter(monkeypatch)
    limited = _FakeHttpResponse({}, 429, headers={"Retry-After": "0"})
    session = _FakeHttpSession(responses=[limited], response=_FakeHttpResponse(case.reply))
    assert case.call(case.make(session=session)) == case.result
    assert len(session.sent) == 2
    assert retry_sleeps == [1.0]  # the backoff outlasts a zero Retry-After


@http_case
def test_http_provider_retries_only_transient_failures(retry_sleeps, case):
    transient = [requests.ConnectionError("connection refused"), _FakeHttpResponse({}, 503)]
    session = _FakeHttpSession(responses=transient, response=_FakeHttpResponse(case.reply))
    assert case.call(case.make(session=session)) == case.result
    assert len(session.sent) == 3
    assert len(retry_sleeps) == 2
    refused = _FakeHttpSession(response=_FakeHttpResponse(case.reply, 403))
    with pytest.raises(ProviderError, match="status 403"):
        case.call(case.make(session=refused))
    assert len(refused.sent) == 1
    assert len(retry_sleeps) == 2


@http_case
def test_http_provider_gives_up_on_persistent_rate_limit(monkeypatch, retry_sleeps, case):
    _fix_jitter(monkeypatch)
    session = _FakeHttpSession(response=_FakeHttpResponse({}, 429, headers={"Retry-After": "5"}))
    with pytest.raises(ProviderError, match="429"):
        case.call(case.make(session=session))
    assert len(session.sent) == transport.HTTP_RETRIES
    assert retry_sleeps == [5.0] * (transport.HTTP_RETRIES - 1)


@http_case
@pytest.mark.parametrize(
    "retry_after, jitter, slept",
    [("0", (1.5, 0.5), [1.5, 1.0]), ("2", (0.5,), [2.0, 2.0]), ("0", (0.5,), [0.5, 1.0])],
    ids=["jittered_backoff", "retry_after_is_the_floor", "low_draw"],
)
def test_http_provider_rate_limit_wait_is_jittered(monkeypatch, retry_sleeps, case, retry_after, jitter, slept):
    draws = _fix_jitter(monkeypatch, jitter)
    session = _FakeHttpSession(response=_FakeHttpResponse({}, 429, headers={"Retry-After": retry_after}))
    with pytest.raises(ProviderError):
        case.call(case.make(session=session))
    assert retry_sleeps == slept
    assert draws == [(0.5, 1.5)] * len(slept)


@registered_case
def test_http_provider_connection_pool_holds_a_question_in_flight_per_parallel_question(case):
    # each question thread, and the process's claim and leaf threads
    def pool_size(parallelism):
        return parallelism + transport.CLAIM_THREADS + transport.LEAF_THREADS

    assert (pool_size(1), pool_size(4)) == (97, 100)
    for parallelism in (1, 4):
        provider = case.make(parallelism=parallelism)
        for url in ("http://x.test", "https://x.test"):
            assert provider._session.get_adapter(url)._pool_maxsize == pool_size(parallelism)
    urls = {"llm_url": "http://llm.test", "embedding_url": "http://emb.test", "rerank_url": "http://rr.test"}
    built = PROVIDERS[case.key]["http"](EngineConfig(parallelism=3, **urls))
    assert built._session.get_adapter("http://x.test")._pool_maxsize == pool_size(3)


# Replies no provider accepts: each strategy draws a fake response.
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text())
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(), inner, max_size=3)),
    max_leaves=8,
)
_NOT_A_NUMBER = st.one_of(
    _JSON.filter(lambda v: isinstance(v, bool) or not isinstance(v, (int, float))),
    st.integers(min_value=2**1024),  # an integer no float holds
)
_NUMBERS = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4)
# a value that is not a list of numbers: not a list, or a list with a non-number
_NOT_NUMBERS = st.one_of(
    _JSON.filter(lambda v: not isinstance(v, list)),
    st.tuples(_NUMBERS, _NOT_A_NUMBER, _NUMBERS).map(lambda t: t[0] + [t[1]] + t[2]),
)
# a SPARQL binding row ``head_relations`` cannot read: not an object, a
# required term missing, or a term that is not an object with a string value
_BAD_TERM = st.one_of(
    _JSON.filter(lambda v: not isinstance(v, dict)),
    st.dictionaries(st.text().filter(lambda k: k != "value"), _JSON, max_size=2),
    _JSON.filter(lambda v: not isinstance(v, str)).map(lambda value: {"type": "uri", "value": value}),
)
_BAD_ROW = st.one_of(
    _JSON.filter(lambda v: not isinstance(v, dict)),
    st.sampled_from(["relation", "o"]).map(lambda name: {k: v for k, v in _SPARQL_ROW.items() if k != name}),
    st.tuples(st.sampled_from(["relation", "relationLabel", "o", "oLabel"]), _BAD_TERM).map(
        lambda bad: {**_SPARQL_ROW, bad[0]: bad[1]}
    ),
)
_BAD_FIELD = {
    "text": _JSON.filter(lambda v: not isinstance(v, str)),
    "scores": _NOT_NUMBERS,
    "embeddings": st.one_of(
        _JSON.filter(lambda v: not isinstance(v, list)),
        st.tuples(st.lists(_NUMBERS, max_size=2), _NOT_NUMBERS).map(lambda t: t[0] + [t[1]]),
    ),
    "results": st.one_of(
        _JSON.filter(lambda v: not isinstance(v, dict)),
        st.dictionaries(st.text().filter(lambda k: k != "bindings"), _JSON, max_size=3),
        _JSON.filter(lambda v: not isinstance(v, list)).map(lambda bindings: {"bindings": bindings}),
        st.tuples(st.lists(st.just(_SPARQL_ROW), max_size=2), _BAD_ROW).map(
            lambda rows: {"bindings": rows[0] + [rows[1]]}
        ),
    ),
}


def _malformed_replies(case: _HttpCase):
    return st.one_of(
        st.integers(100, 599)
        .filter(lambda status: status not in (200, 429))
        .map(lambda status: _FakeHttpResponse(case.reply, status)),
        st.just(_FakeHttpResponse(ValueError("Expecting value: line 1 column 1 (char 0)"))),
        _JSON.filter(lambda body: not isinstance(body, dict)).map(_FakeHttpResponse),
        st.dictionaries(st.text().filter(lambda k: k != case.field), _JSON, max_size=3).map(_FakeHttpResponse),
        _BAD_FIELD[case.field].map(lambda value: _FakeHttpResponse({case.field: value})),
    )


@http_case
@given(data=st.data())
def test_http_provider_malformed_reply_is_a_provider_error(case, data):
    reply = data.draw(_malformed_replies(case))
    with pytest.raises(ProviderError, match="endpoint failed"):
        case.call(case.make(session=_FakeHttpSession(response=reply)))


_WRONG_LENGTH_ROW = st.lists(st.floats(-1e6, 1e6), max_size=4).filter(lambda row: len(row) != 2)


@given(rows=st.lists(_WRONG_LENGTH_ROW, min_size=1, max_size=3))
def test_http_embedding_well_formed_rows_of_the_wrong_length_raise_provider_error(rows):
    session = _FakeHttpSession(response=_FakeHttpResponse({"embeddings": rows}))
    with pytest.raises(ProviderError, match="embedding endpoint failed: expected dimension 2"):
        HttpEmbedding("http://emb.test", dimension=2, session=session).embed(["x"])


def test_ask_renders_and_completes(templates):
    stub = StubLLM(script=[("Judgment (yes/no)", "yes")])
    assert ask(stub, templates["classification"], question="Any?") == "yes"
    assert 'Question: "Any?"' in stub.calls[0]


# ---------------------------------------------------------------------------
# run-wide memo
# ---------------------------------------------------------------------------


def test_memo_sends_a_repeated_request_once():
    stub = StubLLM(default="x")
    memo = MemoLLM(stub)
    assert [memo.complete(CompletionRequest("p")).text for _ in range(3)] == ["x", "x", "x"]
    assert stub.calls == ["p"]
    assert memo.name == "stub"


def test_memo_does_not_share_replies_across_max_tokens():
    stub = StubLLM(default="x")
    memo = MemoLLM(stub)
    memo.complete(CompletionRequest("p", max_tokens=16))
    memo.complete(CompletionRequest("p", max_tokens=32))
    memo.complete(CompletionRequest("p", max_tokens=16))
    assert stub.calls == ["p", "p"]


def test_memo_does_not_share_replies_across_temperatures():
    stub = StubLLM(default="x")
    memo = MemoLLM(stub)
    memo.complete(CompletionRequest("p", temperature=0.0))
    memo.complete(CompletionRequest("p", temperature=0.7))
    memo.complete(CompletionRequest("p", temperature=0.0))
    assert stub.calls == ["p", "p"]


def test_memo_holds_a_request_once_its_reply_is_kept():
    stub = StubLLM(default="x")
    memo = MemoLLM(stub)
    started = memo.start(CompletionRequest("p"))  # sent on a leaf thread
    assert isinstance(started, Future) and started.result(timeout=2) == "x"
    assert memo.start(CompletionRequest("p")) == "x"  # kept: the text, and nothing sent
    assert memo.complete(CompletionRequest("p")).text == "x"
    assert isinstance(memo.start(CompletionRequest("p", max_tokens=16)), Future)
    assert isinstance(memo.start(CompletionRequest("q")), Future)
    assert memo.complete(CompletionRequest("q")).text == "x"
    assert sorted(stub.calls) == ["p", "p", "q"]


class _FailsOnceLLM(LLMProvider):
    """Raises ``ProviderError`` on its first call, after ``release`` is set
    when one is given, and replies "ok" from then on."""

    name = "fails-once"

    def __init__(self, release=None):
        self.calls = 0
        self.started = threading.Event()
        self.release = release

    def complete(self, request):
        self.calls += 1
        if self.calls == 1:
            self.started.set()
            if self.release is not None:
                assert self.release.wait(timeout=2)
            raise ProviderError("transient outage")
        return CompletionResponse(text="ok", provider=self.name)


def test_memo_does_not_store_provider_errors():
    inner = _FailsOnceLLM()
    memo = MemoLLM(inner)
    with pytest.raises(ProviderError):
        memo.complete(CompletionRequest("p"))
    assert memo.complete(CompletionRequest("p")).text == "ok"
    assert memo.complete(CompletionRequest("p")).text == "ok"
    assert inner.calls == 2


class _SlowLLM(StubLLM):
    def complete(self, request):
        time.sleep(0.05)  # holds the request open, so every caller asks while it is in flight
        return super().complete(request)


def test_memo_sends_one_request_for_callers_in_flight_together():
    threads = 8
    barrier = threading.Barrier(threads, timeout=2)
    stub = _SlowLLM(default="x")
    memo = MemoLLM(stub)

    def complete(_):
        barrier.wait()
        return memo.complete(CompletionRequest("p")).text

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(threads) as pool:
            replies = list(pool.map(complete, range(threads), timeout=5))
    finally:
        sys.setswitchinterval(interval)
    assert replies == ["x"] * threads
    assert stub.calls == ["p"]


def test_memo_hands_a_provider_error_to_every_caller_in_flight():
    release = threading.Event()
    inner = _FailsOnceLLM(release)
    memo = MemoLLM(inner)
    with ThreadPoolExecutor(4) as pool:
        first = pool.submit(memo.complete, CompletionRequest("p"))
        assert inner.started.wait(timeout=2)
        waiters = [pool.submit(memo.complete, CompletionRequest("p")) for _ in range(3)]
        time.sleep(0.2)  # lets the waiters reach the request in flight
        release.set()
        for future in [first, *waiters]:
            with pytest.raises(ProviderError, match="transient outage"):
                future.result(timeout=5)
    assert inner.calls == 1
    assert memo.complete(CompletionRequest("p")).text == "ok"
    assert inner.calls == 2


def test_memo_evicts_the_least_recently_used_request(monkeypatch):
    monkeypatch.setattr(llm, "MEMO_ENTRIES", 2)
    stub = StubLLM(default="x")
    memo = MemoLLM(stub)
    for prompt in ("a", "b", "a", "c", "a", "b"):
        memo.complete(CompletionRequest(prompt))
    # "b" was the least recently used when "c" came in
    assert stub.calls == ["a", "b", "c", "b"]


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------


def test_parse_yes_no_exact_tokens():
    assert parse_yes_no("yes") is True
    assert parse_yes_no("No.") is False
    assert parse_yes_no("  YES!  ") is True


def test_parse_yes_no_first_token_wins():
    assert parse_yes_no("no, wait, yes") is False


def test_parse_yes_no_ignores_embedded_substrings():
    # 'eyes' and 'nose' contain the letters but not the standalone token
    assert parse_yes_no("my eyes say yes") is True
    with pytest.raises(Unparseable):
        parse_yes_no("nose and eyes")


def test_parse_yes_no_unparseable():
    with pytest.raises(Unparseable):
        parse_yes_no("maybe")


@given(
    token=st.sampled_from(["yes", "no", "Yes", "NO", "yEs"]),
    prefix=st.sampled_from(["", "The answer is", "Judgment:", "certainly ->"]),
    punct=st.sampled_from(["", ".", "!", "?", ",", ";"]),
    suffix=st.sampled_from(["", "indeed", "for sure", "(see above)"]),
)
def test_parse_yes_no_noise_invariance(token, prefix, punct, suffix):
    text = f"{prefix} {token}{punct} {suffix}"
    assert parse_yes_no(text) is (token.lower() == "yes")


def test_parse_score_first_decimal():
    assert parse_score("0.9") == pytest.approx(0.9)
    assert parse_score("score: 0.25 (confident)") == pytest.approx(0.25)
    assert parse_score("first 0.2 then 0.9") == pytest.approx(0.2)


def test_parse_score_clamps():
    assert parse_score("1.7") == 1.0
    assert parse_score("-0.3") == 0.0


def test_parse_score_unparseable():
    with pytest.raises(Unparseable):
        parse_score("no number here")
