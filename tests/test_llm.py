"""Prompt templating, provider doubles, and reply parsers."""

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from dualtrack.llm import (
    CompletionRequest,
    CompletionResponse,
    EchoLLM,
    HttpLLM,
    LLMProvider,
    MemoLLM,
    MissingPlaceholder,
    PromptTemplate,
    ProviderError,
    ScriptMiss,
    StubLLM,
    Unparseable,
    ask,
    load_templates,
    parse_score,
    parse_yes_no,
    render,
)

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


def test_stub_default_and_strict():
    assert StubLLM(default="fallback").complete(CompletionRequest("x")).text == "fallback"
    with pytest.raises(ScriptMiss):
        StubLLM(strict=True).complete(CompletionRequest("x"))


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


def test_stub_rejects_empty_keys():
    with pytest.raises(ValueError):
        StubLLM(script=[("", "x")])


def test_echo_returns_prompt():
    assert EchoLLM().complete(CompletionRequest("mirror me")).text == "mirror me"


class _FakeHttpSession:
    def __init__(self, response=None, error=None):
        self.response = response
        self.error = error
        self.posts = []

    def post(self, url, json=None, timeout=None):
        self.posts.append({"url": url, "json": json})
        if self.error:
            raise self.error
        return self.response


class _FakeHttpResponse:
    def __init__(self, payload, status_code=200):
        self.payload = payload
        self.status_code = status_code

    def json(self):
        return self.payload


def test_http_llm_roundtrip():
    session = _FakeHttpSession(response=_FakeHttpResponse({"text": "pong"}))
    provider = HttpLLM("http://llm.test", session=session)
    reply = provider.complete(CompletionRequest("ping", temperature=0.0, max_tokens=64))
    assert reply.text == "pong"
    assert session.posts[0]["json"] == {"prompt": "ping", "temperature": 0.0, "max_tokens": 64}


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


def test_ask_renders_and_completes(templates):
    stub = StubLLM(script=[("Judgment (yes/no)", "yes")])
    assert ask(stub, templates["classification"], question="Any?") == "yes"
    assert 'Question: "Any?"' in stub.calls[0]


# ---------------------------------------------------------------------------
# per-question memo
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


class _FailsOnceLLM(LLMProvider):
    name = "fails-once"

    def __init__(self):
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.calls == 1:
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
