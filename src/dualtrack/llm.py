"""Provider-agnostic LLM access: prompt templates, completion providers, and
parsers for the constrained reply formats the pipeline requests.

Every pipeline call runs at temperature 0; with the scripted stub provider
the whole engine is bit-reproducible.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .transport import ProviderError, SingleFlightCache, http_session, request_json

PLACEHOLDER_RE = re.compile(r"\{([a-z_][a-z0-9_]*)\}")

# Requests one MemoLLM keeps. An entry costs about 135 bytes besides its
# reply text, about 220 with it on the benchmark workloads (tracemalloc);
# 2048 hold every distinct prompt of batch_mixed's counted questions.
MEMO_ENTRIES = 2048


class Unparseable(ValueError):
    """LLM reply does not contain the requested token/number."""


class MissingPlaceholder(ValueError):
    def __init__(self, name: str):
        super().__init__(f"unbound template placeholder {name!r}")
        self.name = name


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    body: str
    required_placeholders: frozenset[str]

    @classmethod
    def from_body(cls, name: str, body: str) -> "PromptTemplate":
        return cls(name=name, body=body, required_placeholders=frozenset(PLACEHOLDER_RE.findall(body)))


def render(template: PromptTemplate, bindings: Mapping[str, str]) -> str:
    """Substitute placeholders exactly; the body is otherwise untouched.

    Single-pass substitution, so placeholder-looking text inside a bound
    value is never re-expanded. Placeholders outside the required set (only
    possible on hand-built templates) are left verbatim when unbound.
    """
    missing = sorted(template.required_placeholders - set(bindings))
    if missing:
        raise MissingPlaceholder(missing[0])
    return PLACEHOLDER_RE.sub(lambda m: str(bindings.get(m.group(1), m.group(0))), template.body)


def load_templates(directory: str | Path) -> dict[str, PromptTemplate]:
    """Load one template per ``*.txt`` file, keyed by file stem."""
    directory = Path(directory)
    templates = {}
    for path in sorted(directory.glob("*.txt")):
        templates[path.stem] = PromptTemplate.from_body(path.stem, path.read_text(encoding="utf-8"))
    if not templates:
        raise FileNotFoundError(f"no prompt templates found in {directory}")
    return templates


@dataclass
class CompletionRequest:
    prompt: str
    temperature: float = 0.0  # pipeline determinism contract
    max_tokens: int = 512


@dataclass
class CompletionResponse:
    text: str
    provider: str = ""


class LLMProvider:
    name = "base"

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        raise NotImplementedError


class StubLLM(LLMProvider):
    """Scripted provider for tests and offline runs.

    Responses are registered against substring keys; the longest key found in
    the prompt wins (prompts embed variable question text, so exact-match
    scripting would be brittle). Ties go to the earliest-registered key. A
    prompt no key matches gets the default reply.
    """

    name = "stub"

    def __init__(self, script: Mapping[str, str] | Iterable[tuple[str, str]] = (), default: str = ""):
        entries = script.items() if isinstance(script, Mapping) else script
        self._entries: list[tuple[str, str]] = [(k, v) for k, v in entries]
        if any(not key for key, _ in self._entries):
            raise ValueError("stub script keys must be non-empty")
        self.default = default
        self.calls: list[str] = []

    @classmethod
    def from_script_file(cls, path: str | Path) -> "StubLLM":
        """Load a JSON list of ``{"match_substring": ..., "response": ...}``.
        A file that is not such a list raises ``ValueError``, naming the
        index of the first bad entry."""
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(entries, list):
            raise ValueError(f"stub script {path} must hold a JSON list")
        keys = ("match_substring", "response")
        for index, entry in enumerate(entries):
            if not (isinstance(entry, dict) and all(isinstance(entry.get(k), str) for k in keys)):
                raise ValueError(
                    f"stub script {path}: entry {index} must be an object with string"
                    " match_substring and response"
                )
        return cls(script=[(e["match_substring"], e["response"]) for e in entries])

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        self.calls.append(request.prompt)
        best: tuple[int, int] | None = None
        best_response = None
        for index, (key, response) in enumerate(self._entries):
            if key in request.prompt:
                rank = (len(key), -index)
                if best is None or rank > best:
                    best = rank
                    best_response = response
        if best_response is not None:
            return CompletionResponse(text=best_response, provider=self.name)
        return CompletionResponse(text=self.default, provider=self.name)


class HttpLLM(LLMProvider):
    """Minimal JSON-over-HTTP provider: POST {prompt, temperature, max_tokens},
    read {text}, through :func:`transport.request_json`. A session the
    provider makes itself comes from :func:`transport.http_session`."""

    name = "http"

    def __init__(self, url: str, session=None, timeout: float = 120.0, parallelism: int = 1):
        if not url:
            raise ValueError("llm_url must be set for the http provider")
        self.url = url
        self._session = session or http_session(parallelism)
        self.timeout = timeout

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        payload = {
            "prompt": request.prompt,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        text = request_json(self._session, "post", self.url, self.timeout, "LLM", json=payload).get("text")
        if not isinstance(text, str):
            raise ProviderError("LLM endpoint failed: 'text' is not a string")
        return CompletionResponse(text=text, provider=self.name)


class MemoLLM(LLMProvider):
    """Sends each distinct request to the wrapped provider once and answers
    repeats from memory. Every ``Pipeline`` wraps its provider in one, so
    every question, claim and leaf task of an engine shares it.

    Sound only while one request has one reply: every pipeline call runs at
    temperature 0, and a live endpoint must be deterministic there. A
    request is keyed by a 16-byte digest of its prompt, temperature and
    ``max_tokens``, and only the reply text is kept. The requests live in a
    ``transport.SingleFlightCache`` of ``MEMO_ENTRIES``: a request already
    in flight is waited for, not sent again; an error is never kept, so a
    later identical request reaches the provider again; the least recently
    used request is evicted first.
    """

    def __init__(self, inner: LLMProvider):
        self.inner = inner
        self.name = inner.name
        self._replies = SingleFlightCache(MEMO_ENTRIES)

    @staticmethod
    def _key(request: CompletionRequest) -> bytes:
        fields = f"{float(request.temperature)!r}\0{request.max_tokens}\0{request.prompt}"
        return hashlib.blake2b(fields.encode("utf-8", "surrogatepass"), digest_size=16).digest()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        text = self._replies.get(self._key(request), lambda: self.inner.complete(request).text)
        return CompletionResponse(text=text, provider=self.name)

    def start(self, request: CompletionRequest):
        """Send ``request`` on ``transport.LEAVES`` unless its reply is kept
        or in flight. Returns the future of the reply's text while it is in
        flight, else the kept text."""
        return self._replies.start(self._key(request), lambda: self.inner.complete(request).text)


def ask(llm: LLMProvider, template: PromptTemplate, **bindings: str) -> str:
    """Render a template and return the provider's raw reply text."""
    return llm.complete(CompletionRequest(prompt=render(template, bindings))).text


# ---------------------------------------------------------------------------
# Reply parsers
# ---------------------------------------------------------------------------

_YES_NO_RE = re.compile(r"\b(yes|no)\b")
_NUMBER_RE = re.compile(r"-?(?:\d+(?:\.\d+)?|\.\d+)")


def parse_yes_no(text: str) -> bool:
    """First standalone yes/no token wins; case and punctuation tolerated."""
    match = _YES_NO_RE.search(text.lower())
    if match is None:
        raise Unparseable(f"no yes/no token in {text!r}")
    return match.group(1) == "yes"


def parse_score(text: str) -> float:
    """First decimal number in the reply, clamped to [0, 1]."""
    match = _NUMBER_RE.search(text)
    if match is None:
        raise Unparseable(f"no number in {text!r}")
    return min(1.0, max(0.0, float(match.group(0))))
