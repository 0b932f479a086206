"""Provider-agnostic LLM access: prompt templates, completion providers, and
parsers for the constrained reply formats the pipeline requests.

Every pipeline call runs at temperature 0; with the scripted stub provider
the whole engine is bit-reproducible.
"""

from __future__ import annotations

import json
import logging
import random
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .retry import retry_wait

log = logging.getLogger(__name__)

PLACEHOLDER_RE = re.compile(r"\{([a-z_][a-z0-9_]*)\}")


class ProviderError(Exception):
    """Completion provider failed (transport, auth, bad payload)."""


class ScriptMiss(ProviderError):
    """Strict stub received a prompt no scripted key matches."""


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
    scripting would be brittle). Ties go to the earliest-registered key. With
    no match: the configured default, or :class:`ScriptMiss` in strict mode.
    """

    name = "stub"

    def __init__(
        self,
        script: Mapping[str, str] | Iterable[tuple[str, str]] = (),
        default: str = "",
        strict: bool = False,
    ):
        entries = script.items() if isinstance(script, Mapping) else script
        self._entries: list[tuple[str, str]] = [(k, v) for k, v in entries]
        if any(not key for key, _ in self._entries):
            raise ValueError("stub script keys must be non-empty")
        self.default = default
        self.strict = strict
        self.calls: list[str] = []

    @classmethod
    def from_script_file(cls, path: str | Path, **kwargs) -> "StubLLM":
        """Load a JSON list of ``{"match_substring": ..., "response": ...}``."""
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
        script = [(e["match_substring"], e["response"]) for e in entries]
        return cls(script=script, **kwargs)

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
        if self.strict:
            raise ScriptMiss(f"no scripted key matches prompt: {request.prompt[:80]!r}...")
        return CompletionResponse(text=self.default, provider=self.name)


class EchoLLM(LLMProvider):
    """Identity provider: replies with the prompt itself."""

    name = "echo"

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        return CompletionResponse(text=request.prompt, provider=self.name)


# A 429 reply from the HTTP LLM endpoint is posted again, up to
# ``HTTP_LLM_RETRIES`` posts in all. The wait after post ``n`` is the backoff
# ``HTTP_LLM_BACKOFF_S * 2 ** (n - 1)``, scaled by a random factor in
# [0.5, 1.5] so that threads refused together do not retry together, or the
# reply's ``Retry-After``, whichever is longer.
HTTP_LLM_RETRIES = 3
HTTP_LLM_BACKOFF_S = 1.0


class HttpLLM(LLMProvider):
    """Minimal JSON-over-HTTP provider: POST {prompt, temperature, max_tokens},
    read {text}.

    A 429 reply (the endpoint's concurrency or rate limit) is retried as
    ``HTTP_LLM_RETRIES`` and ``HTTP_LLM_BACKOFF_S`` describe, waiting at most
    ``timeout`` for a ``Retry-After``. Any other failure is a
    ``ProviderError`` at once.

    A session the provider makes itself keeps up to ``parallelism`` times the
    requests one question can have in flight (``verify.MAX_CLAIM_WORKERS``
    claim threads, each scoring ``denoise.MAX_NECESSITY_WORKERS`` labels)
    open, so concurrent requests reuse their connections.
    """

    name = "http"

    def __init__(self, url: str, session=None, timeout: float = 120.0, parallelism: int = 1):
        if not url:
            raise ValueError("llm_url must be set for the http provider")
        self.url = url
        if session is None:
            import requests  # deferred: stub and offline runs never pay its import
            from requests.adapters import HTTPAdapter

            from .denoise import MAX_NECESSITY_WORKERS
            from .verify import MAX_CLAIM_WORKERS

            session = requests.Session()
            adapter = HTTPAdapter(pool_maxsize=parallelism * MAX_CLAIM_WORKERS * MAX_NECESSITY_WORKERS)
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self._session = session
        self.timeout = timeout

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        import requests

        payload = {
            "prompt": request.prompt,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        for attempt in range(1, HTTP_LLM_RETRIES + 1):
            try:
                response = self._session.post(self.url, json=payload, timeout=self.timeout)
            except requests.RequestException as exc:
                raise ProviderError(f"LLM endpoint unreachable: {exc}") from exc
            if response.status_code != 429 or attempt == HTTP_LLM_RETRIES:
                break
            log.warning("LLM endpoint returned 429 (attempt %d)", attempt)
            backoff = HTTP_LLM_BACKOFF_S * random.uniform(0.5, 1.5)
            time.sleep(retry_wait(response, attempt, backoff, self.timeout))
        if response.status_code != 200:
            raise ProviderError(f"LLM endpoint returned {response.status_code}")
        try:
            return CompletionResponse(text=response.json()["text"], provider=self.name)
        except (ValueError, KeyError, TypeError) as exc:
            raise ProviderError(f"LLM endpoint reply malformed: {exc}") from exc


class MemoLLM(LLMProvider):
    """Sends each distinct request to the wrapped provider once and answers
    repeats from memory.

    Sound because every pipeline call runs at temperature 0, so one request
    has one reply. Only replies are stored: an exception propagates as before
    and a later identical request reaches the provider again. Each track
    wraps its provider in a fresh memo per question, and the question's
    claim and necessity threads share it, so a lock guards the table. The
    provider call runs outside the lock: two threads that ask one new
    request at the same moment both send it. The necessity threads of one
    ``denoise`` call ask distinct labels, and claims of one question share
    a prompt only when the draft repeats a claim, because every prompt a
    claim sends embeds its text.
    """

    def __init__(self, inner: LLMProvider):
        self.inner = inner
        self.name = inner.name
        self._lock = threading.Lock()
        self._replies: dict[tuple[str, float, int], CompletionResponse] = {}

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        key = (request.prompt, request.temperature, request.max_tokens)
        with self._lock:
            reply = self._replies.get(key)
        if reply is None:
            reply = self.inner.complete(request)
            with self._lock:
                self._replies[key] = reply
        return reply


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
