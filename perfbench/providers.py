"""Counting, latency-injecting wrappers around the four providers.

Every wrapper sleeps a fixed time per call (the stand-in for a network round
trip), then calls the wrapped provider and records the call in a shared
:class:`Ledger`. The ledger takes a lock for every update, because
``Engine.evaluate`` calls the providers from several threads at once.

With a tracer attached, each provider call is also a span, so the layers
above can report self time net of provider time.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import Counter, defaultdict

from dualtrack.kg import KGStore


def _no_span(name, **attrs):
    return contextlib.nullcontext()


class Ledger:
    """Thread-safe counters, distinct-item sets and busy time per key."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: Counter = Counter()
        self._ms: Counter = Counter()
        self._seen: dict[str, set] = defaultdict(set)

    def record(self, key: str, n: int = 1, seen=(), ms: float = 0.0) -> None:
        with self._lock:
            self._counts[key] += n
            self._ms[key] += ms
            self._seen[key].update(seen)

    def snapshot(self) -> dict:
        """``key`` -> count, ``key.unique`` -> distinct items, ``key.ms`` ->
        time spent, for every key recorded so far."""
        with self._lock:
            out = dict(self._counts)
            out.update({f"{key}.unique": len(items) for key, items in self._seen.items()})
            out.update({f"{key}.ms": ms for key, ms in self._ms.items()})
        return out


class _Wrapper:
    def __init__(self, inner, latency_ms: float, ledger: Ledger, tracer=None):
        self.inner = inner
        self.latency_s = latency_ms / 1000.0
        self.ledger = ledger
        self.span = tracer.span if tracer is not None else _no_span

    def _call(self, layer: str, key: str, call, *args, seen=(), **span_attrs):
        with self.span(layer, **span_attrs):
            start = time.perf_counter()
            time.sleep(self.latency_s)
            try:
                return call(*args)
            finally:
                self.ledger.record(key, seen=seen, ms=(time.perf_counter() - start) * 1000.0)


class CountingLLM(_Wrapper):
    """Counts calls and distinct prompts per template, and prompt size."""

    def __init__(self, inner, latency_ms, ledger, index, tracer=None):
        super().__init__(inner, latency_ms, ledger, tracer)
        self.index = index
        self.name = inner.name

    def complete(self, request):
        template = self.index.name_of(request.prompt)
        self.ledger.record("llm.prompt_chars", n=len(request.prompt))
        return self._call(
            "llm", f"llm.{template}", self.inner.complete, request,
            seen=(hash(request.prompt),), template=template,
        )


class CountingStore(_Wrapper, KGStore):
    """Counts every store query; head and tail fetches also record the
    entity and the number of triples returned. A label-inventory scan is
    what fuzzy linking does after an exact-label miss."""

    def resolve_entity_id(self, label):
        return self._call("kg", "kg.resolve", self.inner.resolve_entity_id, label)

    def get_label(self, relation):
        return self._call("kg", "kg.label", self.inner.get_label, relation)

    def _fetch(self, call, entity):
        triples = self._call("kg", "kg.fetch", call, entity, seen=(entity.id,))
        self.ledger.record("kg.triples", n=len(triples))
        return triples

    def head_relations(self, entity):
        return self._fetch(self.inner.head_relations, entity)

    def tail_relations(self, entity):
        return self._fetch(self.inner.tail_relations, entity)

    def entities(self):
        return iter(self._call("kg", "kg.inventory", lambda: list(self.inner.entities())))


class CountingEmbedder(_Wrapper):
    """Counts embed calls, texts, and distinct texts."""

    def __init__(self, inner, latency_ms, ledger, tracer=None):
        super().__init__(inner, latency_ms, ledger, tracer)
        self.dimension = inner.dimension

    def embed(self, texts):
        self.ledger.record("embed.texts", n=len(texts), seen=texts)
        return self._call("embed", "embed.calls", self.inner.embed, texts)


class CountingReranker(_Wrapper):
    """Counts rerank calls and texts."""

    def rerank(self, query, texts):
        self.ledger.record("rerank.texts", n=len(texts))
        return self._call("rerank", "rerank.calls", self.inner.rerank, query, texts)
