"""Shared fixtures: the movie fixture graph, packaged prompt templates, and
deterministic provider doubles."""

import threading

import pytest
import requests

from dualtrack import transport
from dualtrack.engine import PACKAGED_PROMPTS
from dualtrack.kg import EntityRef, InMemoryTripleStore, KGStore, RelationSet, parse_triples
from dualtrack.llm import CompletionRequest, LLMProvider, ProviderError, StubLLM, load_templates
from dualtrack.scoring import EmbeddingProvider, HashEmbedding, RerankProvider

MOVIE_LINES = [
    "QF1|Inception|PF1|director|QF2|Christopher Nolan",
    "QF2|Christopher Nolan|PF2|spouse|QF3|Emma Thomas",
    "QF3|Emma Thomas|PF3|birthdate|1975-05-26|",
    "QF1|Inception|PF4|publication date|2010-07-16|",
    "QF1|Inception|PF5|genre|QF9|science fiction film",
    "QF8|Leonardo DiCaprio|PF6|cast member|QF1|Inception",
    "QF1|Inception|PF7|wikidata:id|Q1375011|",
]


@pytest.fixture(autouse=True)
def retry_sleeps(monkeypatch):
    """Every retry wait of ``transport``, in seconds, recorded instead of
    slept, so tests that drive retries do not wait them out."""
    sleeps = []
    monkeypatch.setattr(transport.time, "sleep", sleeps.append)
    return sleeps


@pytest.fixture
def movie_triples():
    return parse_triples(MOVIE_LINES)


@pytest.fixture
def movie_store(movie_triples):
    return InMemoryTripleStore(movie_triples)


@pytest.fixture(scope="session")
def templates():
    return load_templates(PACKAGED_PROMPTS)


class RecordingStore(KGStore):
    """Answers from ``inner`` and records every call as a (method, *args)
    tuple in ``calls``, after calling ``hook(method)``."""

    def __init__(self, inner, hook=lambda method: None):
        self.inner = inner
        self.hook = hook
        self.calls = []

    def _call(self, method, *args):
        self.calls.append((method, *args))
        self.hook(method)
        return getattr(self.inner, method)(*args)

    def resolve_entity_id(self, label):
        return self._call("resolve_entity_id", label)

    def head_relations(self, entity):
        return self._call("head_relations", entity)

    def tail_relations(self, entity):
        return self._call("tail_relations", entity)

    def entities(self):
        return self._call("entities")


class ConstantRerank(RerankProvider):
    """The same score for every text."""

    def __init__(self, value=0.5):
        self.value = value

    def rerank(self, query, texts):
        return [self.value] * len(texts)


def relations_of(triples) -> RelationSet:
    """One entity's ``RelationSet`` holding ``triples``, for a scoring step
    whose candidates they are."""
    return RelationSet(EntityRef("Q0", "pool"), list(triples), [])


class MappingEmbedding(EmbeddingProvider):
    """Fixed text -> row mapping: every text asked must be in it."""

    def __init__(self, rows):
        self.rows = dict(rows)

    def embed(self, texts):
        return [list(self.rows[t]) for t in texts]


class MappingRerank(RerankProvider):
    """Fixed text -> score mapping; unknown texts get the default."""

    def __init__(self, mapping, default=0.0):
        self.mapping = dict(mapping)
        self.default = default

    def rerank(self, query, texts):
        return [self.mapping.get(t, self.default) for t in texts]


class CountingRerank(RerankProvider):
    """Wraps another reranker and records every batch it is asked to score."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def rerank(self, query, texts):
        self.batches.append(list(texts))
        return self.inner.rerank(query, texts)


class CountingLeaves:
    """Counts the tasks submitted to ``transport.LEAVES`` and runs them there."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        return transport.LEAVES.submit(fn, *args)


NECESSITY = "Rate how necessary the relation is"


class NecessityGateLLM(StubLLM):
    """A scripted stub that opens ``gate`` when a necessity prompt arrives,
    then raises ``error`` for it if one is given."""

    def __init__(self, gate: threading.Event, error: Exception | None = None, **stub):
        super().__init__(**stub)
        self.gate = gate
        self.error = error

    def complete(self, request):
        if NECESSITY in request.prompt:
            self.gate.set()
            if self.error is not None:
                raise self.error
        return super().complete(request)


class GatedEmbedding(HashEmbedding):
    """Hash embeddings sent only after ``gate`` opens, waiting at most 2 s
    for it. Then raises ``error`` if one is given, or ``AssertionError`` if
    the gate never opened."""

    def __init__(self, dimension: int, gate: threading.Event, error: Exception | None = None):
        super().__init__(dimension)
        self.gate = gate
        self.error = error

    def embed(self, texts):
        opened = self.gate.wait(timeout=2)
        if self.error is not None:
            raise self.error
        if not opened:
            raise AssertionError("scoring waited and no necessity prompt reached the LLM")
        return super().embed(texts)


class RecordingEmbedding(HashEmbedding):
    """Hash embeddings that record the texts of every request in
    ``requests``, and spoil the replies to the first ``len(faults)``
    requests with ``faults`` in turn."""

    def __init__(self, dimension: int = 16, faults=()):
        super().__init__(dimension)
        self.requests = []
        self.faults = list(faults)

    def embed(self, texts):
        self.requests.append(tuple(texts))
        rows = super().embed(texts)
        return self.faults.pop(0)(rows) if self.faults else rows


class FailingLLM(LLMProvider):
    name = "failing"

    def complete(self, request: CompletionRequest):
        raise ProviderError("scripted provider failure")


class FailingSession:
    """Network guard: any HTTP verb trips an assertion."""

    def get(self, *args, **kwargs):
        raise AssertionError("network access attempted")

    def post(self, *args, **kwargs):
        raise AssertionError("network access attempted")

    request = get


class DownSession:
    """An endpoint that refuses every connection."""

    def post(self, *args, **kwargs):
        raise requests.ConnectionError("connection refused")
