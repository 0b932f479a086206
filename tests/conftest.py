"""Shared fixtures: the movie fixture graph, packaged prompt templates, and
deterministic provider doubles."""

import threading

import pytest
import requests
from hypothesis import settings

from dualtrack import transport
from dualtrack.engine import PACKAGED_PROMPTS, Pipeline
from dualtrack.kg import EntityRef, InMemoryTripleStore, KGStore, RelationSet, parse_triples
from dualtrack.llm import CompletionRequest, LLMProvider, ProviderError, StubLLM, load_templates
from dualtrack.scoring import EmbeddingProvider, HashEmbedding, RerankProvider, ground, score_candidates

# No per-example time limit: a wall-clock deadline fails a sound property
# when the machine is loaded. Example counts stay as each test sets them.
settings.register_profile("dualtrack", deadline=None)
settings.load_profile("dualtrack")

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


_PACKAGED_TEMPLATES = load_templates(PACKAGED_PROMPTS)


def scoring_pipe(cfg, embedder, reranker) -> Pipeline:
    """A pipeline for scoring steps alone: ``cfg`` and the two scoring
    providers, with an empty store, a silent stub LLM and the packaged
    templates."""
    return Pipeline(
        store=InMemoryTripleStore([]),
        llm=StubLLM(),
        templates=_PACKAGED_TEMPLATES,
        embedder=embedder,
        reranker=reranker,
        config=cfg,
    )


def score_pool(query, candidates, relations, pipe):
    """``score_candidates`` over ``candidates``, triples of ``relations``,
    with the step's embedding fills started and no early rerank, so Stage
    I's cut always runs first. The entity's fill embeds every triple's
    text: no keyword rule applies."""
    return score_candidates(query, candidates, pipe, pipe.embedder.start(query, relations, list))


def _keep_all(pool, *args, **kwargs):
    """A ``denoise`` that keeps every candidate: no rule, no necessity."""
    return list(pool)


def ground_pool(query, candidates, relations, pipe):
    """``candidates`` scored as both tracks score them, through
    ``scoring.ground``, with both denoising layers keeping everything: a
    pool of at most ``top_n`` candidates has its rerank sent early."""
    return ground(query, candidates, relations, pipe, score_candidates, _keep_all)


class MappingEmbedding(EmbeddingProvider):
    """Fixed text -> row mapping: every text asked must be in it. Its
    dimension is the first row's length."""

    def __init__(self, rows):
        self.rows = dict(rows)
        self.dimension = len(next(iter(self.rows.values())))

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
    """Counts the tasks submitted to ``transport.LEAVES`` and runs them
    there; patch it over ``transport.LEAVES`` to count a cache's fills."""

    def __init__(self):
        self.submitted = 0
        self.leaves = transport.LEAVES

    def submit(self, fn, *args):
        self.submitted += 1
        return self.leaves.submit(fn, *args)


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
    ``requests``. ``faults`` maps a request's texts, as a tuple, to a
    function that spoils the rows of the first reply to that request."""

    def __init__(self, dimension: int = 16, faults=None):
        super().__init__(dimension)
        self.requests = []
        self.faults = dict(faults or {})

    def embed(self, texts):
        self.requests.append(tuple(texts))
        rows = super().embed(texts)
        spoil = self.faults.pop(tuple(texts), None)
        return spoil(rows) if spoil else rows


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
