"""Knowledge-graph access behind one interface.

Two stores: :class:`SparqlClient` talks to a live Wikidata-style endpoint,
:class:`InMemoryTripleStore` serves a fixture graph loaded from a
pipe-separated triples file. Both expose the same read operations (resolve
an entity by label, an entity's head and tail triples, and the label
inventory), so everything downstream can be exercised deterministically
against the in-memory store.

One cache: :class:`CachedStore` wraps any store so that each of those reads
reaches it once. Every ``Pipeline`` reads its store through one, which the
engine's threads share.

Refs and triples are slotted and immutable. A :class:`Triple` computes its
key and its verbalized text once, when it is built, and every reader shares
them: one grounding step reads each many times.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import tempfile
import threading
from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Union

from .transport import ProviderError, SingleFlightCache, entry_value, http_session, request_json

log = logging.getLogger(__name__)

# Live Wikidata ids are Q+digits; fixture graphs also use QF1-style ids, so
# the fixture parser accepts an optional run of capitals before the digits.
# Ordinary literal words ("Quito", "Quarterly") stay literals.
ENTITY_ID_RE = re.compile(r"^Q[A-Z]*\d+$")

# Per-call result cap; both stores honor it so the interface contract matches.
RELATION_LIMIT = 100

ENTITY_IRI_PREFIX = "http://www.wikidata.org/entity/"
DIRECT_PROP_IRI_PREFIX = "http://www.wikidata.org/prop/direct/"

# Wikidata's query service allows 5 concurrent queries per client. One
# SparqlClient sends at most this many at once, however many evaluation and
# claim threads share it.
MAX_CONCURRENT_QUERIES = 5

# Keys one CachedStore keeps: more than every benchmark workload's whole
# working set (about 900 on chain_hub, 1.7k on verify_fanout).
CACHE_ENTRIES = 4096


class NotFound(Exception):
    """Lookup produced zero bindings."""


@dataclass(frozen=True, slots=True)
class EntityRef:
    """A KG item: QID plus human-readable label (label may lag resolution)."""

    id: str
    label: str = ""


@dataclass(frozen=True, slots=True)
class RelationRef:
    """A KG property: PID plus label; label may be empty before resolution."""

    id: str
    label: str = ""


@dataclass(frozen=True, slots=True)
class LiteralValue:
    """A literal object position (dates, strings, quantities)."""

    value: str
    datatype: str | None = None


ObjectTerm = Union[EntityRef, LiteralValue]


def term_label(term: EntityRef | RelationRef | LiteralValue) -> str:
    """Readable form of a triple position: a literal's value, else the label
    or, when it has none, the id."""
    if isinstance(term, LiteralValue):
        return term.value
    return term.label or term.id


@dataclass(frozen=True, slots=True)
class Triple:
    """A (subject, relation, object) statement. ``text``, its words joined
    by spaces, is what the embedding and rerank providers read; it and the
    key are set once, at construction, and take no part in ``==``."""

    subject: EntityRef
    relation: RelationRef
    object: ObjectTerm
    _key: str = field(init=False, repr=False, compare=False)
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        subject, relation, obj = self.subject, self.relation, self.object
        if isinstance(obj, EntityRef):
            obj_id, obj_word = obj.id, obj.label or obj.id
        else:
            obj_id = obj_word = obj.value
        object.__setattr__(self, "_key", f"{subject.id}|{relation.id}|{obj_id}")
        # each position's term_label, inlined: every triple of a store is built at load
        words = f"{subject.label or subject.id} {relation.label or relation.id} {obj_word}"
        object.__setattr__(self, "text", words)

    def key(self) -> str:
        """Deterministic identifier, used for tie-breaking and dedup."""
        return self._key


@dataclass
class RelationSet:
    """All triples touching ``entity``, split by which side it occupies."""

    entity: EntityRef
    head: list[Triple]
    tail: list[Triple]

    def all(self) -> list[Triple]:
        """Head then tail, each triple key once: a self-loop is on both sides."""
        unique: dict[str, Triple] = {}
        for triple in self.head + self.tail:
            unique.setdefault(triple.key(), triple)
        return list(unique.values())


class KGStore:
    """Read-only triple access. Implementations are shareable across threads."""

    def resolve_entity_id(self, label: str) -> EntityRef:
        """Return the first entity whose English label equals ``label`` exactly."""
        raise NotImplementedError

    def head_relations(self, entity: EntityRef) -> list[Triple]:
        """Triples with ``entity`` as subject, at most RELATION_LIMIT."""
        raise NotImplementedError

    def tail_relations(self, entity: EntityRef) -> list[Triple]:
        """Triples with ``entity`` as object, at most RELATION_LIMIT."""
        raise NotImplementedError

    def entities(self) -> Iterator[EntityRef]:
        """Known entities, for fuzzy link fallback. Live stores yield nothing."""
        return iter(())


class CachedStore(KGStore):
    """A read-through cache over ``inner``, for the lifetime of one engine.

    Caches ``head_relations`` and ``tail_relations`` per ``EntityRef``
    value (id and label: a live store builds triples around the entity it
    was given), ``resolve_entity_id`` per label, a ``NotFound`` miss
    included, and the ``entities`` inventory. That assumes the KG does not
    change while the engine runs.

    The keys live in a ``transport.SingleFlightCache`` of ``CACHE_ENTRIES``:
    a call for a key already in flight waits for the first call's query,
    an error is never cached (the next call asks ``inner`` again), and the
    least recently used key is evicted first. A key holds up to
    ``RELATION_LIMIT`` triples, so a full cache holds up to
    ``CACHE_ENTRIES * RELATION_LIMIT`` triples, besides the one label
    inventory. Every hit returns a fresh list, so a caller may change what
    it gets back.
    """

    def __init__(self, inner: KGStore):
        self.inner = inner
        self._cache = SingleFlightCache(CACHE_ENTRIES)

    def _resolve(self, label: str) -> EntityRef | str:
        try:
            return self.inner.resolve_entity_id(label)
        except NotFound as exc:
            # keep the message, not the exception: a stored exception would
            # gather the traceback of every caller it is raised to
            return str(exc)

    def resolve_entity_id(self, label: str) -> EntityRef:
        found = self._cache.get(("resolve", label), lambda: self._resolve(label))
        if isinstance(found, str):
            raise NotFound(found)
        return found

    def head_relations(self, entity: EntityRef) -> list[Triple]:
        return list(self._cache.get(("head", entity), lambda: tuple(self.inner.head_relations(entity))))

    def tail_relations(self, entity: EntityRef) -> list[Triple]:
        return list(self._cache.get(("tail", entity), lambda: tuple(self.inner.tail_relations(entity))))

    def entities(self) -> Iterator[EntityRef]:
        return iter(self._cache.get(("entities",), lambda: tuple(self.inner.entities())))

    def relations(self, entity: EntityRef) -> RelationSet:
        """The entity's head and tail triples, fetched at the same time:
        tail on ``transport.LEAVES``, head on the calling thread. The call
        returns or raises once both have finished; when both fail, head's
        error is raised. A side the cache keeps is read inline, so a warm
        entity costs no hand-off."""
        tail = self._cache.start(("tail", entity), lambda: tuple(self.inner.tail_relations(entity)))
        try:
            head = self.head_relations(entity)
        finally:
            if isinstance(tail, Future):
                wait([tail])
        return RelationSet(entity, head, list(entry_value(tail)))


# ---------------------------------------------------------------------------
# Fixture triples file
# ---------------------------------------------------------------------------
#
# One triple per line:
#   subject_id|subject_label|relation_id|relation_label|object_id_or_literal|object_label
# Lines starting with '#' and blank lines are ignored. An object field matching
# the QID pattern is an entity reference; anything else is a literal.


def parse_triples(lines: Iterable[str], source: str = "<memory>") -> list[Triple]:
    """The triples of a fixture file's lines. Refs are interned: the triples
    share one ``EntityRef`` or ``RelationRef`` object per distinct (id,
    label), which holds a large store's load memory down."""
    triples = []
    refs: dict[tuple[type, str, str], EntityRef | RelationRef] = {}

    def ref(kind, ref_id, label):
        key = (kind, ref_id, label)
        found = refs.get(key)
        if found is None:
            found = refs[key] = kind(ref_id, label)
        return found

    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("|")
        if len(fields) != 6:
            raise ValueError(f"{source}:{lineno}: expected 6 '|'-separated fields, got {len(fields)}")
        s_id, s_label, r_id, r_label, obj_field, obj_label = map(str.strip, fields)
        if not s_id or not r_id or not obj_field:
            raise ValueError(f"{source}:{lineno}: subject, relation and object must be non-empty")
        obj: ObjectTerm
        if ENTITY_ID_RE.match(obj_field):
            obj = ref(EntityRef, obj_field, obj_label)
        else:
            obj = LiteralValue(obj_field)
        triples.append(Triple(ref(EntityRef, s_id, s_label), ref(RelationRef, r_id, r_label), obj))
    return triples


def load_triples(path: str | Path) -> list[Triple]:
    path = Path(path)
    with path.open(encoding="utf-8") as f:
        return parse_triples(f, source=str(path))


class InMemoryTripleStore(KGStore):
    """Deterministic fixture store; immutable after construction."""

    def __init__(self, triples: Iterable[Triple]):
        self._by_subject: dict[str, list[Triple]] = {}
        self._by_object: dict[str, list[Triple]] = {}
        self._entity_by_label: dict[str, EntityRef] = {}
        self._entity_by_id: dict[str, EntityRef] = {}
        for t in triples:
            self._by_subject.setdefault(t.subject.id, []).append(t)
            self._index_entity(t.subject)
            if isinstance(t.object, EntityRef):
                self._by_object.setdefault(t.object.id, []).append(t)
                self._index_entity(t.object)

    def _index_entity(self, entity: EntityRef) -> None:
        self._entity_by_id.setdefault(entity.id, entity)
        if entity.label:
            # first occurrence wins, mirroring the endpoint's LIMIT 1
            self._entity_by_label.setdefault(entity.label, entity)

    @classmethod
    def from_file(cls, path: str | Path) -> "InMemoryTripleStore":
        return cls(load_triples(path))

    def resolve_entity_id(self, label: str) -> EntityRef:
        if not label:
            raise ValueError("label must be non-empty")
        entity = self._entity_by_label.get(label)
        if entity is None:
            raise NotFound(f"no entity labelled {label!r}")
        return entity

    def head_relations(self, entity: EntityRef) -> list[Triple]:
        return self._by_subject.get(entity.id, [])[:RELATION_LIMIT]

    def tail_relations(self, entity: EntityRef) -> list[Triple]:
        return self._by_object.get(entity.id, [])[:RELATION_LIMIT]

    def entities(self) -> Iterator[EntityRef]:
        return iter(self._entity_by_id.values())


# ---------------------------------------------------------------------------
# SPARQL query templates and builders
# ---------------------------------------------------------------------------
#
# Whitespace inside these literals (including trailing spaces) is significant:
# emitted queries are byte-compared against golden files in the test suite.
# Do not reformat.

GET_ENTITY_ID = """SELECT ?item WHERE {{
    ?item rdfs:label "{safe_name}"@en.
    FILTER(STRSTARTS(STR(?item),
    "http://www.wikidata.org/entity/Q"))
}} LIMIT 1"""

GET_HEAD_RELATIONS = """SELECT ?relation ?relationLabel ?o ?oLabel WHERE {{
    wd:{wikidata_id} ?relation ?o.
    FILTER(STRSTARTS(STR(?relation),
    "http://www.wikidata.org/prop/direct/"))
    SERVICE wikibase:label 
    {{ bd:serviceParam wikibase:language "en". }}
}} LIMIT 100"""

GET_TAIL_RELATIONS = """SELECT ?relation ?relationLabel ?s ?sLabel WHERE {{
    ?s ?relation wd:{wikidata_id}.
    FILTER(STRSTARTS(STR(?relation), 
    "http://www.wikidata.org/prop/direct/"))
    SERVICE wikibase:label 
    {{ bd:serviceParam wikibase:language "en". }}
}} LIMIT 100"""


def escape_label(label: str) -> str:
    """Make a label safe for quoting inside a SPARQL string literal.

    Backslashes and double quotes are escaped; labels containing newlines
    are rejected outright rather than silently mangled.
    """
    if not label:
        raise ValueError("label must be non-empty")
    if "\n" in label or "\r" in label:
        raise ValueError("label must not contain newline characters")
    return label.replace("\\", "\\\\").replace('"', '\\"')


def entity_id_query(label: str) -> str:
    return GET_ENTITY_ID.format(safe_name=escape_label(label))


def head_relations_query(wikidata_id: str) -> str:
    return GET_HEAD_RELATIONS.format(wikidata_id=wikidata_id)


def tail_relations_query(wikidata_id: str) -> str:
    return GET_TAIL_RELATIONS.format(wikidata_id=wikidata_id)


# ---------------------------------------------------------------------------
# Live client
# ---------------------------------------------------------------------------


class SparqlClient(KGStore):
    """SPARQL-over-HTTP client with an on-disk query cache.

    Results are cached keyed by the exact query string so repeated runs are
    reproducible and gentle on rate-limited public endpoints. Cache writes go
    through write-then-rename, so concurrent evaluations can share a cache
    directory. Queries go through :func:`transport.request_json`, with its
    retries, and at most ``MAX_CONCURRENT_QUERIES`` of them are in flight at
    once. A malformed reply is a ``ProviderError``.
    """

    def __init__(
        self, endpoint_url: str, cache_dir: str | Path | None = None, session=None, timeout: float = 30.0
    ):
        self.endpoint_url = endpoint_url
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if self.cache_dir:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._session = session or http_session()
        self._slots = threading.BoundedSemaphore(MAX_CONCURRENT_QUERIES)
        self.timeout = timeout

    # -- cache ---------------------------------------------------------

    def _cache_path(self, query: str) -> Path | None:
        if not self.cache_dir:
            return None
        digest = hashlib.sha256(query.encode("utf-8")).hexdigest()
        return self.cache_dir / f"{digest}.json"

    def _cache_read(self, query: str):
        path = self._cache_path(query)
        if path is None or not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            log.warning("discarding unreadable cache entry %s", path)
            return None

    def _cache_write(self, query: str, payload) -> None:
        path = self._cache_path(query)
        if path is None:
            return
        fd, tmp = tempfile.mkstemp(dir=str(self.cache_dir), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(payload, f)
            os.replace(tmp, path)
        except OSError:
            log.warning("failed to persist cache entry for query", exc_info=True)
            if os.path.exists(tmp):
                os.unlink(tmp)

    # -- transport -----------------------------------------------------

    def execute(self, query: str) -> list[dict]:
        """Run a query, returning the result bindings."""
        cached = self._cache_read(query)
        if cached is not None:
            return self._bindings(cached)

        # A query keeps its slot through its retry waits, so an endpoint that
        # refuses queries is not sent new ones meanwhile.
        with self._slots:
            payload = request_json(
                self._session,
                "get",
                self.endpoint_url,
                self.timeout,
                "SPARQL",
                params={"query": query, "format": "json"},
                headers={"Accept": "application/sparql-results+json"},
            )
        bindings = self._bindings(payload)
        self._cache_write(query, payload)
        return bindings

    @staticmethod
    def _bindings(payload) -> list[dict]:
        try:
            bindings = payload["results"]["bindings"]
        except (KeyError, TypeError) as exc:
            raise ProviderError("SPARQL endpoint failed: missing results.bindings") from exc
        if not isinstance(bindings, list):
            raise ProviderError("SPARQL endpoint failed: results.bindings is not a list")
        return bindings

    # -- store interface -------------------------------------------------

    def resolve_entity_id(self, label: str) -> EntityRef:
        rows = self.execute(entity_id_query(label))
        if not rows:
            raise NotFound(f"no entity labelled {label!r}")
        iri = self._value(rows[0], "item")
        return EntityRef(id=self._strip_prefix(iri, ENTITY_IRI_PREFIX), label=label)

    def head_relations(self, entity: EntityRef) -> list[Triple]:
        rows = self.execute(head_relations_query(entity.id))
        triples = []
        for row in rows[:RELATION_LIMIT]:
            relation = self._relation(row)
            obj = self._term(row, "o", "oLabel")
            triples.append(Triple(subject=entity, relation=relation, object=obj))
        return triples

    def tail_relations(self, entity: EntityRef) -> list[Triple]:
        rows = self.execute(tail_relations_query(entity.id))
        triples = []
        for row in rows[:RELATION_LIMIT]:
            relation = self._relation(row)
            subj = self._term(row, "s", "sLabel")
            if not isinstance(subj, EntityRef):
                log.warning("skipping tail triple with literal subject: %r", subj)
                continue
            triples.append(Triple(subject=subj, relation=relation, object=entity))
        return triples

    # -- binding helpers -------------------------------------------------

    @staticmethod
    def _value(row: dict, name: str) -> str:
        try:
            value = row[name]["value"]
        except (KeyError, TypeError) as exc:
            raise ProviderError(f"SPARQL endpoint failed: binding missing {name!r}") from exc
        if not isinstance(value, str):
            raise ProviderError(f"SPARQL endpoint failed: binding {name!r} is not a string")
        return value

    @staticmethod
    def _optional(row: dict, name: str) -> str:
        return SparqlClient._value(row, name) if name in row else ""

    @staticmethod
    def _strip_prefix(iri: str, prefix: str) -> str:
        return iri[len(prefix):] if iri.startswith(prefix) else iri

    def _relation(self, row: dict) -> RelationRef:
        iri = self._value(row, "relation")
        return RelationRef(
            id=self._strip_prefix(iri, DIRECT_PROP_IRI_PREFIX),
            label=self._optional(row, "relationLabel"),
        )

    def _term(self, row: dict, name: str, label_name: str) -> ObjectTerm:
        try:
            entry = row[name]
            kind = entry["type"]
        except (KeyError, TypeError) as exc:
            raise ProviderError(f"SPARQL endpoint failed: binding missing {name!r}") from exc
        value = self._value(row, name)
        if kind == "uri" and value.startswith(ENTITY_IRI_PREFIX):
            return EntityRef(
                id=self._strip_prefix(value, ENTITY_IRI_PREFIX),
                label=self._optional(row, label_name),
            )
        return LiteralValue(value=value, datatype=entry.get("datatype"))
