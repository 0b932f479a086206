"""KG store tests: fixture parsing, both store implementations, SPARQL query
builders, the live client against a fake transport, and the read-through
cache."""

import json
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from conftest import CountingLeaves, RecordingStore
from dualtrack import kg, transport
from dualtrack.kg import (
    MAX_CONCURRENT_QUERIES,
    RELATION_LIMIT,
    CachedStore,
    EntityRef,
    InMemoryTripleStore,
    LiteralValue,
    NotFound,
    RelationRef,
    SparqlClient,
    Triple,
    entity_id_query,
    escape_label,
    fetch_relations,
    head_relations_query,
    load_triples,
    parse_triples,
    tail_relations_query,
)
from dualtrack.transport import ProviderError
from oracles import triple_reference

GOLDEN_DIR = Path(__file__).parent / "data" / "sparql"


# ---------------------------------------------------------------------------
# fixture file parsing
# ---------------------------------------------------------------------------


def test_parse_triples_entities_and_literals():
    triples = parse_triples(
        [
            "# a comment",
            "",
            "QF1|Inception|PF1|director|QF2|Christopher Nolan",
            "QF3|Emma Thomas|PF3|birthdate|1975-05-26|",
            "QF1|Inception|PF7|wikidata:id|Q1375011|",
        ]
    )
    assert len(triples) == 3
    assert triples[0].object == EntityRef("QF2", "Christopher Nolan")
    assert triples[1].object == LiteralValue("1975-05-26")
    assert triples[2].object == EntityRef("Q1375011", "")


def test_parse_triples_rejects_bad_field_count():
    with pytest.raises(ValueError, match="expected 6"):
        parse_triples(["QF1|Inception|PF1|director"])


def test_parse_triples_rejects_empty_required_fields():
    with pytest.raises(ValueError, match="non-empty"):
        parse_triples(["QF1|Inception||director|QF2|x"])


def test_load_triples_roundtrip(tmp_path, movie_triples):
    path = tmp_path / "g.triples"
    path.write_text(
        "\n".join(
            "|".join(
                [
                    t.subject.id,
                    t.subject.label,
                    t.relation.id,
                    t.relation.label,
                    t.object.id if isinstance(t.object, EntityRef) else t.object.value,
                    t.object.label if isinstance(t.object, EntityRef) else "",
                ]
            )
            for t in movie_triples
        ),
        encoding="utf-8",
    )
    assert load_triples(path) == movie_triples


# ---------------------------------------------------------------------------
# triples
# ---------------------------------------------------------------------------

# a small alphabet, so that two drawn triples are often equal and labels
# are often empty
_words = st.text(alphabet="ab |", max_size=2)
_triple_fields = st.tuples(
    st.tuples(_words, _words),
    st.tuples(_words, _words),
    st.one_of(
        st.tuples(st.just("entity"), _words, _words),
        st.tuples(st.just("literal"), _words, st.one_of(st.none(), _words)),
    ),
)


def _triple(fields) -> Triple:
    (s_id, s_label), (r_id, r_label), (kind, o_first, o_second) = fields
    obj = EntityRef(o_first, o_second) if kind == "entity" else LiteralValue(o_first, o_second)
    return Triple(EntityRef(s_id, s_label), RelationRef(r_id, r_label), obj)


@given(_triple_fields, _triple_fields)
def test_triple_key_text_equality_and_hash_match_the_reference(a_fields, b_fields):
    a, b = _triple(a_fields), _triple(b_fields)
    key, text, digest = triple_reference(a_fields)
    assert (a.key(), a.text, hash(a)) == (key, text, digest)
    assert (a == b) is (a_fields == b_fields)
    assert a == _triple(a_fields) and hash(a) == hash(_triple(a_fields))
    assert not hasattr(a, "__dict__")  # slotted
    with pytest.raises(AttributeError):
        a.subject = b.subject


# fixture-file fields: ids that parse as entities, labels often shared or empty
_ids = st.sampled_from(["Q1", "Q2"])
_labels = st.sampled_from(["", "a", "b"])
_line_fields = st.tuples(
    st.tuples(_ids, _labels),
    st.tuples(st.sampled_from(["P1", "P2"]), _labels),
    st.one_of(
        st.tuples(st.just("entity"), _ids, _labels),
        st.tuples(st.just("literal"), st.sampled_from(["x", "y"]), st.none()),
    ),
)


@given(st.lists(_line_fields, max_size=12))
def test_parse_triples_interns_refs_and_keeps_keys_texts_and_equality(rows):
    lines = [
        "|".join((s_id, s_label, r_id, r_label, o_first, o_second or ""))
        for (s_id, s_label), (r_id, r_label), (_, o_first, o_second) in rows
    ]
    triples = parse_triples(lines)
    assert len(triples) == len(rows)
    interned = {}  # (type, id, label) -> the one ref object parse_triples built
    for fields, triple in zip(rows, triples):
        assert (triple.key(), triple.text, hash(triple)) == triple_reference(fields)
        assert triple == _triple(fields)
        for ref in (triple.subject, triple.relation, triple.object):
            if not isinstance(ref, LiteralValue):
                assert interned.setdefault((type(ref), ref.id, ref.label), ref) is ref


# ---------------------------------------------------------------------------
# in-memory store
# ---------------------------------------------------------------------------


def test_resolve_entity_id_fixture_lookup(movie_store):
    assert movie_store.resolve_entity_id("Inception") == EntityRef("QF1", "Inception")


def test_resolve_entity_id_empty_store():
    store = InMemoryTripleStore([])
    with pytest.raises(NotFound):
        store.resolve_entity_id("zzz-no-such-entity")


def test_resolve_entity_id_is_case_sensitive(movie_store):
    with pytest.raises(NotFound):
        movie_store.resolve_entity_id("inception")


def test_resolve_entity_finds_object_only_entities(movie_store):
    assert movie_store.resolve_entity_id("science fiction film").id == "QF9"


def test_resolve_entity_first_match_wins():
    store = InMemoryTripleStore(
        parse_triples(
            [
                "QF5|Mercury|P1|kind|QF6|planet",
                "QF7|Mercury|P1|kind|QF8|element",
            ]
        )
    )
    assert store.resolve_entity_id("Mercury").id == "QF5"


def test_head_relations_enumerates_outgoing(movie_store):
    triples = movie_store.head_relations(EntityRef("QF2", "Christopher Nolan"))
    assert [t.relation.label for t in triples] == ["spouse"]
    assert all(t.subject.id == "QF2" for t in triples)


def test_head_relations_no_edges(movie_store):
    assert movie_store.head_relations(EntityRef("QF9")) == []


def test_head_relations_capped_at_limit():
    lines = [f"QF1|Hub|P{i}|rel{i}|QF{i + 10}|spoke{i}" for i in range(150)]
    store = InMemoryTripleStore(parse_triples(lines))
    assert len(store.head_relations(EntityRef("QF1"))) == RELATION_LIMIT


def test_tail_relations_enumerates_incoming(movie_store):
    triples = movie_store.tail_relations(EntityRef("QF1", "Inception"))
    assert [t.relation.label for t in triples] == ["cast member"]
    assert all(t.object.id == "QF1" for t in triples)


def test_tail_relations_none(movie_store):
    assert movie_store.tail_relations(EntityRef("QF8")) == []


def test_head_tail_union_equals_brute_force_scan():
    # Eq-style property: head+tail per entity matches a full scan of the graph
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 12)
        lines = []
        for _ in range(rng.randint(0, 40)):
            s, o = rng.randint(0, n - 1), rng.randint(0, n - 1)
            r = rng.randint(0, 5)
            lines.append(f"Q{s + 1}|node{s}|P{r}|rel{r}|Q{o + 1}|node{o}")
        store = InMemoryTripleStore(parse_triples(lines))
        all_triples = parse_triples(lines)
        for k in range(n):
            entity = EntityRef(f"Q{k + 1}")
            got = {(t.key(), "h") for t in store.head_relations(entity)} | {
                (t.key(), "t") for t in store.tail_relations(entity)
            }
            expected = {(t.key(), "h") for t in all_triples if t.subject.id == entity.id} | {
                (t.key(), "t")
                for t in all_triples
                if isinstance(t.object, EntityRef) and t.object.id == entity.id
            }
            assert got == expected


# ---------------------------------------------------------------------------
# query builders
# ---------------------------------------------------------------------------


def test_entity_id_query_substitution():
    query = entity_id_query("Inception")
    assert '?item rdfs:label "Inception"@en.' in query
    assert '"http://www.wikidata.org/entity/Q"' in query
    assert query.endswith("LIMIT 1")


def test_head_relations_query_substitution():
    query = head_relations_query("Q25188")
    assert "wd:Q25188 ?relation ?o." in query
    assert "LIMIT 100" in query


def test_tail_relations_query_substitution():
    query = tail_relations_query("Q25188")
    assert "?s ?relation wd:Q25188." in query


@pytest.mark.parametrize(
    "name,build,placeholder,value",
    [
        ("get_entity_id", entity_id_query, "{safe_name}", "Inception"),
        ("get_head_relations", head_relations_query, "{wikidata_id}", "Q25188"),
        ("get_tail_relations", tail_relations_query, "{wikidata_id}", "Q25188"),
    ],
)
def test_queries_byte_match_golden_files(name, build, placeholder, value):
    golden = (GOLDEN_DIR / f"{name}.rq").read_text(encoding="utf-8")
    assert build(value) == golden.replace(placeholder, value)


def test_escape_label():
    assert escape_label('say "hi"') == 'say \\"hi\\"'
    assert escape_label("a\\b") == "a\\\\b"
    with pytest.raises(ValueError):
        escape_label("two\nlines")
    with pytest.raises(ValueError):
        escape_label("")


# ---------------------------------------------------------------------------
# live client with a fake transport
# ---------------------------------------------------------------------------


class FakeResponse:
    def __init__(self, payload=None, status_code=200, text="{}", headers=None):
        self._payload = payload
        self.status_code = status_code
        self.text = text
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class FakeSession:
    def __init__(self, outcomes):
        # outcomes: FakeResponse instances or exceptions, consumed per call
        self.outcomes = list(outcomes)
        self.calls = []

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls.append({"url": url, "params": params, "headers": headers})
        outcome = self.outcomes.pop(0) if len(self.outcomes) > 1 else self.outcomes[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _result(bindings):
    return {"head": {"vars": []}, "results": {"bindings": bindings}}


def _entity_binding(qid):
    return {"item": {"type": "uri", "value": f"http://www.wikidata.org/entity/{qid}"}}


def test_client_resolves_entity():
    session = FakeSession([FakeResponse(_result([_entity_binding("Q25188")]))])
    client = SparqlClient("http://kg.test/sparql", session=session)
    assert client.resolve_entity_id("Inception") == EntityRef("Q25188", "Inception")
    sent = session.calls[0]
    assert sent["headers"]["Accept"] == "application/sparql-results+json"
    assert sent["params"]["query"] == entity_id_query("Inception")


def test_client_not_found_on_zero_bindings():
    session = FakeSession([FakeResponse(_result([]))])
    client = SparqlClient("http://kg.test/sparql", session=session)
    with pytest.raises(NotFound):
        client.resolve_entity_id("zzz")


def test_client_parses_head_relations_uri_and_literal():
    rows = [
        {
            "relation": {"type": "uri", "value": "http://www.wikidata.org/prop/direct/P57"},
            "relationLabel": {"type": "literal", "value": "director"},
            "o": {"type": "uri", "value": "http://www.wikidata.org/entity/Q25191"},
            "oLabel": {"type": "literal", "value": "Christopher Nolan"},
        },
        {
            "relation": {"type": "uri", "value": "http://www.wikidata.org/prop/direct/P577"},
            "o": {"type": "literal", "value": "2010-07-16", "datatype": "xsd:date"},
        },
    ]
    session = FakeSession([FakeResponse(_result(rows))])
    client = SparqlClient("http://kg.test/sparql", session=session)
    entity = EntityRef("Q25188", "Inception")
    triples = client.head_relations(entity)
    assert triples[0] == Triple(entity, RelationRef("P57", "director"), EntityRef("Q25191", "Christopher Nolan"))
    assert triples[1].relation == RelationRef("P577", "")
    assert triples[1].object == LiteralValue("2010-07-16", "xsd:date")


def test_client_parses_tail_relations():
    rows = [
        {
            "relation": {"type": "uri", "value": "http://www.wikidata.org/prop/direct/P161"},
            "relationLabel": {"type": "literal", "value": "cast member"},
            "s": {"type": "uri", "value": "http://www.wikidata.org/entity/Q38111"},
            "sLabel": {"type": "literal", "value": "Leonardo DiCaprio"},
        }
    ]
    session = FakeSession([FakeResponse(_result(rows))])
    client = SparqlClient("http://kg.test/sparql", session=session)
    entity = EntityRef("Q25188", "Inception")
    (triple,) = client.tail_relations(entity)
    assert triple.subject == EntityRef("Q38111", "Leonardo DiCaprio")
    assert triple.object is entity


def test_client_truncates_live_results_to_limit():
    rows = [
        {
            "relation": {"type": "uri", "value": f"http://www.wikidata.org/prop/direct/P{i}"},
            "o": {"type": "literal", "value": str(i)},
        }
        for i in range(150)
    ]
    session = FakeSession([FakeResponse(_result(rows))])
    client = SparqlClient("http://kg.test/sparql", session=session)
    assert len(client.head_relations(EntityRef("Q1"))) == RELATION_LIMIT


def test_client_retries_then_succeeds():
    session = FakeSession(
        [
            requests.Timeout("slow"),
            FakeResponse(status_code=503),
            FakeResponse(_result([_entity_binding("Q1")])),
        ]
    )
    client = SparqlClient("http://kg.test/sparql", session=session)
    assert client.resolve_entity_id("x").id == "Q1"
    assert len(session.calls) == 3


def test_client_gives_up_after_bounded_retries():
    session = FakeSession([FakeResponse(status_code=500)])
    client = SparqlClient("http://kg.test/sparql", session=session)
    with pytest.raises(ProviderError, match="status 500"):
        client.execute(entity_id_query("x"))
    assert len(session.calls) == transport.HTTP_RETRIES


@pytest.mark.parametrize(
    "headers, slept",
    [({"Retry-After": "7"}, [7.0]), ({"Retry-After": "999"}, [30.0]), ({}, [transport.HTTP_BACKOFF_S])],
    ids=["retry_after", "retry_after_capped_at_timeout", "backoff"],
)
def test_client_retries_rate_limit_reply(monkeypatch, retry_sleeps, headers, slept):
    monkeypatch.setattr(transport.random, "uniform", lambda low, high: 1.0)
    session = FakeSession(
        [FakeResponse(status_code=429, headers=headers), FakeResponse(_result([_entity_binding("Q1")]))]
    )
    client = SparqlClient("http://kg.test/sparql", session=session, timeout=30.0)
    assert client.resolve_entity_id("x").id == "Q1"
    assert len(session.calls) == 2
    assert retry_sleeps == slept


def test_client_caps_queries_in_flight():
    n = 3 * MAX_CONCURRENT_QUERIES
    cond = threading.Condition()
    release = threading.Event()
    active = {"now": 0, "peak": 0}

    class BlockingSession:
        def get(self, url, params=None, headers=None, timeout=None):
            with cond:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
                cond.notify_all()
            release.wait(timeout=2)
            with cond:
                active["now"] -= 1
            return FakeResponse(_result([_entity_binding("Q1")]))

    client = SparqlClient("http://kg.test/sparql", session=BlockingSession())
    with ThreadPoolExecutor(n) as pool:
        futures = [pool.submit(client.resolve_entity_id, f"x{i}") for i in range(n)]
        with cond:
            assert cond.wait_for(lambda: active["now"] >= MAX_CONCURRENT_QUERIES, timeout=2)
            cond.wait_for(lambda: active["now"] > MAX_CONCURRENT_QUERIES, timeout=0.2)  # a client without a cap lets more in here
        release.set()
        assert [f.result(timeout=2).id for f in futures] == ["Q1"] * n
    assert active["peak"] == MAX_CONCURRENT_QUERIES


def test_client_4xx_fails_without_retry():
    session = FakeSession([FakeResponse(status_code=403)])
    client = SparqlClient("http://kg.test/sparql", session=session)
    with pytest.raises(ProviderError, match="status 403"):
        client.execute(entity_id_query("x"))
    assert len(session.calls) == 1


def test_client_malformed_json():
    session = FakeSession([FakeResponse(payload=None)])
    client = SparqlClient("http://kg.test/sparql", session=session)
    with pytest.raises(ProviderError, match="SPARQL endpoint failed"):
        client.execute(entity_id_query("x"))


def test_client_malformed_result_shape():
    session = FakeSession([FakeResponse({"unexpected": True})])
    client = SparqlClient("http://kg.test/sparql", session=session)
    with pytest.raises(ProviderError, match="SPARQL endpoint failed"):
        client.execute(entity_id_query("x"))


_HEAD_ROW = {
    "relation": {"type": "uri", "value": "http://www.wikidata.org/prop/direct/P57"},
    "relationLabel": {"type": "literal", "value": "director"},
    "o": {"type": "uri", "value": "http://www.wikidata.org/entity/Q25191"},
    "oLabel": {"type": "literal", "value": "Christopher Nolan"},
}


@pytest.mark.parametrize(
    "name, term",
    [
        ("relation", {"type": "uri", "value": 57}),
        ("relationLabel", {"type": "literal", "value": ["director"]}),
        ("o", {"type": "uri", "value": None}),
        ("o", {"value": "http://www.wikidata.org/entity/Q25191"}),
        ("oLabel", {"type": "literal"}),
    ],
    ids=[
        "relation_not_a_string",
        "label_not_a_string",
        "object_not_a_string",
        "object_without_type",
        "label_without_value",
    ],
)
def test_client_malformed_binding_is_a_provider_error(name, term):
    session = FakeSession([FakeResponse(_result([{**_HEAD_ROW, name: term}]))])
    client = SparqlClient("http://kg.test/sparql", session=session)
    with pytest.raises(ProviderError, match=f"SPARQL endpoint failed: binding .*{name!r}"):
        client.head_relations(EntityRef("Q25188", "Inception"))


def test_client_cache_serves_repeat_queries(tmp_path):
    payload = _result([_entity_binding("Q777")])
    session = FakeSession([FakeResponse(payload)])
    client = SparqlClient("http://kg.test/sparql", cache_dir=tmp_path, session=session)
    assert client.resolve_entity_id("Cached").id == "Q777"
    assert len(session.calls) == 1

    # a fresh client over the same cache dir must not touch the transport
    from conftest import FailingSession

    cold = SparqlClient("http://kg.test/sparql", cache_dir=tmp_path, session=FailingSession())
    assert cold.resolve_entity_id("Cached").id == "Q777"
    cached_files = list(tmp_path.glob("*.json"))
    assert len(cached_files) == 1
    assert json.loads(cached_files[0].read_text())["results"]["bindings"]


def test_fetch_relations_union(movie_store):
    relations = fetch_relations(movie_store, EntityRef("QF1", "Inception"))
    assert len(relations.head) == 4
    assert len(relations.tail) == 1
    assert len(relations.all()) == 5


def test_relation_set_lists_a_self_loop_once():
    loop, other = parse_triples(["Q1|Alpha|P1|same as|Q1|Alpha", "Q1|Alpha|P2|located in|Q2|Beta"])
    relations = fetch_relations(InMemoryTripleStore([loop, other]), EntityRef("Q1", "Alpha"))
    assert relations.head == [loop, other]
    assert relations.tail == [loop]
    assert relations.all() == [loop, other]


def test_fetch_relations_sends_head_and_tail_together(movie_store):
    barrier = threading.Barrier(2, timeout=2)  # breaks unless both fetches are in flight at once
    inception = EntityRef("QF1", "Inception")
    relations = fetch_relations(RecordingStore(movie_store, lambda side: barrier.wait()), inception)
    assert relations.head == movie_store.head_relations(inception)
    assert relations.tail == movie_store.tail_relations(inception)


def test_fetch_relations_raises_heads_error_over_tails(movie_store):
    tail_failed = threading.Event()

    def both_down(side):
        if side == "tail_relations":
            tail_failed.set()
        else:
            tail_failed.wait(timeout=2)
        raise ProviderError(f"{side} fetch failed")

    with pytest.raises(ProviderError, match="head"):
        fetch_relations(RecordingStore(movie_store, both_down), EntityRef("QF1", "Inception"))


def test_fetch_relations_raises_tails_error(movie_store):
    def tail_down(side):
        if side == "tail_relations":
            raise ProviderError("tail fetch failed")

    with pytest.raises(ProviderError, match="tail"):
        fetch_relations(RecordingStore(movie_store, tail_down), EntityRef("QF1", "Inception"))


def test_fetch_relations_reads_a_cached_entity_inline(movie_store, monkeypatch):
    inception, nolan = EntityRef("QF1", "Inception"), EntityRef("QF2", "Christopher Nolan")
    expected = fetch_relations(movie_store, inception)
    leaves = CountingLeaves()
    monkeypatch.setattr(kg, "LEAVES", leaves)
    cached = CachedStore(movie_store)
    assert fetch_relations(cached, inception) == expected
    assert leaves.submitted == 1
    assert fetch_relations(cached, inception) == expected
    assert leaves.submitted == 1
    cached.head_relations(nolan)  # only head is cached, so tail is still fetched on a leaf
    fetch_relations(cached, nolan)
    assert leaves.submitted == 2


# ---------------------------------------------------------------------------
# read-through cache
# ---------------------------------------------------------------------------


def test_cached_store_sends_one_query_for_callers_in_flight_together(movie_store):
    threads = 8
    barrier = threading.Barrier(threads, timeout=2)
    # the first query is held open, so every caller asks while it is in flight
    recording = RecordingStore(movie_store, lambda method: threading.Event().wait(0.05))
    cached = CachedStore(recording)
    inception = EntityRef("QF1", "Inception")

    def fetch(_):
        barrier.wait()
        return cached.head_relations(inception)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(threads) as pool:
            results = list(pool.map(fetch, range(threads), timeout=5))
    finally:
        sys.setswitchinterval(interval)
    assert recording.calls == [("head_relations", inception)]
    assert results == [movie_store.head_relations(inception)] * threads


def test_cached_store_does_not_cache_a_provider_error(movie_store):
    failures = [ProviderError("endpoint down")]

    def fail_once(method):
        if failures:
            raise failures.pop()

    recording = RecordingStore(movie_store, fail_once)
    cached = CachedStore(recording)
    inception = EntityRef("QF1", "Inception")
    with pytest.raises(ProviderError, match="endpoint down"):
        cached.tail_relations(inception)
    assert cached.tail_relations(inception) == movie_store.tail_relations(inception)
    assert cached.tail_relations(inception) == movie_store.tail_relations(inception)
    assert recording.calls == [("tail_relations", inception)] * 2


def test_cached_store_hands_a_provider_error_to_every_caller_in_flight(movie_store):
    release = threading.Event()
    started = threading.Event()

    def fail_first(method):
        if not started.is_set():
            started.set()
            assert release.wait(timeout=2)
            raise ProviderError("endpoint down")

    recording = RecordingStore(movie_store, fail_first)
    cached = CachedStore(recording)
    inception = EntityRef("QF1", "Inception")
    with ThreadPoolExecutor(4) as pool:
        first = pool.submit(cached.tail_relations, inception)
        assert started.wait(timeout=2)
        waiters = [pool.submit(cached.tail_relations, inception) for _ in range(3)]
        time.sleep(0.2)  # lets the waiters reach the query in flight
        release.set()
        for future in [first, *waiters]:
            with pytest.raises(ProviderError, match="endpoint down"):
                future.result(timeout=5)
    assert recording.calls == [("tail_relations", inception)]
    assert cached.tail_relations(inception) == movie_store.tail_relations(inception)
    assert len(recording.calls) == 2


def test_cached_store_raises_a_new_not_found_on_each_hit(movie_store):
    recording = RecordingStore(movie_store)
    cached = CachedStore(recording)
    raised = []
    for _ in range(3):
        with pytest.raises(NotFound, match="no entity labelled 'Nope'") as info:
            cached.resolve_entity_id("Nope")
        raised.append(info.value)
    assert len({id(exc) for exc in raised}) == 3
    assert recording.calls == [("resolve_entity_id", "Nope")]
    assert cached.resolve_entity_id("Inception") == movie_store.resolve_entity_id("Inception")


def test_cached_store_keys_on_the_whole_entity_ref(movie_store):
    recording = RecordingStore(movie_store)
    cached = CachedStore(recording)
    for entity in (EntityRef("QF1", "Inception"), EntityRef("QF1", ""), EntityRef("QF1", "Inception")):
        cached.head_relations(entity)
    assert recording.calls == [("head_relations", EntityRef("QF1", "Inception")), ("head_relations", EntityRef("QF1", ""))]


def test_cached_store_evicts_the_least_recently_used_entry(movie_store, monkeypatch):
    monkeypatch.setattr(kg, "CACHE_ENTRIES", 2)
    recording = RecordingStore(movie_store)
    cached = CachedStore(recording)
    for label in ("Inception", "Emma Thomas", "Inception", "Christopher Nolan", "Inception", "Emma Thomas"):
        cached.resolve_entity_id(label)
    # "Emma Thomas" was the least recently used when "Christopher Nolan" came in
    assert [label for _, label in recording.calls] == ["Inception", "Emma Thomas", "Christopher Nolan", "Emma Thomas"]


def test_cached_store_hands_each_caller_its_own_list(movie_store):
    recording = RecordingStore(movie_store)
    cached = CachedStore(recording)
    inception = EntityRef("QF1", "Inception")
    cached.head_relations(inception).clear()
    cached.head_relations(inception).append(None)
    assert cached.head_relations(inception) == movie_store.head_relations(inception)
    assert list(cached.entities()) == list(cached.entities()) == list(movie_store.entities())
    assert recording.calls == [("head_relations", inception), ("entities",)]
