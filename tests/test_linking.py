"""Entity linking: exact lookup, edit-distance fallback, tie-breaking."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualtrack import linking
from dualtrack.kg import EntityRef, InMemoryTripleStore, KGStore, NotFound, parse_triples
from dualtrack.linking import LinkFailure, levenshtein, link_surface, similarity

from oracles import linear_link


class InventoryStore(KGStore):
    """A label inventory without triples that counts its listings. Exact
    lookup returns the first entity with the label, as the fixture store
    does."""

    def __init__(self, entities):
        self._entities = list(entities)
        self.listings = 0

    def resolve_entity_id(self, label):
        for entity in self._entities:
            if entity.label == label:
                return entity
        raise NotFound(label)

    def entities(self):
        self.listings += 1
        return iter(self._entities)


def test_levenshtein_known_values():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "") == 3


def test_similarity_casefolds():
    assert similarity("Inception", "inception") == 1.0
    assert similarity("", "") == 1.0
    assert similarity("abcd", "abce") == pytest.approx(0.75)


def test_exact_label_match(movie_store):
    assert link_surface("Inception", movie_store).id == "QF1"


def test_exact_match_is_argmax(movie_store):
    # a stored label matched exactly has similarity 1 and wins outright
    assert link_surface("Emma Thomas", movie_store).id == "QF3"


def test_fuzzy_fallback_casefolded(movie_store):
    assert link_surface("inception", movie_store).id == "QF1"


def test_fuzzy_below_floor_fails(movie_store):
    # 'inceptoin' is 2 edits from 'Inception': similarity 7/9 < 0.8
    with pytest.raises(LinkFailure):
        link_surface("inceptoin", movie_store, floor=0.8)


def test_fuzzy_above_floor_links(movie_store):
    assert link_surface("inceptoin", movie_store, floor=0.7).id == "QF1"


def test_tie_breaks_on_lexicographic_qid():
    store = InMemoryTripleStore(
        parse_triples(
            [
                "Q20|abce|P1|rel|Q99|thing",
                "Q10|abcd|P1|rel|Q99|thing",
            ]
        )
    )
    # both labels are one edit from the surface; the lexicographically
    # smaller QID must win
    assert link_surface("abcf", store, floor=0.5).id == "Q10"


def test_empty_surface_fails(movie_store):
    with pytest.raises(LinkFailure):
        link_surface("", movie_store)


def test_store_without_label_inventory_cannot_fuzzy_link():
    store = InMemoryTripleStore([])
    with pytest.raises(LinkFailure):
        link_surface("anything", store, floor=0.0)


# ---------------------------------------------------------------------------
# equality with the full scan
# ---------------------------------------------------------------------------

# "ß" and "İ" change length under casefold; "ss", "i" and upper case give
# case-folded twins of other labels
ALPHABET = "aAbBsSiIßİ "
LABEL_POOL = ["ab", "AB", "Ab", "ss", "SS", "ß", "İ", "i", "abss", "aßb", "abssi", ""]
labels = st.one_of(st.sampled_from(LABEL_POOL), st.text(alphabet=ALPHABET, max_size=7))


@st.composite
def inventories(draw):
    """Entities with distinct QIDs (some of them share a label) in any order,
    and a surface: a stored label, a case variant of one, one with a letter
    dropped or added, or random text."""
    qids = draw(st.lists(st.integers(1, 40), max_size=12, unique=True))
    entities = [EntityRef(id=f"Q{n}", label=draw(labels)) for n in qids]
    stored = [e.label for e in entities if e.label]
    surface = draw(
        st.one_of(
            st.text(alphabet=ALPHABET, max_size=8),
            st.sampled_from(stored or [""]),
            st.sampled_from(stored or [""]).map(str.upper),
            st.sampled_from(stored or [""]).map(str.lower),
            st.sampled_from(stored or [""]).map(str.casefold),
            st.sampled_from(stored or [""]).map(str.swapcase),
            st.sampled_from(stored or [""]).map(lambda label: label[:-1]),
            st.sampled_from(stored or [""]).map(lambda label: label + "s"),
        )
    )
    return entities, surface


def _outcome(link, surface, store, floor):
    try:
        return link(surface, store, floor)
    except LinkFailure:
        return LinkFailure


@settings(max_examples=400)
@given(case=inventories(), floor=st.sampled_from([0.0, 2 / 3, 0.75, 0.8, 1.0]))
# equal after casefold but not after lower: the lower QID must still win
@example(case=([EntityRef(id="Q2", label="SS"), EntityRef(id="Q1", label="ß")], "ss"), floor=0.8)
def test_link_surface_matches_linear_scan(case, floor):
    entities, surface = case
    store = InventoryStore(entities)
    assert _outcome(link_surface, surface, store, floor) == _outcome(linear_link, surface, store, floor)


# ---------------------------------------------------------------------------
# call budgets
# ---------------------------------------------------------------------------

NUMBERED = [EntityRef(id=f"Q{i}", label=f"Entity {i:03d}") for i in range(500)]


def test_casefolded_hit_computes_no_edit_distance(monkeypatch):
    def no_distance(*args, **kwargs):
        raise AssertionError("edit distance computed")

    monkeypatch.setattr(linking, "levenshtein", no_distance)
    assert link_surface("ENTITY 250", InventoryStore(NUMBERED)).id == "Q250"


@pytest.mark.parametrize(
    "surface, expected",
    [("entity 250", NUMBERED[250]), ("Entity 25O", NUMBERED[250]), ("nothing like it", LinkFailure)],
)
def test_fuzzy_link_lists_the_inventory_once(surface, expected):
    store = InventoryStore(NUMBERED)
    assert _outcome(link_surface, surface, store, 0.8) == expected
    assert store.listings == 1


def test_case_sensitive_hit_lists_no_inventory():
    store = InventoryStore(NUMBERED)
    assert link_surface("Entity 250", store).id == "Q250"
    assert store.listings == 0
