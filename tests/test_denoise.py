"""Denoiser tests: keyword rule layer, LLM necessity layer, keep-on-failure,
concurrent per-label scoring."""

import logging
import re
import threading
import time
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CountingLeaves, FailingLLM
from dualtrack import denoise as denoise_module
from dualtrack import transport
from dualtrack.config import EngineConfig
from dualtrack.denoise import denoise, rule_filter
from dualtrack.kg import EntityRef, LiteralValue, RelationRef, Triple, parse_triples
from dualtrack.llm import CompletionResponse, LLMProvider, MemoLLM, ProviderError, StubLLM
from dualtrack.transport import LEAF_THREADS
from oracles import keyword_rule, serial_denoise


@pytest.fixture
def cfg():
    return EngineConfig()


def _triples(relations):
    """One triple per relation, in order: the denoiser reads only a
    candidate's relation."""
    return [Triple(EntityRef("Q1", "subject"), relation, LiteralValue(relation.id)) for relation in relations]


# ---------------------------------------------------------------------------
# rule layer
# ---------------------------------------------------------------------------


def test_rule_filter_drops_administrative_labels(cfg):
    assert rule_filter(RelationRef("P1", "wikidata:id"), cfg) is True
    assert rule_filter(RelationRef("P2", "data source"), cfg) is True
    assert rule_filter(RelationRef("P3", "schema version"), cfg) is True
    assert rule_filter(RelationRef("P9", "external id"), cfg) is True


def test_rule_filter_keeps_content_labels(cfg):
    assert rule_filter(RelationRef("P4", "spouse"), cfg) is False
    assert rule_filter(RelationRef("P5", "director"), cfg) is False
    # a keyword matches whole words only: "id" and "source" are inside these
    for label in ("place of residence", "width", "said to be the same as", "candidacy in election",
                  "side effect", "resource"):
        assert rule_filter(RelationRef("P551", label), cfg) is False, label


def test_rule_filter_matches_a_keyword_of_several_words_in_order():
    cfg = EngineConfig(k_invalid=["data source"])
    assert rule_filter(RelationRef("P1", "Data-Source"), cfg) is True
    assert rule_filter(RelationRef("P2", "data source of record"), cfg) is True
    assert rule_filter(RelationRef("P3", "source data"), cfg) is False
    assert rule_filter(RelationRef("P4", "metadata sources"), cfg) is False


def test_rule_filter_case_insensitive(cfg):
    assert rule_filter(RelationRef("P6", "Entity ID"), cfg) is True
    assert rule_filter(RelationRef("P7", "METADATA block"), cfg) is True


def test_rule_filter_unresolved_label_kept_with_warning(cfg, caplog):
    with caplog.at_level(logging.WARNING):
        assert rule_filter(RelationRef("P8", ""), cfg) is False
    assert "no label" in caplog.text


@given(
    label=st.text(alphabet="ab İé_:- 1", min_size=1, max_size=12),
    keywords=st.lists(st.text(alphabet="ab İé_:- 1", min_size=1, max_size=5), min_size=1, max_size=3),
)
def test_rule_filter_matches_the_word_run_oracle(label, keywords):
    cfg = EngineConfig(k_invalid=keywords)
    assert rule_filter(RelationRef("P1", label), cfg) == keyword_rule(label, cfg.k_invalid)


@given(
    label=st.text(min_size=1, max_size=30),
    base=st.sets(st.sampled_from(["id", "source", "version", "metadata"]), min_size=1),
    extra=st.sets(st.text(alphabet="abcdefgh", min_size=1, max_size=6)),
)
def test_rule_filter_monotone_in_keyword_set(label, base, extra):
    relation = RelationRef("P1", label)
    small = EngineConfig(k_invalid=sorted(base))
    big = EngineConfig(k_invalid=sorted(base | extra))
    if rule_filter(relation, small):
        assert rule_filter(relation, big)


def test_pipelines_with_different_keywords_each_get_their_own_verdict():
    """The rule memo is keyed by label and keyword set: the configs of two
    pipelines in one process that disagree on a label keep disagreeing,
    whichever runs first."""
    ids, spouses = EngineConfig(k_invalid=["id"]), EngineConfig(k_invalid=["spouse"])
    triples = _triples([RelationRef("P1", "spouse id"), RelationRef("P2", "spouse"), RelationRef("P3", "entity id")])
    for _ in range(2):
        assert [t.relation.id for t in denoise(triples, "q", ids)] == ["P2"]
        assert [t.relation.id for t in denoise(triples, "q", spouses)] == ["P3"]


def test_rule_memo_judges_each_label_once_per_keyword_set(cfg):
    memo = denoise_module._rule_drops
    memo.cache_clear()
    labels = ["spouse", "wikidata:id", "director", "spouse"]
    triples = _triples([RelationRef(f"P{i}", label) for i, label in enumerate(labels)])
    for config in (cfg, EngineConfig(k_invalid=["spouse"])):
        for _ in range(3):
            denoise(triples, "q", config)
    info = memo.cache_info()
    assert (info.misses, info.currsize) == (2 * 3, 2 * 3)  # 3 distinct labels under each of 2 keyword sets
    assert info.hits == 2 * 3 * 2  # each later call reads every distinct label from the memo


def test_rule_memo_never_holds_more_than_its_bound(cfg):
    memo = denoise_module._rule_drops
    memo.cache_clear()
    bound = denoise_module.RULE_VERDICTS
    for i in range(bound + 10):
        assert rule_filter(RelationRef("P1", f"relation {i}"), cfg) is False
    assert memo.cache_info().maxsize == memo.cache_info().currsize == bound


# ---------------------------------------------------------------------------
# necessity layer
# ---------------------------------------------------------------------------


def test_necessity_score_scripted(templates):
    # keys target the rendered 'Relation:' line; bare relation words would
    # collide with the template's own few-shot examples
    stub = StubLLM(script=[("Relation: director", "0.9"), ("Relation: height", "0.1")])
    director, height = RelationRef("P1", "director"), RelationRef("P2", "height")

    def kept(relation, question, theta):
        cfg = EngineConfig(theta_necessity=theta)
        return denoise(
            _triples([relation]), question, cfg, MemoLLM(stub), templates["necessity"]
        ) == _triples([relation])

    # each scripted score keeps its relation at a threshold equal to it, not above
    assert kept(director, "Who directed it?", 0.9) and not kept(director, "Who directed it?", 0.95)
    assert kept(height, "When is the birthday?", 0.1) and not kept(height, "When is the birthday?", 0.15)


def test_necessity_unparseable_keeps_with_warning(templates, caplog):
    stub = StubLLM(default="hard to say")
    triples = _triples([RelationRef("P1", "director")])
    with caplog.at_level(logging.WARNING):
        kept = denoise(triples, "q", EngineConfig(theta_necessity=1.0), MemoLLM(stub), templates["necessity"])
    assert kept == triples
    assert len(stub.calls) == 1
    assert "unparseable" in caplog.text


# ---------------------------------------------------------------------------
# dual-layer denoise
# ---------------------------------------------------------------------------


def test_denoise_drops_paper_style_admin_triple(cfg, templates):
    triples = parse_triples(["QF1|Inception|PF7|wikidata:id|Q1375011|"])
    stub = StubLLM(default="0.9")
    assert denoise(triples, "Who directed Inception?", cfg, MemoLLM(stub), templates["necessity"]) == []
    # dropped by the rule layer alone: the LLM is never consulted
    assert stub.calls == []


def test_denoise_empty_input(cfg, templates):
    assert denoise([], "q", cfg, MemoLLM(StubLLM()), templates["necessity"]) == []


def test_denoise_mixed_scores_threshold(templates):
    cfg = EngineConfig(theta_necessity=0.5)
    triples = _triples([RelationRef("P1", "director"), RelationRef("P2", "height")])
    stub = StubLLM(script=[("Relation: director", "0.9"), ("Relation: height", "0.1")])
    kept = denoise(triples, "Who directed Inception?", cfg, MemoLLM(stub), templates["necessity"])
    assert kept == [triples[0]]


def test_denoise_preserves_input_order(cfg, templates):
    triples = _triples([RelationRef(f"P{i}", f"topic{i}") for i in range(6)])
    stub = StubLLM(default="0.9")
    kept = denoise(triples, "q", cfg, MemoLLM(stub), templates["necessity"])
    assert kept == triples


def test_denoise_without_llm_runs_rule_layer_only(cfg):
    triples = _triples([RelationRef("P1", "director"), RelationRef("P2", "wikidata:id")])
    assert denoise(triples, "q", cfg) == [triples[0]]


def test_denoise_theta_zero_skips_llm_calls(templates):
    cfg = EngineConfig(theta_necessity=0.0)
    stub = StubLLM(default="0.0")
    triples = _triples([RelationRef("P1", "director")])
    kept = denoise(triples, "q", cfg, MemoLLM(stub), templates["necessity"])
    assert kept == triples
    assert stub.calls == []


def test_denoise_keeps_items_on_provider_failure(cfg, templates, caplog):
    triples = _triples([RelationRef("P1", "director"), RelationRef("P2", "spouse")])
    with caplog.at_level(logging.WARNING):
        kept = denoise(triples, "q", cfg, MemoLLM(FailingLLM()), templates["necessity"])
    assert kept == triples
    assert "keeping" in caplog.text


def test_denoise_output_subset_of_input(cfg, templates):
    labels = ["a", "entity id", "b", "source of", "c"]
    triples = _triples([RelationRef(f"P{i}", label) for i, label in enumerate(labels)])
    stub = StubLLM(script=[("- relation", "0.7")], default="0.7")
    kept = denoise(triples, "q", cfg, MemoLLM(stub), templates["necessity"])
    assert set(t.key() for t in kept) <= set(t.key() for t in triples)


def test_denoise_full_drop_when_every_label_matches(cfg, templates):
    triples = _triples(
        [
            RelationRef("P1", "wikidata:id"),
            RelationRef("P2", "data source"),
            RelationRef("P3", "schema version"),
            RelationRef("P4", "metadata block"),
        ]
    )
    stub = StubLLM(default="0.9")
    assert denoise(triples, "q", cfg, MemoLLM(stub), templates["necessity"]) == []
    assert stub.calls == []


def test_denoise_config_validation():
    with pytest.raises(ValueError, match="k_invalid"):
        EngineConfig(k_invalid=[])
    with pytest.raises(ValueError, match="theta_necessity"):
        EngineConfig(theta_necessity=1.5)
    cfg = EngineConfig(k_invalid=["ID", "Source"])
    assert cfg.k_invalid == ["id", "source"]


# ---------------------------------------------------------------------------
# concurrent necessity scoring
# ---------------------------------------------------------------------------

_RELATION_LINE = re.compile(r"^Relation: (.*)$", re.MULTILINE)


class _PerLabelLLM(LLMProvider):
    """Replies through ``reply(label)``, the label read from the prompt's
    ``Relation:`` line; records every label asked."""

    name = "per-label"

    def __init__(self, reply):
        self.reply = reply
        self.asked = []

    def complete(self, request):
        label = _RELATION_LINE.search(request.prompt).group(1)
        self.asked.append(label)
        return CompletionResponse(text=self.reply(label), provider=self.name)


def test_denoise_scores_distinct_labels_concurrently(cfg, templates):
    labels = [f"topic{i}" for i in range(4)]
    assert len(labels) <= LEAF_THREADS
    barrier = threading.Barrier(len(labels), timeout=2)

    def reply(label):
        barrier.wait()  # breaks unless every label is being scored at once
        return "0.9"

    triples = _triples([RelationRef(f"P{i}", label) for i, label in enumerate(labels)])
    llm = _PerLabelLLM(reply)
    assert denoise(triples, "q", cfg, MemoLLM(llm), templates["necessity"]) == triples
    assert sorted(llm.asked) == labels


def test_denoise_keeps_input_order_when_replies_finish_in_reverse(cfg, templates):
    labels = [f"topic{i}" for i in range(5)]
    done = {label: threading.Event() for label in labels}
    finished = []

    def reply(label):
        later = labels.index(label) + 1
        if later < len(labels) and not done[labels[later]].wait(timeout=2):
            raise AssertionError("labels were not scored concurrently")
        finished.append(label)
        done[label].set()
        return "0.9" if labels.index(label) % 2 == 0 else "0.1"

    triples = _triples([RelationRef(f"P{i}", labels[i % 5]) for i in range(10)])
    kept = denoise(triples, "q", cfg, MemoLLM(_PerLabelLLM(reply)), templates["necessity"])
    assert finished == labels[::-1]
    assert kept == [t for t in triples if t.relation.label in ("topic0", "topic2", "topic4")]


def test_denoise_raises_the_earliest_labels_error(cfg, templates):
    later_failed = threading.Event()

    def reply(label):
        if label == "second":
            later_failed.set()
            raise ValueError("second")
        if label == "first":
            if not later_failed.wait(timeout=2):
                raise AssertionError("labels were not scored concurrently")
            raise ValueError("first")
        return "0.9"

    triples = _triples([RelationRef("P1", "first"), RelationRef("P2", "second"), RelationRef("P3", "third")])
    with pytest.raises(ValueError, match="first"):
        denoise(triples, "q", cfg, MemoLLM(_PerLabelLLM(reply)), templates["necessity"])


def test_denoise_raises_only_after_every_label_is_scored(cfg, templates):
    labels = ["first"] + [f"slow{i}" for i in range(9)]
    answered = []

    def reply(label):
        if label == "first":
            raise ValueError("first")
        time.sleep(0.05)
        answered.append(label)
        return "0.9"

    llm = _PerLabelLLM(reply)
    triples = _triples([RelationRef(f"P{i}", label) for i, label in enumerate(labels)])
    with pytest.raises(ValueError, match="first"):
        denoise(triples, "q", cfg, MemoLLM(llm), templates["necessity"])
    assert sorted(llm.asked) == sorted(labels)  # no label was cancelled
    assert sorted(answered) == sorted(labels[1:])


def _thread_recording_llm(threads, together):
    """Records the thread of every prompt; ``together`` prompts must be in
    flight at once before any is answered."""
    barrier = threading.Barrier(together, timeout=2)

    def reply(label):
        threads.append(threading.current_thread())
        barrier.wait()
        return "0.9"

    return _PerLabelLLM(reply)


def test_denoise_prompt_threads_outlive_the_call(cfg, templates):
    threads = []
    triples = _triples([RelationRef(f"P{i}", f"topic{i}") for i in range(5)])
    assert denoise(triples, "q", cfg, MemoLLM(_thread_recording_llm(threads, 5)), templates["necessity"]) == triples
    assert len(set(threads)) == 5
    assert all(thread.is_alive() for thread in threads)


def test_denoise_calls_share_at_most_leaf_threads(cfg, templates):
    threads = []
    llm = _thread_recording_llm(threads, 5)
    triples = _triples([RelationRef(f"P{i}", f"topic{i}") for i in range(5)])
    for _ in range(30):
        denoise(triples, "q", cfg, MemoLLM(llm), templates["necessity"])
    assert len(threads) == 30 * 5
    assert len(set(threads)) <= LEAF_THREADS


def test_denoise_provider_error_keeps_every_candidate_with_that_label(cfg, templates):
    outages = ["director"]  # the first "director" prompt fails, a retry would answer 0.1

    def reply(label):
        if label in outages:
            outages.remove(label)
            raise ProviderError("transient outage")
        return "0.1"

    triples = _triples(
        [
            RelationRef("P1", "director"),
            RelationRef("P2", "spouse"),
            RelationRef("P9", "director"),
            RelationRef("P3", "height"),
        ]
    )
    kept = denoise(triples, "q", cfg, MemoLLM(_PerLabelLLM(reply)), templates["necessity"])
    assert kept == [triples[0], triples[2]]


def test_denoise_sends_one_prompt_per_distinct_label(cfg, templates):
    labels = ["director", "spouse", "director", "genre", "spouse", "director"]
    triples = _triples([RelationRef(f"P{i}", label) for i, label in enumerate(labels)])
    stub = StubLLM(default="0.9")
    assert denoise(triples, "q", cfg, MemoLLM(stub), templates["necessity"]) == triples
    assert Counter(_RELATION_LINE.search(c).group(1) for c in stub.calls) == Counter(set(labels))


def test_denoise_scores_labels_the_memo_holds_inline(cfg, templates, monkeypatch):
    leaves = CountingLeaves()
    monkeypatch.setattr(transport, "LEAVES", leaves)
    labels = ["director", "height", "director", "spouse"]
    triples = _triples([RelationRef(f"P{i}", label) for i, label in enumerate(labels)])
    stub = StubLLM(script=[("Relation: height", "0.1")], default="0.9")
    memo = MemoLLM(stub)
    expected = [t for t in triples if t.relation.label != "height"]
    assert denoise(triples, "q", cfg, memo, templates["necessity"]) == expected
    assert leaves.submitted == 3
    assert denoise(triples, "q", cfg, memo, templates["necessity"]) == expected
    assert leaves.submitted == 3  # warm: every label read inline
    genre = _triples([RelationRef("P9", "genre")])
    assert denoise(genre + triples, "q", cfg, memo, templates["necessity"]) == genre + expected
    assert leaves.submitted == 4  # only the label the memo lacks goes to a leaf
    assert len(stub.calls) == 4


_LABELS = ["director", "spouse", "genre", "cast member", "award", "data source", ""]


@given(
    picks=st.lists(st.integers(0, len(_LABELS) - 1), max_size=20),
    theta=st.sampled_from([0.0, 0.3, 0.5, 0.7]),
    offsets=st.lists(
        st.sampled_from([-0.1, -0.01, 0.0, 0.01, 0.1, None]), min_size=len(_LABELS), max_size=len(_LABELS)
    ),
    failing=st.sets(st.sampled_from(_LABELS)),
)
def test_denoise_matches_serial_oracle(templates, picks, theta, offsets, failing):
    # an empty label is asked by relation id; every such candidate gets its own
    triples = _triples([RelationRef(f"P{i}" if not _LABELS[p] else f"P{p}", _LABELS[p]) for i, p in enumerate(picks)])

    def reply(label):
        index = _LABELS.index(label) if label in _LABELS else _LABELS.index("")
        if _LABELS[index] in failing:
            raise ProviderError("down")
        offset = offsets[index]
        return "unsure" if offset is None else f"{min(1.0, max(0.0, theta + offset)):.2f}"

    cfg = EngineConfig(theta_necessity=theta)
    expected = serial_denoise(triples, "q", cfg.k_invalid, theta, _PerLabelLLM(reply), templates["necessity"])
    assert denoise(triples, "q", cfg, MemoLLM(_PerLabelLLM(reply)), templates["necessity"]) == expected
