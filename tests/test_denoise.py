"""Denoiser tests: keyword rule layer, LLM necessity layer, keep-on-failure,
concurrent per-label scoring."""

import logging
import re
import threading
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FailingLLM
from dualtrack.denoise import MAX_NECESSITY_WORKERS, DenoiseConfig, denoise, necessity_score, rule_filter
from dualtrack.kg import RelationRef, parse_triples
from dualtrack.llm import CompletionResponse, LLMProvider, ProviderError, StubLLM
from oracles import serial_denoise


@pytest.fixture
def cfg():
    return DenoiseConfig()


# ---------------------------------------------------------------------------
# rule layer
# ---------------------------------------------------------------------------


def test_rule_filter_drops_administrative_labels(cfg):
    assert rule_filter(RelationRef("P1", "wikidata:id"), cfg) is True
    assert rule_filter(RelationRef("P2", "data source"), cfg) is True
    assert rule_filter(RelationRef("P3", "schema version"), cfg) is True


def test_rule_filter_keeps_content_labels(cfg):
    assert rule_filter(RelationRef("P4", "spouse"), cfg) is False
    assert rule_filter(RelationRef("P5", "director"), cfg) is False


def test_rule_filter_case_insensitive(cfg):
    assert rule_filter(RelationRef("P6", "Entity ID"), cfg) is True
    assert rule_filter(RelationRef("P7", "METADATA block"), cfg) is True


def test_rule_filter_unresolved_label_kept_with_warning(cfg, caplog):
    with caplog.at_level(logging.WARNING):
        assert rule_filter(RelationRef("P8", ""), cfg) is False
    assert "no label" in caplog.text


@given(
    label=st.text(min_size=1, max_size=30),
    base=st.sets(st.sampled_from(["id", "source", "version", "metadata"]), min_size=1),
    extra=st.sets(st.text(alphabet="abcdefgh", min_size=1, max_size=6)),
)
def test_rule_filter_monotone_in_keyword_set(label, base, extra):
    relation = RelationRef("P1", label)
    small = DenoiseConfig(k_invalid=frozenset(base))
    big = DenoiseConfig(k_invalid=frozenset(base | extra))
    if rule_filter(relation, small):
        assert rule_filter(relation, big)


# ---------------------------------------------------------------------------
# necessity layer
# ---------------------------------------------------------------------------


def test_necessity_score_scripted(templates):
    # keys target the rendered 'Relation:' line; bare relation words would
    # collide with the template's own few-shot examples
    stub = StubLLM(script=[("Relation: director", "0.9"), ("Relation: height", "0.1")])
    assert necessity_score(RelationRef("P1", "director"), "Who directed it?", stub, templates["necessity"]) == 0.9
    assert necessity_score(RelationRef("P2", "height"), "When is the birthday?", stub, templates["necessity"]) == 0.1


def test_necessity_unparseable_keeps_with_warning(templates, caplog):
    stub = StubLLM(default="hard to say")
    with caplog.at_level(logging.WARNING):
        score = necessity_score(RelationRef("P1", "director"), "q", stub, templates["necessity"])
    assert score == 1.0
    assert "unparseable" in caplog.text


# ---------------------------------------------------------------------------
# dual-layer denoise
# ---------------------------------------------------------------------------


def test_denoise_drops_paper_style_admin_triple(cfg, templates):
    triples = parse_triples(["QF1|Inception|PF7|wikidata:id|Q1375011|"])
    stub = StubLLM(default="0.9")
    assert denoise(triples, "Who directed Inception?", cfg, stub, templates["necessity"]) == []
    # dropped by the rule layer alone: the LLM is never consulted
    assert stub.calls == []


def test_denoise_empty_input(cfg, templates):
    assert denoise([], "q", cfg, StubLLM(), templates["necessity"]) == []


def test_denoise_mixed_scores_threshold(templates):
    cfg = DenoiseConfig(theta_necessity=0.5)
    relations = [RelationRef("P1", "director"), RelationRef("P2", "height")]
    stub = StubLLM(script=[("Relation: director", "0.9"), ("Relation: height", "0.1")])
    kept = denoise(relations, "Who directed Inception?", cfg, stub, templates["necessity"])
    assert kept == [relations[0]]


def test_denoise_preserves_input_order(cfg, templates):
    relations = [RelationRef(f"P{i}", f"topic{i}") for i in range(6)]
    stub = StubLLM(default="0.9")
    kept = denoise(relations, "q", cfg, stub, templates["necessity"])
    assert kept == relations


def test_denoise_without_llm_runs_rule_layer_only(cfg):
    relations = [RelationRef("P1", "director"), RelationRef("P2", "wikidata:id")]
    assert denoise(relations, "q", cfg) == [relations[0]]


def test_denoise_theta_zero_skips_llm_calls(templates):
    cfg = DenoiseConfig(theta_necessity=0.0)
    stub = StubLLM(default="0.0")
    relations = [RelationRef("P1", "director")]
    kept = denoise(relations, "q", cfg, stub, templates["necessity"])
    assert kept == relations
    assert stub.calls == []


def test_denoise_keeps_items_on_provider_failure(cfg, templates, caplog):
    relations = [RelationRef("P1", "director"), RelationRef("P2", "spouse")]
    with caplog.at_level(logging.WARNING):
        kept = denoise(relations, "q", cfg, FailingLLM(), templates["necessity"])
    assert kept == relations
    assert "keeping" in caplog.text


def test_denoise_output_subset_of_input(cfg, templates):
    relations = [RelationRef(f"P{i}", label) for i, label in enumerate(["a", "entity id", "b", "source of", "c"])]
    stub = StubLLM(script=[("- relation", "0.7")], default="0.7")
    kept = denoise(relations, "q", cfg, stub, templates["necessity"])
    assert set(r.id for r in kept) <= set(r.id for r in relations)


def test_denoise_full_drop_when_every_label_matches(cfg, templates):
    relations = [
        RelationRef("P1", "wikidata:id"),
        RelationRef("P2", "data source"),
        RelationRef("P3", "schema version"),
        RelationRef("P4", "metadata block"),
    ]
    stub = StubLLM(default="0.9")
    assert denoise(relations, "q", cfg, stub, templates["necessity"]) == []
    assert stub.calls == []


def test_denoise_config_validation():
    with pytest.raises(ValueError):
        DenoiseConfig(k_invalid=frozenset())
    with pytest.raises(ValueError):
        DenoiseConfig(theta_necessity=1.5)
    cfg = DenoiseConfig(k_invalid=frozenset({"ID", "Source"}))
    assert cfg.k_invalid == frozenset({"id", "source"})


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
    assert len(labels) <= MAX_NECESSITY_WORKERS
    barrier = threading.Barrier(len(labels), timeout=2)

    def reply(label):
        barrier.wait()  # breaks unless every label is being scored at once
        return "0.9"

    relations = [RelationRef(f"P{i}", label) for i, label in enumerate(labels)]
    llm = _PerLabelLLM(reply)
    assert denoise(relations, "q", cfg, llm, templates["necessity"]) == relations
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

    relations = [RelationRef(f"P{i}", labels[i % 5]) for i in range(10)]
    kept = denoise(relations, "q", cfg, _PerLabelLLM(reply), templates["necessity"])
    assert finished == labels[::-1]
    assert kept == [r for r in relations if r.label in ("topic0", "topic2", "topic4")]


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

    relations = [RelationRef("P1", "first"), RelationRef("P2", "second"), RelationRef("P3", "third")]
    with pytest.raises(ValueError, match="first"):
        denoise(relations, "q", cfg, _PerLabelLLM(reply), templates["necessity"])


def test_denoise_provider_error_keeps_every_candidate_with_that_label(cfg, templates):
    outages = ["director"]  # the first "director" prompt fails, a retry would answer 0.1

    def reply(label):
        if label in outages:
            outages.remove(label)
            raise ProviderError("transient outage")
        return "0.1"

    relations = [
        RelationRef("P1", "director"),
        RelationRef("P2", "spouse"),
        RelationRef("P9", "director"),
        RelationRef("P3", "height"),
    ]
    kept = denoise(relations, "q", cfg, _PerLabelLLM(reply), templates["necessity"])
    assert kept == [relations[0], relations[2]]


def test_denoise_sends_one_prompt_per_distinct_label(cfg, templates):
    labels = ["director", "spouse", "director", "genre", "spouse", "director"]
    relations = [RelationRef(f"P{i}", label) for i, label in enumerate(labels)]
    stub = StubLLM(default="0.9")
    assert denoise(relations, "q", cfg, stub, templates["necessity"]) == relations
    assert Counter(_RELATION_LINE.search(c).group(1) for c in stub.calls) == Counter(set(labels))


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
    relations = [RelationRef(f"P{i}" if not _LABELS[p] else f"P{p}", _LABELS[p]) for i, p in enumerate(picks)]

    def reply(label):
        index = _LABELS.index(label) if label in _LABELS else _LABELS.index("")
        if _LABELS[index] in failing:
            raise ProviderError("down")
        offset = offsets[index]
        return "unsure" if offset is None else f"{min(1.0, max(0.0, theta + offset)):.2f}"

    cfg = DenoiseConfig(theta_necessity=theta)
    expected = serial_denoise(relations, "q", cfg.k_invalid, theta, _PerLabelLLM(reply), templates["necessity"])
    assert denoise(relations, "q", cfg, _PerLabelLLM(reply), templates["necessity"]) == expected
