"""Configuration: defaults, validation, and file + environment loading."""

import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualtrack.cli import main
from dualtrack.config import PROVIDERS, EngineConfig, load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_defaults_match_documented_values():
    cfg = EngineConfig()
    assert cfg.alpha == 0.7
    assert cfg.top_n == 50
    assert cfg.verify_top_k == 3
    assert cfg.d_max == 3
    assert cfg.w_max == 5
    assert cfg.theta_search == 0.3
    assert cfg.top_k_paths == 3
    assert cfg.max_expansions == 500
    assert cfg.theta_necessity == 0.5
    assert sorted(cfg.k_invalid) == ["id", "metadata", "source", "version"]
    assert cfg.tau == 0.5
    assert cfg.link_floor == 0.8
    assert cfg.parallelism == 1
    assert cfg.llm_provider == "stub"


def test_k_invalid_is_normalized_once():
    cfg = EngineConfig(k_invalid=["ID", "id", "Source"])
    assert cfg.k_invalid == ["id", "source"]
    assert dataclasses.replace(cfg) == cfg


@given(
    alpha=st.floats(0.0, 1.0),
    top_n=st.integers(1, 200),
    d_max=st.integers(1, 5),
    w_max=st.integers(1, 20),
    theta_search=st.floats(0.0, 1.0),
    theta_necessity=st.floats(0.0, 1.0),
    tau=st.floats(0.0, 1.0),
    parallelism=st.integers(1, 8),
)
def test_roundtrip_random_configs(alpha, top_n, d_max, w_max, theta_search, theta_necessity, tau, parallelism):
    cfg = EngineConfig(
        alpha=alpha,
        top_n=top_n,
        d_max=d_max,
        w_max=w_max,
        theta_search=theta_search,
        theta_necessity=theta_necessity,
        tau=tau,
        parallelism=parallelism,
    )
    assert dataclasses.replace(cfg) == cfg


def test_load_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": 0.25, "triples_file": "g.triples"}), encoding="utf-8")
    cfg = load_config(path, env={})
    assert cfg.alpha == 0.25
    assert cfg.triples_file == "g.triples"
    assert cfg.top_n == 50  # untouched defaults remain


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"no_such_knob": 1}', encoding="utf-8")
    with pytest.raises(ValueError, match="no_such_knob"):
        load_config(path, env={})


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config(path, env={})


def test_env_overrides_file_values(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"alpha": 0.25}', encoding="utf-8")
    env = {
        "DUALTRACK_ALPHA": "0.9",
        "DUALTRACK_TOP_N": "10",
        "DUALTRACK_K_INVALID": "id, rank ,audit",
        "DUALTRACK_TRIPLES_FILE": "g.triples",
    }
    cfg = load_config(path, env=env)
    assert cfg.alpha == 0.9
    assert cfg.top_n == 10
    assert cfg.k_invalid == ["id", "rank", "audit"]
    assert cfg.triples_file == "g.triples"


def test_env_only_config():
    cfg = load_config(None, env={"DUALTRACK_THETA_SEARCH": "0.15"})
    assert cfg.theta_search == 0.15


@pytest.mark.parametrize(
    "variable, raw, message",
    [
        ("DUALTRACK_ALPHA", "abc", "DUALTRACK_ALPHA=abc: alpha must be a float"),
        ("DUALTRACK_TOP_N", "2.5", "DUALTRACK_TOP_N=2.5: top_n must be an int"),
    ],
)
def test_env_override_that_does_not_convert_names_itself(variable, raw, message):
    with pytest.raises(ValueError) as error:
        load_config(None, env={variable: raw})
    assert str(error.value) == message


def test_env_variable_that_names_no_key_is_rejected():
    env = {"DUALTRACK_LLM_SELECT_TRIGGER": "3", "DUALTRACK_W_MAXX": "9", "DUALTRACK_W_MAX": "4", "OTHER": "1"}
    with pytest.raises(ValueError) as error:
        load_config(None, env=env)
    names = "DUALTRACK_LLM_SELECT_TRIGGER, DUALTRACK_W_MAXX"
    assert str(error.value) == f"environment variables name no config key: {names}"


def test_cli_exits_1_on_an_env_variable_that_names_no_key(monkeypatch, capsys):
    monkeypatch.setenv("DUALTRACK_W_MAXX", "9")
    assert main(["classify", "--question", "x"]) == 1
    assert "DUALTRACK_W_MAXX" in capsys.readouterr().err


# Every numeric key and its bound, written out by hand rather than read from
# the dataclass, so the tests below do not restate the rule they check.
FLOAT_KEYS = ("alpha", "theta_search", "theta_necessity", "tau", "link_floor")  # each in [0, 1]
INT_KEYS = (  # each at least 1
    "top_n",
    "dimension",
    "verify_top_k",
    "d_max",
    "w_max",
    "top_k_paths",
    "max_expansions",
    "parallelism",
)


def test_validation_errors():
    for kwargs in (
        *({key: value} for key in FLOAT_KEYS for value in (-0.01, 1.01)),
        *({key: 0} for key in INT_KEYS),
        {"alpha": 1.5},
        {"llm_provider": "banana"},
        {"embedding_provider": "banana"},
        {"rerank_provider": "banana"},
        {"tau": -0.1},
        {"link_floor": 2.0},
        {"theta_necessity": 2.0},
        {"k_invalid": []},
        {"k_invalid": ["id", ""]},
    ):
        with pytest.raises(ValueError, match=next(iter(kwargs))):  # each message names its key
            EngineConfig(**kwargs)


@pytest.mark.parametrize(
    "key, value",
    [
        ("k_invalid", "id"),
        ("k_invalid", ["id", 3]),
        ("alpha", "0.5"),
        ("alpha", True),
        ("top_n", 2.5),
        ("parallelism", 1.5),
        ("d_max", True),
        ("triples_file", 7),
        ("llm_provider", None),
    ],
)
def test_wrong_json_type_is_a_config_error(tmp_path, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}), encoding="utf-8")
    with pytest.raises(ValueError, match=key):
        load_config(path, env={})


@pytest.mark.parametrize(
    "key, value",
    [*((key, value) for key in FLOAT_KEYS for value in (0.0, 1.0)), *((key, 1) for key in INT_KEYS)],
)
def test_each_numeric_key_accepts_its_edges(key, value):
    assert getattr(EngineConfig(**{key: value}), key) == value


def test_float_keys_take_json_integers():
    assert EngineConfig(alpha=1, theta_search=0).alpha == 1


def test_readme_provider_choices_match_the_registry():
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        match = re.match(r"\| `(\w+_provider)`[^|]*\|[^|]*\|(.*)\|$", line)
        if match:
            rows[match.group(1)] = set(re.findall(r"`(\w+)`", match.group(2)))
    assert rows == {key: set(factories) for key, factories in PROVIDERS.items()}


def test_readme_config_table_matches_the_fields():
    section = README.read_text(encoding="utf-8").split("## Configuration")[1].split("\n## ")[0]
    keys = set()
    for line in section.splitlines():
        match = re.match(r"\| (`\w+`(?: / `\w+`)*) \|", line)
        if match:
            keys.update(re.findall(r"`(\w+)`", match.group(1)))
    assert keys == {spec.name for spec in dataclasses.fields(EngineConfig)}
