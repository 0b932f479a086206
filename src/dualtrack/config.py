"""Engine configuration.

One flat JSON document of key/value pairs; every key has a default and one
JSON type, and environment variables with the ``DUALTRACK_`` prefix override
file values (e.g. ``DUALTRACK_ALPHA=0.5``). List-valued keys are
comma-separated in the environment.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .denoise import DEFAULT_INVALID_KEYWORDS
from .linking import DEFAULT_SIMILARITY_FLOOR
from .llm import HttpLLM, StubLLM
from .scoring import HashEmbedding, HttpEmbedding, HttpRerank, OverlapRerank

ENV_PREFIX = "DUALTRACK_"

# For each provider key of the config, the names it accepts and the factory
# that builds that provider from the whole config.
PROVIDERS = {
    "llm_provider": {
        "stub": lambda cfg: StubLLM(),
        "http": lambda cfg: HttpLLM(cfg.llm_url, parallelism=cfg.parallelism),
    },
    "embedding_provider": {
        "hash": lambda cfg: HashEmbedding(cfg.dimension),
        "http": lambda cfg: HttpEmbedding(cfg.embedding_url, cfg.dimension, parallelism=cfg.parallelism),
    },
    "rerank_provider": {
        "overlap": lambda cfg: OverlapRerank(),
        "http": lambda cfg: HttpRerank(cfg.rerank_url, parallelism=cfg.parallelism),
    },
}


@dataclass
class EngineConfig:
    """The one parameter set of both tracks. ``Engine`` hands this object
    to its ``Pipeline``, and every stage reads its keys from there."""

    # knowledge graph: a triples file selects the in-memory store, otherwise
    # the live SPARQL client is used
    sparql_url: str = "https://query.wikidata.org/sparql"
    triples_file: str = ""
    cache_dir: str = ""

    # providers
    llm_provider: str = "stub"
    llm_url: str = ""
    embedding_provider: str = "hash"
    embedding_url: str = ""
    rerank_provider: str = "overlap"
    rerank_url: str = ""

    # scoring
    alpha: float = 0.7  # rerank weight in the fusion
    top_n: int = 50  # Stage-I survivors handed to the reranker
    dimension: int = 256

    # parallel track
    verify_top_k: int = 3  # triples shown to the judge per claim

    # chained track
    d_max: int = 3
    w_max: int = 5
    theta_search: float = 0.3
    top_k_paths: int = 3
    max_expansions: int = 500  # global budget per question

    # denoiser
    k_invalid: list[str] = field(default_factory=lambda: list(DEFAULT_INVALID_KEYWORDS))
    theta_necessity: float = 0.5

    # evaluation / routing
    tau: float = 0.5
    link_floor: float = DEFAULT_SIMILARITY_FLOOR
    parallelism: int = 1
    prompts_dir: str = ""  # empty -> packaged prompts

    def __post_init__(self):
        # Every float key is a weight, threshold or similarity in [0, 1] and
        # every int key is a count of at least 1; a float key outside [0, 1]
        # would need its own rule here.
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if not _has_type(value, spec.type):
                raise ValueError(f"{spec.name} must be of type {spec.type}, got {value!r}")
            if spec.type == "float" and not 0.0 <= value <= 1.0:
                raise ValueError(f"{spec.name} must be in [0, 1], got {value}")
            if spec.type == "int" and value < 1:
                raise ValueError(f"{spec.name} must be >= 1, got {value}")
            if spec.name in PROVIDERS and value not in PROVIDERS[spec.name]:
                raise ValueError(f"{spec.name} must be one of {sorted(PROVIDERS[spec.name])}, got {value!r}")
        # lowercased and de-duplicated once, in order; the rule layer matches these
        self.k_invalid = list(dict.fromkeys(k.lower() for k in self.k_invalid))
        if not self.k_invalid or not all(self.k_invalid):
            raise ValueError("k_invalid must be a set of non-empty keywords")


# The JSON types each field annotation accepts; a bool is never a number.
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


def _has_type(value, annotation: str) -> bool:
    if annotation == "list[str]":
        return isinstance(value, list) and all(isinstance(item, str) for item in value)
    return isinstance(value, _JSON_TYPES[annotation]) and not isinstance(value, bool)


def _coerce(annotation: str, raw: str):
    if annotation == "int":
        return int(raw)
    if annotation == "float":
        return float(raw)
    if annotation.startswith("list"):
        return [item.strip() for item in raw.split(",") if item.strip()]
    return raw


def load_config(path: str | Path | None = None, env: Mapping[str, str] | None = None) -> EngineConfig:
    """Build a config from an optional JSON file plus environment overrides."""
    env = os.environ if env is None else env
    known = {f.name: f for f in dataclasses.fields(EngineConfig)}

    data: dict = {}
    if path is not None:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError(f"config file {path} must hold a single JSON object")
        unknown = sorted(set(raw) - set(known))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        data.update(raw)

    for name, spec in known.items():
        env_key = ENV_PREFIX + name.upper()
        if env_key in env:
            raw = env[env_key]
            try:
                data[name] = _coerce(str(spec.type), raw)
            except ValueError:  # only numbers can fail to convert
                kind = "an int" if spec.type == "int" else "a float"
                raise ValueError(f"{env_key}={raw}: {name} must be {kind}") from None

    return EngineConfig(**data)
