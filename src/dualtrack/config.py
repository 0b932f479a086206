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
    llm_select_trigger: int = 8
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
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if not _has_type(value, spec.type):
                raise ValueError(f"{spec.name} must be of type {spec.type}, got {value!r}")
        for key, factories in PROVIDERS.items():
            value = getattr(self, key)
            if value not in factories:
                raise ValueError(f"{key} must be one of {sorted(factories)}, got {value!r}")
        if not 0.0 <= self.link_floor <= 1.0:
            raise ValueError(f"link_floor must be in [0, 1], got {self.link_floor}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")
        if self.verify_top_k < 1:
            raise ValueError(f"verify_top_k must be >= 1, got {self.verify_top_k}")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {self.top_n}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.d_max < 1:
            raise ValueError(f"d_max must be >= 1, got {self.d_max}")
        if self.w_max < 1:
            raise ValueError(f"w_max must be >= 1, got {self.w_max}")
        if not 0.0 <= self.theta_search <= 1.0:
            raise ValueError(f"theta_search must be in [0, 1], got {self.theta_search}")
        if self.llm_select_trigger < 1:
            raise ValueError(f"llm_select_trigger must be >= 1, got {self.llm_select_trigger}")
        if self.top_k_paths < 1:
            raise ValueError(f"top_k_paths must be >= 1, got {self.top_k_paths}")
        if self.max_expansions < 1:
            raise ValueError(f"max_expansions must be >= 1, got {self.max_expansions}")
        # lowercased and de-duplicated once, in order; the rule layer matches these
        self.k_invalid = list(dict.fromkeys(k.lower() for k in self.k_invalid))
        if not self.k_invalid or not all(self.k_invalid):
            raise ValueError("k_invalid must be a set of non-empty keywords")
        if not 0.0 <= self.theta_necessity <= 1.0:
            raise ValueError(f"theta_necessity must be in [0, 1], got {self.theta_necessity}")


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
