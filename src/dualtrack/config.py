"""Engine configuration.

One flat JSON document of key/value pairs; every key has a default, and
environment variables with the ``DUALTRACK_`` prefix override file values
(e.g. ``DUALTRACK_ALPHA=0.5``). List-valued keys are comma-separated in the
environment.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .chain import SearchConfig
from .classifier import QuestionType
from .denoise import DEFAULT_INVALID_KEYWORDS, DenoiseConfig
from .llm import EchoLLM, HttpLLM, StubLLM
from .scoring import ConstantRerank, HashEmbedding, HttpEmbedding, HttpRerank, OverlapRerank, ScoringConfig

ENV_PREFIX = "DUALTRACK_"

# For each provider key of the config, the names it accepts and the factory
# that builds that provider from the whole config.
PROVIDERS = {
    "llm_provider": {
        "stub": lambda cfg: StubLLM(),
        "http": lambda cfg: HttpLLM(cfg.llm_url, parallelism=cfg.parallelism),
        "echo": lambda cfg: EchoLLM(),
    },
    "embedding_provider": {
        "hash": lambda cfg: HashEmbedding(cfg.dimension),
        "http": lambda cfg: HttpEmbedding(cfg.embedding_url, cfg.dimension, parallelism=cfg.parallelism),
    },
    "rerank_provider": {
        "overlap": lambda cfg: OverlapRerank(),
        "constant": lambda cfg: ConstantRerank(),
        "http": lambda cfg: HttpRerank(cfg.rerank_url, parallelism=cfg.parallelism),
    },
}


@dataclass
class EngineConfig:
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
    alpha: float = 0.7
    top_n: int = 50
    dimension: int = 256

    # parallel track
    verify_top_k: int = 3

    # chained track
    d_max: int = 3
    w_max: int = 5
    theta_search: float = 0.3
    llm_select_trigger: int = 8
    top_k_paths: int = 3
    max_expansions: int = 500

    # denoiser
    k_invalid: list[str] = field(default_factory=lambda: list(DEFAULT_INVALID_KEYWORDS))
    theta_necessity: float = 0.5

    # evaluation / routing
    tau: float = 0.5
    default_track: str = "chained"
    link_floor: float = 0.8
    parallelism: int = 1
    prompts_dir: str = ""  # empty -> packaged prompts

    def __post_init__(self):
        for key, factories in PROVIDERS.items():
            value = getattr(self, key)
            if value not in factories:
                raise ValueError(f"{key} must be one of {sorted(factories)}, got {value!r}")
        QuestionType(self.default_track)  # raises ValueError on an unknown track
        if not 0.0 <= self.link_floor <= 1.0:
            raise ValueError(f"link_floor must be in [0, 1], got {self.link_floor}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")
        if self.verify_top_k < 1:
            raise ValueError(f"verify_top_k must be >= 1, got {self.verify_top_k}")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")
        # sub-config constructors validate their own ranges
        self.scoring_config()
        self.search_config()
        self.denoise_config()

    # -- sub-config builders -------------------------------------------

    def scoring_config(self) -> ScoringConfig:
        return ScoringConfig(alpha=self.alpha, top_n=self.top_n, dimension=self.dimension)

    def search_config(self) -> SearchConfig:
        return SearchConfig(
            d_max=self.d_max,
            w_max=self.w_max,
            theta_search=self.theta_search,
            llm_select_trigger=self.llm_select_trigger,
            top_k_paths=self.top_k_paths,
            max_expansions=self.max_expansions,
        )

    def denoise_config(self) -> DenoiseConfig:
        return DenoiseConfig(
            k_invalid=frozenset(self.k_invalid), theta_necessity=self.theta_necessity
        )

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _coerce(name: str, annotation: str, raw: str):
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
            data[name] = _coerce(name, str(spec.type), env[env_key])

    return EngineConfig(**data)


def parse_config(text: str) -> EngineConfig:
    """Parse a serialized config document; inverse of ``to_json``."""
    data = json.loads(text)
    return EngineConfig(**data)
