"""Top-level orchestration: classify each question, dispatch it to the
matching track, and surface branch failures as flagged answers instead of
crashes."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

from .chain import SearchConfig, run_chain_branch
from .classifier import Answer, Classification, Question, QuestionType, classify
from .config import EngineConfig
from .denoise import DenoiseConfig, denoise, rule_filter
from .evaluation import AccScorer, evaluate
from .kg import (
    InMemoryTripleStore,
    KGStore,
    MalformedResponse,
    SparqlClient,
    TransportError,
    Triple,
)
from .linking import DEFAULT_SIMILARITY_FLOOR
from .llm import (
    EchoLLM,
    HttpLLM,
    LLMProvider,
    PromptTemplate,
    ProviderError,
    StubLLM,
    load_templates,
)
from .scoring import (
    ConstantRerank,
    EmbeddingProvider,
    HashEmbedding,
    HttpEmbedding,
    HttpRerank,
    OverlapRerank,
    RerankProvider,
    ScoringConfig,
)
from .verify import run_parallel_branch

log = logging.getLogger(__name__)

PACKAGED_PROMPTS = Path(__file__).parent / "prompts"


@dataclass(frozen=True)
class Pipeline:
    """What both tracks share: the four providers, the prompt templates and
    the stage configs. ``Engine`` builds one from its config; build one by
    hand to run a single stage."""

    store: KGStore
    llm: LLMProvider
    templates: dict[str, PromptTemplate]
    embedder: EmbeddingProvider
    reranker: RerankProvider
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    search: SearchConfig = field(default_factory=SearchConfig)
    denoising: DenoiseConfig = field(default_factory=DenoiseConfig)
    link_floor: float = DEFAULT_SIMILARITY_FLOOR
    verify_top_k: int = 3  # triples shown to the judge per claim


def _build_store(cfg: EngineConfig) -> KGStore:
    if cfg.triples_file:
        return InMemoryTripleStore.from_file(cfg.triples_file)
    return SparqlClient(cfg.sparql_url, cache_dir=cfg.cache_dir or None)


def _build_llm(cfg: EngineConfig, stub_script: str | Path | None) -> LLMProvider:
    if cfg.llm_provider == "http":
        return HttpLLM(cfg.llm_url, parallelism=cfg.parallelism)
    if cfg.llm_provider == "echo":
        return EchoLLM()
    if stub_script:
        return StubLLM.from_script_file(stub_script)
    return StubLLM()


def _build_embedder(cfg: EngineConfig):
    if cfg.embedding_provider == "http":
        return HttpEmbedding(cfg.embedding_url, dimension=cfg.dimension)
    return HashEmbedding(dimension=cfg.dimension)


def _build_reranker(cfg: EngineConfig):
    if cfg.rerank_provider == "http":
        return HttpRerank(cfg.rerank_url)
    if cfg.rerank_provider == "constant":
        return ConstantRerank()
    return OverlapRerank()


class Engine:
    """One configured question-answering engine.

    Providers may be injected (tests do), otherwise they are built from the
    config. In stub mode with a triples file nothing here touches the
    network.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        store: KGStore | None = None,
        llm: LLMProvider | None = None,
        embedder=None,
        reranker=None,
        templates=None,
        stub_script: str | Path | None = None,
    ):
        self.config = cfg = config or EngineConfig()
        self.pipeline = Pipeline(
            templates=templates or load_templates(cfg.prompts_dir or PACKAGED_PROMPTS),
            store=store or _build_store(cfg),
            llm=llm or _build_llm(cfg, stub_script),
            embedder=embedder or _build_embedder(cfg),
            reranker=reranker or _build_reranker(cfg),
            scoring=cfg.scoring_config(),
            search=cfg.search_config(),
            denoising=cfg.denoise_config(),
            link_floor=cfg.link_floor,
            verify_top_k=cfg.verify_top_k,
        )

    # -- pieces ----------------------------------------------------------

    def classify(self, question: Question) -> Classification:
        return classify(
            question,
            self.pipeline.llm,
            self.pipeline.templates["classification"],
            default_track=QuestionType(self.config.default_track),
        )

    def chain(self, question: Question, trace: list | None = None) -> Answer:
        return run_chain_branch(question, self.pipeline, trace)

    def verify(self, question: Question) -> Answer:
        return run_parallel_branch(question, self.pipeline)

    def denoise(self, triples: list[Triple], question: Question) -> list[Triple]:
        """Both denoising layers; ``denoise`` sends one necessity prompt per
        distinct relation label, so triples that share a label share it."""
        pipe = self.pipeline
        return denoise(triples, question.text, pipe.denoising, pipe.llm, pipe.templates["necessity"])

    def explain_denoise(self, triples: list[Triple], question: Question) -> list[tuple[Triple, bool, str]]:
        """Per-triple (triple, kept, reason) breakdown for the CLI."""
        kept = {t.key() for t in self.denoise(triples, question)}
        rows = []
        for t in triples:
            if t.key() in kept:
                rows.append((t, True, "kept"))
            elif rule_filter(t.relation, self.pipeline.denoising):
                rows.append((t, False, "rule: label matches k_invalid"))
            else:
                rows.append((t, False, f"necessity below {self.pipeline.denoising.theta_necessity}"))
        return rows

    # -- the route ---------------------------------------------------------

    def answer(self, question: Question) -> Answer:
        """classify -> dispatch -> Answer.

        Logic-level branch failures become flagged answers so one bad
        question never aborts a run. Transport and provider failures are
        infrastructure problems and propagate (the eval loop records them
        per question; the CLI maps them to exit code 2).
        """
        decision = self.classify(question)
        try:
            if decision.track is QuestionType.CHAINED:
                answer = self.chain(question)
            else:
                answer = self.verify(question)
        except (TransportError, MalformedResponse, ProviderError):
            raise
        except Exception:
            log.exception("branch failed for %s", question.id)
            answer = Answer(text="", flags={"error"})
        answer.track = decision.track
        if decision.fallback:
            answer.flags.add("classifier_fallback")
        return answer

    def evaluate(self, questions, scorer: AccScorer | None = None) -> dict:
        return evaluate(
            questions,
            self.answer,
            scorer=scorer or AccScorer(tau=self.config.tau),
            parallelism=self.config.parallelism,
        )
