"""Top-level orchestration: classify each question, dispatch it to the
matching track, and surface branch failures as flagged answers instead of
crashes."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

from .chain import run_chain_branch
from .classifier import Answer, Classification, Question, QuestionType, classify
from .config import PROVIDERS, EngineConfig
from .denoise import denoise, rule_filter
from .evaluation import AccScorer, evaluate
from .kg import CachedStore, InMemoryTripleStore, KGStore, SparqlClient, Triple
from .llm import LLMProvider, MemoLLM, PromptTemplate, ProviderError, StubLLM, load_templates
from .scoring import CachedEmbedder, EmbeddingProvider, RerankProvider
from .verify import run_parallel_branch

log = logging.getLogger(__name__)

PACKAGED_PROMPTS = Path(__file__).parent / "prompts"


@dataclass(frozen=True)
class Pipeline:
    """What both tracks share: the four providers, the prompt templates and
    the config. ``Engine`` builds one around its own config; build one by
    hand to run a single stage, without the engine's KG cache, LLM memo
    and embedding cache."""

    store: KGStore
    llm: LLMProvider
    templates: dict[str, PromptTemplate]
    embedder: EmbeddingProvider
    reranker: RerankProvider
    config: EngineConfig = field(default_factory=EngineConfig)


def _build_store(cfg: EngineConfig) -> KGStore:
    if cfg.triples_file:
        return InMemoryTripleStore.from_file(cfg.triples_file)
    return SparqlClient(cfg.sparql_url, cache_dir=cfg.cache_dir or None)


def _build(cfg: EngineConfig, key: str):
    """The provider that the config's ``key`` names, built by ``PROVIDERS``."""
    return PROVIDERS[key][getattr(cfg, key)](cfg)


class Engine:
    """One configured question-answering engine.

    Providers may be injected (tests do), otherwise ``config.PROVIDERS``
    builds the ones the config names. A ``stub_script`` file scripts the
    stub provider: it needs ``llm_provider`` "stub" and no injected
    ``llm``. In stub mode with a triples file nothing here touches the
    network. The KG store, the LLM and the embedder, built or injected, are
    wrapped once, in a ``CachedStore``, a ``MemoLLM`` and a
    ``CachedEmbedder``, which every question, claim, leaf and evaluation
    thread of the engine shares.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        store: KGStore | None = None,
        llm: LLMProvider | None = None,
        embedder=None,
        reranker=None,
        stub_script: str | Path | None = None,
    ):
        self.config = cfg = config or EngineConfig()
        if stub_script and cfg.llm_provider != "stub":
            raise ValueError(f"a stub script needs llm_provider 'stub', got {cfg.llm_provider!r}")
        if stub_script and llm is not None:
            raise ValueError("a stub script scripts the engine's own stub; it cannot go with an injected llm")
        if llm is None:
            llm = StubLLM.from_script_file(stub_script) if stub_script else _build(cfg, "llm_provider")
        packaged = load_templates(PACKAGED_PROMPTS)
        templates = load_templates(cfg.prompts_dir) if cfg.prompts_dir else packaged
        missing = sorted(set(packaged) - set(templates))
        if missing:
            raise ValueError(f"prompts_dir {cfg.prompts_dir} lacks templates: {', '.join(missing)}")
        for name, template in packaged.items():
            # a custom template may leave a placeholder out, but not add one
            # that its stage never binds
            unknown = sorted(templates[name].required_placeholders - template.required_placeholders)
            if unknown:
                raise ValueError(
                    f"prompts_dir {cfg.prompts_dir}: template {name} uses unknown placeholders: {', '.join(unknown)}"
                )
        self.pipeline = Pipeline(
            templates=templates,
            store=CachedStore(store or _build_store(cfg)),
            llm=MemoLLM(llm),
            embedder=CachedEmbedder(embedder or _build(cfg, "embedding_provider")),
            reranker=reranker or _build(cfg, "rerank_provider"),
            config=cfg,
        )

    # -- pieces ----------------------------------------------------------

    def classify(self, question: Question) -> Classification:
        return classify(question, self.pipeline.llm, self.pipeline.templates["classification"])

    def chain(self, question: Question, trace: list | None = None) -> Answer:
        return run_chain_branch(question, self.pipeline, trace)

    def verify(self, question: Question) -> Answer:
        return run_parallel_branch(question, self.pipeline)

    def explain_denoise(self, triples: list[Triple], question: Question) -> list[tuple[Triple, bool, str]]:
        """Per-triple (triple, kept, reason) breakdown of both denoising
        layers for the CLI; triples that share a relation label share one
        necessity prompt."""
        pipe = self.pipeline
        kept = {t.key() for t in denoise(triples, question.text, pipe.config, pipe.llm, pipe.templates["necessity"])}
        rows = []
        for t in triples:
            if t.key() in kept:
                rows.append((t, True, "kept"))
            elif rule_filter(t.relation, self.config):
                rows.append((t, False, "rule: label matches k_invalid"))
            else:
                rows.append((t, False, f"necessity below {self.config.theta_necessity}"))
        return rows

    # -- the route ---------------------------------------------------------

    def answer(self, question: Question) -> Answer:
        """classify -> dispatch -> Answer.

        Logic-level branch failures become flagged answers so one bad
        question never aborts a run. A ``ProviderError`` (any failure of the
        KG endpoint, LLM, embedder or reranker) propagates: the eval loop
        records it per question and the CLI maps it to exit code 2.
        """
        decision = self.classify(question)
        try:
            if decision.track is QuestionType.CHAINED:
                answer = self.chain(question)
            else:
                answer = self.verify(question)
        except ProviderError:
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
