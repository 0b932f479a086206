"""Dual-track knowledge-graph question answering.

Each question is routed to one of two tracks: parallel fact-verification
(decompose, ground, verify each claim independently) or chained multi-hop
reasoning (scored depth-first path search from a central entity). Both
tracks share the KG store, the two-stage hybrid scorer and the task-aware
denoiser, and every provider (KG, LLM, embedding, rerank) is pluggable.
"""

__version__ = "0.1.0"

from .chain import ReasoningPath
from .classifier import Answer, Question, QuestionType
from .config import EngineConfig, load_config
from .engine import Engine
from .kg import EntityRef, InMemoryTripleStore, LiteralValue, RelationRef, SparqlClient, Triple
from .verify import AtomicFact, VerificationResult, VerificationStatus

__all__ = [
    "Answer",
    "AtomicFact",
    "Engine",
    "EngineConfig",
    "EntityRef",
    "InMemoryTripleStore",
    "LiteralValue",
    "Question",
    "QuestionType",
    "ReasoningPath",
    "RelationRef",
    "SparqlClient",
    "Triple",
    "VerificationResult",
    "VerificationStatus",
    "load_config",
    "__version__",
]
