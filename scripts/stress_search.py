#!/usr/bin/env python3
"""Stress the path search on random fixture graphs and time it against the
brute-force enumeration oracle. Each graph draws a necessity score for every
relation label, and the search runs with the necessity layer on, twice on
one pipeline: cold, then warm, reading what the first search left in the
pipeline's caches. Both must match the oracle.

Usage: python scripts/stress_search.py [graphs] [max_nodes] [seed]
"""

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracles import (
    build_store,
    enumerate_paths,
    necessity_script,
    random_graph_lines,
    random_necessity,
    random_question,
)

from dualtrack.chain import search_paths
from dualtrack.classifier import Question
from dualtrack.config import EngineConfig
from dualtrack.engine import PACKAGED_PROMPTS, Pipeline
from dualtrack.kg import EntityRef
from dualtrack.llm import StubLLM, load_templates
from dualtrack.scoring import HashEmbedding, OverlapRerank


def main() -> int:
    graphs = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    max_nodes = int(sys.argv[2]) if len(sys.argv) > 2 else 30
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
    rng = random.Random(seed)

    templates = load_templates(PACKAGED_PROMPTS)
    config = EngineConfig(
        alpha=0.5, dimension=48, d_max=3, w_max=3, theta_search=0.12, theta_necessity=0.5,
    )
    embedder = HashEmbedding(dimension=48)
    reranker = OverlapRerank()

    search_time = {"cold": 0.0, "warm": 0.0}
    mismatches = {"cold": 0, "warm": 0}
    oracle_time = 0.0
    paths = 0
    for index in range(graphs):
        lines, n = random_graph_lines(rng, max_nodes=max_nodes)
        store = build_store(lines)
        question = Question(id=f"g{index}", text=random_question(rng, n))
        necessity = random_necessity(rng)
        origin = EntityRef("Q1", "node1")

        pipe = Pipeline(
            store=store,
            llm=StubLLM(script=necessity_script(necessity), default="no"),
            templates=templates,
            embedder=embedder,
            reranker=reranker,
            config=config,
        )
        searched = {}
        for run in search_time:
            t0 = time.perf_counter()
            searched[run], _ = search_paths(origin, question, pipe)
            search_time[run] += time.perf_counter() - t0

        t0 = time.perf_counter()
        expected = enumerate_paths(
            store, origin, question.text,
            d_max=config.d_max, w_max=config.w_max, theta=config.theta_search,
            scoring=config, embedder=embedder, reranker=reranker,
            k_invalid=frozenset({"id", "source", "version", "metadata"}),
            necessity=necessity, theta_necessity=config.theta_necessity,
        )
        oracle_time += time.perf_counter() - t0

        paths += len(searched["cold"])
        for run, completed in searched.items():
            if {p.signature() for p in completed} != expected:
                mismatches[run] += 1
                print(f"MISMATCH on graph {index} ({run} pipeline, seed {seed})")

    print(f"graphs={graphs} max_nodes={max_nodes} seed={seed}")
    print(f"paths emitted: {paths}")
    print(f"search time:   {search_time['cold']:.3f}s cold, {search_time['warm']:.3f}s warm")
    print(f"oracle time:   {oracle_time:.3f}s")
    print(f"mismatches:    {sum(mismatches.values())}")
    print(f"  cold {mismatches['cold']}, warm {mismatches['warm']}")
    return 1 if any(mismatches.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
