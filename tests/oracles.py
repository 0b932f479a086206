"""Independent reference implementations the search tests check against.

``enumerate_paths`` re-derives the set of maximal reasoning paths by plain
recursive enumeration over the store, applying the same per-step scoring
inputs but none of the engine's search machinery. ``serial_denoise`` is the
denoiser as one loop over the candidates, one necessity prompt each.
"""

import random

from dualtrack.kg import EntityRef, InMemoryTripleStore, Triple, parse_triples
from dualtrack.llm import CompletionRequest, ProviderError, Unparseable, parse_score, render
from dualtrack.scoring import score_candidates

# none of these contain any default k_invalid keyword as a substring
RELATION_WORDS = [
    "knows", "leads", "owns", "makes", "joins", "helps", "links", "marks",
    "meets", "names", "notes", "opens", "parts", "plays", "pulls", "reads",
]


def random_graph_lines(rng: random.Random, max_nodes: int = 30):
    """A random fixture graph: entity nodes, a few literal objects, no
    duplicate edges. Returns (lines, node_count)."""
    n = rng.randint(3, max_nodes)
    edge_count = rng.randint(n // 2, 2 * n)
    lines, seen = [], set()
    for _ in range(edge_count):
        s = rng.randrange(n)
        r = rng.randrange(len(RELATION_WORDS))
        if rng.random() < 0.15:
            obj_field, obj_label = f"v{rng.randrange(40)}", ""
        else:
            o = rng.randrange(n)
            obj_field, obj_label = f"Q{o + 1}", f"node{o + 1}"
        key = (s, r, obj_field)
        if key in seen:
            continue
        seen.add(key)
        lines.append(f"Q{s + 1}|node{s + 1}|P{r}|{RELATION_WORDS[r]}|{obj_field}|{obj_label}")
    return lines, n


def random_question(rng: random.Random, node_count: int) -> str:
    w1, w2 = rng.sample(RELATION_WORDS, 2)
    node = rng.randrange(node_count) + 1
    return f"which entity {w1} or {w2} node{node}?"


def enumerate_paths(
    store: InMemoryTripleStore,
    origin: EntityRef,
    question_text: str,
    *,
    d_max: int,
    w_max: int,
    theta: float,
    scoring,
    embedder,
    reranker,
    k_invalid=frozenset(),
):
    """Brute-force enumeration of all maximal paths under the constraints.

    Returns the set of path signatures: tuples of (triple key, direction).
    """
    results = set()

    def recurse(tip, visited, hops):
        if len(hops) == d_max or not isinstance(tip, EntityRef):
            if hops:
                results.add(tuple(hops))
            return
        options = []
        for t in store.head_relations(tip):
            options.append((t, "head", t.object))
        for t in store.tail_relations(tip):
            options.append((t, "tail", t.subject))
        filtered, keys = [], set()
        for t, direction, far in options:
            if isinstance(far, EntityRef) and far.id in visited:
                continue
            if t.key() in keys:
                continue
            keys.add(t.key())
            if t.relation.label and any(k in t.relation.label.lower() for k in k_invalid):
                continue
            filtered.append((t, direction, far))
        scored = score_candidates(
            question_text, [t for t, _, _ in filtered], scoring, embedder, reranker
        )
        by_key = {t.key(): (direction, far) for t, direction, far in filtered}
        keep = [c for c in scored if c.combined >= theta]
        keep.sort(key=lambda c: (-c.combined, c.payload.key()))
        keep = keep[:w_max]
        if not keep:
            if hops:
                results.add(tuple(hops))
            return
        for c in keep:
            direction, far = by_key[c.payload.key()]
            next_visited = visited | ({far.id} if isinstance(far, EntityRef) else set())
            recurse(far, next_visited, hops + ((c.payload.key(), direction),))

    recurse(origin, {origin.id}, ())
    return results


def build_store(lines) -> InMemoryTripleStore:
    return InMemoryTripleStore(parse_triples(lines))


def serial_denoise(candidates, question, k_invalid, theta, llm, template):
    """Keyword rule, then one necessity prompt per surviving candidate, in
    input order. A provider error or an unparseable reply keeps the
    candidate; with ``theta`` 0 the provider is never asked."""
    survivors = []
    for candidate in candidates:
        relation = candidate.relation if isinstance(candidate, Triple) else candidate
        if relation.label and any(k in relation.label.lower() for k in k_invalid):
            continue
        if theta == 0.0:
            survivors.append(candidate)
            continue
        prompt = render(template, {"relation": relation.label or relation.id, "question": question})
        try:
            reply = llm.complete(CompletionRequest(prompt=prompt)).text
        except ProviderError:
            survivors.append(candidate)
            continue
        try:
            score = parse_score(reply)
        except Unparseable:
            score = 1.0
        if score >= theta:
            survivors.append(candidate)
    return survivors
