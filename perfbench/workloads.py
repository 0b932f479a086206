"""Seeded workload generator: knowledge graphs, questions and planted gold
answers for the three benchmark workloads.

Everything here is plain Python and imports nothing from ``dualtrack``, so
the generator can run before the system under test is imported. The same
(workload, seed) always yields byte-identical files.

A world is written as three files:

- ``triples.txt`` in the store's pipe-separated fixture format, loaded by
  ``InMemoryTripleStore.from_file`` during set-up;
- ``config.json``, the engine config, which names the triples file;
- ``world.json`` with the provider latencies, the questions with their gold
  answers, and the planted facts the scripted LLM answers from.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Fourteen content relations plus two administrative ones that the
# denoiser's keyword rule drops ("id", "source"). None of the content labels
# contains a default rule keyword as a substring.
CONTENT_RELATIONS = [
    "employer", "mentor", "spouse", "birthplace", "founder", "author",
    "sibling", "owner", "producer", "editor", "composer", "partner",
    "teacher", "rival",
]
ADMIN_RELATIONS = ["external id", "data source"]

SYLLABLES = [
    "ka", "lo", "mi", "ren", "sa", "tor", "vel", "nu", "bar", "zin", "dra",
    "pel", "qua", "mor", "fen", "gal", "hes", "jun", "kel", "lys", "nor",
    "pra", "sul", "tam", "ulv", "var", "wen", "yor", "bel", "cor",
]

# Classifier replies that match neither "yes" nor "no".
UNPARSEABLE_ROUTES = ["It depends.", "Unclear.", "Cannot tell from the question."]


def _names(rng: random.Random, count: int) -> list[str]:
    """Distinct two-word entity labels in which no word occurs twice, so two
    labels never share a token the scorers could match on."""
    firsts = rng.sample([a + b for a in SYLLABLES for b in SYLLABLES], count)
    lasts = rng.sample([a + b + c for a in SYLLABLES for b in SYLLABLES for c in SYLLABLES], count)
    return [f"{first.capitalize()} {last.capitalize()}" for first, last in zip(firsts, lasts)]


def _necessity_scores(rng: random.Random) -> dict[str, float]:
    """Per-label necessity for labels the question does not name: five of
    the fourteen content labels fall below the default threshold of 0.5."""
    labels = rng.sample(CONTENT_RELATIONS, len(CONTENT_RELATIONS))
    scores = {label: rng.choice([0.2, 0.3]) for label in labels[:5]}
    scores.update({label: rng.choice([0.6, 0.7, 0.8]) for label in labels[5:]})
    scores.update({label: 0.1 for label in ADMIN_RELATIONS})
    return scores


class Graph:
    """Triples under construction, indexed for planting questions."""

    def __init__(self, labels: list[str]):
        self.labels = labels
        self.ids = [f"Q{i + 1}" for i in range(len(labels))]
        self.lines: list[str] = []
        self.edges: set[tuple[int, str, int]] = set()
        self.out: dict[int, dict[str, list[int]]] = {}
        self.in_labels: list[set[str]] = [set() for _ in labels]
        self.adjacent: list[set[int]] = [set() for _ in labels]

    def add(self, s: int, relation: str, o: int) -> bool:
        if s == o or (s, relation, o) in self.edges:
            return False
        self.edges.add((s, relation, o))
        self.out.setdefault(s, {}).setdefault(relation, []).append(o)
        self.in_labels[o].add(relation)
        self.adjacent[s].add(o)
        self.adjacent[o].add(s)
        rid = _relation_id(relation)
        self.lines.append(f"{self.ids[s]}|{self.labels[s]}|{rid}|{relation}|{self.ids[o]}|{self.labels[o]}")
        return True

    def add_literal(self, s: int, relation: str, value: str) -> None:
        self.lines.append(f"{self.ids[s]}|{self.labels[s]}|{_relation_id(relation)}|{relation}|{value}|")

    def add_admin_literals(self, rng: random.Random) -> None:
        """Facts the denoiser's keyword rule drops."""
        for s in range(len(self.labels)):
            if rng.random() < 0.5:
                self.add_literal(s, "external id", f"X{rng.randrange(10**6)}")
            if rng.random() < 0.3:
                self.add_literal(s, "data source", rng.choice(["registry", "census", "archive"]))

    def add_regular(self, rng: random.Random, degree: int, relations: list[str]) -> None:
        """Give every entity ``degree`` out-edges with distinct labels and
        exactly ``degree`` in-edges: round k links each entity to its
        successor in a fresh random cyclic order."""
        n = len(self.labels)
        labels = [rng.sample(relations, degree) for _ in range(n)]
        for k in range(degree):
            order = rng.sample(range(n), n)
            for i, s in enumerate(order):
                self.add(s, labels[s][k], order[(i + 1) % n])

    def unique_out(self, s: int) -> list[tuple[str, int]]:
        """(relation, object) pairs where the relation is unique at ``s``."""
        return sorted(
            (relation, objs[0]) for relation, objs in self.out.get(s, {}).items() if len(objs) == 1
        )


def _relation_id(label: str) -> str:
    return "P" + str((CONTENT_RELATIONS + ADMIN_RELATIONS).index(label) + 1)


def _capitalize_first(text: str) -> str:
    return text[0].upper() + text[1:]


def _plant_chain(rng: random.Random, graph: Graph, origin: int, hops: int):
    """Walk ``hops`` edges from ``origin`` whose label is unique at the
    current entity and absent from its incoming edges, so no other edge
    ties with the planted one; None if stuck."""
    path = [origin]
    relations = []
    for _ in range(hops):
        here = path[-1]
        options = [
            (r, o) for r, o in graph.unique_out(here) if o not in path and r not in graph.in_labels[here]
        ]
        if not options:
            return None
        relation, nxt = rng.choice(options)
        relations.append(relation)
        path.append(nxt)
    return path, relations


def _chain_question(graph: Graph, path: list[int], relations: list[str]) -> dict:
    """An answerable chained question that names every entity but the
    answer ("r2 of B, r1 of O?"), so each planted hop clears the default
    search threshold."""
    parts = [f"{relations[i]} of {graph.labels[path[i]]}" for i in reversed(range(len(relations)))]
    last = len(relations) - 1
    return {
        "question": _capitalize_first(", ".join(parts) + "?"),
        "track": "chained",
        "origin": graph.labels[path[0]],
        "answer_triple": f"({graph.labels[path[last]]}, {relations[last]}, {graph.labels[path[-1]]})",
        "gold": [graph.labels[path[-1]]],
    }


# chain_hub question kinds, cycled: 1 = one hop, answered at the first
# sufficiency check; 2 = two hops through a named bridge; 4 = two hops whose
# last relation the bridge lacks (unanswerable, stops at the threshold);
# 5 = one hop a lure entity lacks (unanswerable; every edge of the lure
# clears the threshold, so the search expands the width cap of five hubs).
# The mix puts the median inside kinds 2 and 4 and the 90th percentile
# inside kind 5, so neither percentile sits on the border between two kinds.
CHAIN_KINDS = "1212142525"


def _chain_hub(rng: random.Random, n_questions: int) -> dict:
    """400 entities and about 5.6k triples: 40 hubs, each with 30 edges to
    other hubs and 50-300 edges in, plus 90 gadgets of four entities, a
    chain O -r1-> B -r2-> C and a lure L. Every gadget member has one edge
    per remaining relation label, pointing at a hub; none carries another
    edge with r1, r2 or the label r3 they all lack. So every question's
    survivors are fixed by construction: the per-question call counts vary
    little between seeds while names, labels and hubs do."""
    n_hubs, n_gadgets = 40, 90
    graph = Graph(_names(rng, n_hubs + 4 * n_gadgets))
    hubs = list(range(n_hubs))
    weights = [1.0 / (rank + 1) ** 0.5 for rank in range(n_hubs)]
    for h in hubs:
        made = 0
        while made < 30:
            made += graph.add(h, rng.choice(CONTENT_RELATIONS), rng.choice(hubs))
    gadgets = []
    for g in range(n_gadgets):
        o, b, c, lure = (n_hubs + 4 * g + k for k in range(4))
        r1, r2, r3 = rng.sample(CONTENT_RELATIONS, 3)
        graph.add(o, r1, b)
        graph.add(b, r2, c)
        for member in (o, b, c, lure):
            for label in CONTENT_RELATIONS:
                if label not in (r1, r2, r3):
                    graph.add(member, label, rng.choices(hubs, weights=weights)[0])
        gadgets.append((o, b, c, lure, r1, r2, r3))
    graph.add_admin_literals(rng)

    name = graph.labels
    questions = []
    for i in range(n_questions):
        o, b, c, lure, r1, r2, r3 = gadgets[(7 * i) % n_gadgets]
        kind = CHAIN_KINDS[i % len(CHAIN_KINDS)]
        if kind == "1":
            q = _chain_question(graph, [o, b], [r1])
        elif kind == "2":
            q = _chain_question(graph, [o, b, c], [r1, r2])
        else:
            # no triple starts with this text, so sufficiency never says yes
            subject = b if kind == "4" else lure
            text = f"{r3} of {name[b]}, {r1} of {name[o]}?" if kind == "4" else f"{r3} of {name[lure]}?"
            q = {
                "question": _capitalize_first(text),
                "track": "chained",
                "origin": name[o] if kind == "4" else name[lure],
                "answer_triple": f"({name[subject]}, {r3}, ",
                "gold": [],
            }
        questions.append(q)
    return {"graph": graph, "questions": questions}


def _claim(graph: Graph, s: int, relation: str, obj: str, surface: str) -> tuple[str, dict]:
    text = f"{surface}'s {relation} is {obj}."
    return text, {"subject": graph.labels[s], "relation": relation, "object": obj}


def compose_answer(sentences: list[str]) -> str:
    """Fold claim sentences into one answer. Consecutive sentences that open
    with the same two words are joined with "and" ("X was A." + "X was B."
    -> "X was A and B."); others are concatenated.

    The scripted synthesis reply and the planted gold answers both use this
    rule, so the gold is what a correct verification produces.
    """
    out: list[str] = []
    for sentence in sentences:
        words = sentence.split()
        if out and len(words) > 2 and out[-1].split()[:2] == words[:2]:
            out[-1] = out[-1].rstrip(".") + " and " + " ".join(words[2:])
        else:
            out.append(sentence)
    return " ".join(out)


def _parallel_question(
    rng: random.Random, graph: Graph, subjects: list[int], lowercase_every: int = 0
) -> dict | None:
    """A parallel question about several entities. In the draft every second
    claim names a wrong object, and with ``lowercase_every`` = k every k-th
    subject is written in lower case, so only fuzzy linking finds it.

    Each claim's relation is unique at its subject and absent from the
    subject's incoming edges, and a wrong object is never a neighbour of the
    subject, so the claim's own triple is the best-scored evidence."""
    lines, claims, corrected = [], {}, []
    for j, s in enumerate(subjects):
        options = [(r, o) for r, o in graph.unique_out(s) if r not in graph.in_labels[s]]
        if not options:
            return None
        relation, o = rng.choice(options)
        true_obj = graph.labels[o]
        obj = true_obj
        if j % 2 == 1:
            while True:
                wrong = rng.randrange(len(graph.labels))
                if wrong != s and wrong not in graph.adjacent[s]:
                    break
            obj = graph.labels[wrong]
        surface = graph.labels[s]
        if lowercase_every and j % lowercase_every == 0:
            surface = surface.lower()
        text, claim = _claim(graph, s, relation, obj, surface)
        lines.append(f"{text} | {surface}")
        claims[text] = claim
        corrected.append(text.replace(obj, true_obj))
    names = [graph.labels[s] for s in subjects]
    question = "Give one verified fact about each of " + ", ".join(names[:-1]) + f" and {names[-1]}."
    return {
        "question": question,
        "track": "parallel",
        "draft": " ".join(claims),
        "decomposition": "\n".join(lines),
        "claims": claims,
        "gold": [compose_answer(corrected)],
    }


def _verify_fanout(rng: random.Random, n_questions: int) -> dict:
    """A 500-entity inventory in which every entity has three facts out and
    three in; the questions name 6, 7 and 8 distinct entities in turn, with
    every fourth subject in lower case."""
    n = 500
    graph = Graph(_names(rng, n))
    graph.add_regular(rng, 3, CONTENT_RELATIONS)
    graph.add_admin_literals(rng)
    questions = []
    while len(questions) < n_questions:
        subjects = rng.sample(range(n), 6 + len(questions) % 3)
        q = _parallel_question(rng, graph, subjects, lowercase_every=4)
        if q is not None:
            questions.append(q)
    return {"graph": graph, "questions": questions}


def _batch_mixed(rng: random.Random, n_questions: int, movie: dict) -> dict:
    """A 60-entity pool, three facts out and three in per entity over eight
    relation labels, so entities, relations and prompts recur across
    questions. Both tracks, a few unparseable classifier replies, and the
    bundled movie questions."""
    n = 60
    graph = Graph(_names(rng, n))
    graph.add_regular(rng, 3, CONTENT_RELATIONS[:8])
    questions, seen = [], {}
    while len(questions) < n_questions - len(movie["questions"]):
        # 1-hop, 2-hop, 2-claim parallel, 1-hop, 3-claim parallel
        kind = len(questions) % 5
        if kind in (0, 1, 3):
            planted = _plant_chain(rng, graph, rng.randrange(n), 2 if kind == 1 else 1)
            if planted is None:
                continue
            q = _chain_question(graph, *planted)
            if len(questions) % 25 == 3:
                q["route"] = rng.choice(UNPARSEABLE_ROUTES)  # falls back to chained
        else:
            q = _parallel_question(rng, graph, rng.sample(range(n), 2 if kind == 2 else 3))
            if q is None:
                continue
        # a repeated question keeps the facts planted when it was first asked
        questions.append(dict(seen.setdefault(q["question"], q)))
    # the movie questions sit at fixed positions inside the counted prefix
    questions[5:5] = movie["questions"]
    return {"graph": graph, "questions": questions, "extra_lines": movie["lines"]}


def movie_world(triples_path: Path, dataset_path: Path) -> dict:
    """The bundled movie fixture, planted the way the acceptance tests script
    it: the chained question's answer is the birthdate on the
    director -> spouse -> birthdate path, and the parallel draft carries
    one wrong claim (the director) and one right one (the release year)."""
    lines = [
        line for line in triples_path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    dataset = [json.loads(line) for line in dataset_path.read_text(encoding="utf-8").splitlines() if line.strip()]
    chained, parallel = dataset
    wrong = "Inception was directed by James Cameron."
    right = "Inception was released in 2010."
    questions = [
        {
            "question": chained["question"],
            "track": "chained",
            "origin": "Inception",
            "answer_triple": "(Emma Thomas, birthdate, 1975-05-26)",
            "gold": chained["gold_answers"],
            "movie": True,
        },
        {
            "question": parallel["question"],
            "track": "parallel",
            "draft": f"{wrong} {right}",
            "decomposition": f"{wrong} | Inception\n{right} | Inception",
            "claims": {
                wrong: {"subject": "Inception", "relation": "director", "object": "James Cameron"},
                right: {"subject": "Inception", "relation": "publication date", "object": "2010"},
            },
            "gold": parallel["gold_answers"],
            "movie": True,
        },
    ]
    return {"lines": lines, "questions": questions}


# Injected per provider call, the same on every workload. Shorter sleeps
# overshoot by a larger and less steady share.
LATENCY_MS = {"llm": 2, "kg": 2, "embed": 2, "rerank": 2}

# Per-workload settings. ``counted`` is the question prefix every count and
# answer_em is taken over (whole cycles of each workload's question kinds);
# the run keeps answering the following questions until its time is up.
WORKLOADS = {
    "chain_hub": {"config": {}, "counted": 60, "total": 400},
    "verify_fanout": {"config": {}, "counted": 30, "total": 200},
    "batch_mixed": {
        # the bundled demo config, with one evaluation worker per core
        "config": {"theta_search": 0.0, "theta_necessity": 0.5, "parallelism": 2},
        "counted": 120,
        "total": 1000,
    },
}


def generate(workload: str, seed: int, out_dir: Path, repo_root: Path) -> Path:
    """Write ``triples.txt``, ``config.json`` (the engine config) and
    ``world.json`` for one workload and seed."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "chain_hub":
        world = _chain_hub(rng, spec["total"])
    elif workload == "verify_fanout":
        world = _verify_fanout(rng, spec["total"])
    else:
        movie = movie_world(repo_root / "data" / "movies.triples", repo_root / "data" / "questions.jsonl")
        world = _batch_mixed(rng, spec["total"], movie)
    graph: Graph = world["graph"]
    lines = graph.lines + world.get("extra_lines", [])
    necessity = _necessity_scores(rng)
    # the movie relations are all worth keeping for the movie questions
    necessity.update({"director": 0.8, "spouse": 0.8, "birthdate": 0.8, "publication date": 0.8,
                      "genre": 0.6, "cast member": 0.6})
    questions = world["questions"]
    for i, q in enumerate(questions):
        q["id"] = f"{workload}-{i}"
    out_dir.mkdir(parents=True, exist_ok=True)
    triples_file = out_dir / "triples.txt"
    triples_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = {"triples_file": str(triples_file), **spec["config"]}
    (out_dir / "config.json").write_text(json.dumps(config), encoding="utf-8")
    payload = {
        "latency_ms": LATENCY_MS,
        "counted": spec["counted"],
        "necessity": necessity,
        "questions": questions,
    }
    (out_dir / "world.json").write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return out_dir
