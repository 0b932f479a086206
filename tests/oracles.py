"""Independent reference implementations the search tests check against.

``enumerate_paths`` re-derives the set of maximal reasoning paths by plain
recursive enumeration over the store, applying the same per-step scoring
and necessity inputs but none of the engine's search machinery. Each step
runs its layers one after another: score, necessity, threshold, width.
``serial_denoise`` is the denoiser as one loop over the candidates, one
necessity prompt each. ``linear_link`` is entity linking as one full scan of
every label's similarity. ``serial_verify`` is the parallel track with its
claims verified one after another on the calling thread.
``triple_reference`` gives a triple's key, text and hash from its plain
fields, and ``hash_embedding_rows`` the hash embedding with every token's
sha1 computed anew.
"""

import hashlib
import random
import re

from dualtrack.classifier import Answer, QuestionType
from dualtrack.kg import EntityRef, InMemoryTripleStore, KGStore, NotFound, RelationSet, parse_triples
from dualtrack.linking import LinkFailure, similarity
from dualtrack.llm import CompletionRequest, ProviderError, Unparseable, parse_score, parse_yes_no, render
from dualtrack.scoring import score_candidates
from dualtrack.verify import VerificationResult, VerificationStatus, decompose, draft_response

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


def random_necessity(rng: random.Random) -> dict[str, float]:
    """A necessity score for every relation word; about a third fall below
    0.5, and a score may sit exactly on it."""
    return {
        word: round(rng.uniform(0.0, 0.49) if rng.random() < 1 / 3 else rng.uniform(0.5, 1.0), 2)
        for word in RELATION_WORDS
    }


def necessity_script(necessity: dict[str, float]) -> list[tuple[str, str]]:
    """A ``StubLLM`` script that answers each relation's necessity prompt
    with its score from ``necessity``."""
    return [(f"Relation: {word}\n", str(score)) for word, score in necessity.items()]


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
    necessity=None,
    theta_necessity=0.0,
):
    """Brute-force enumeration of all maximal paths under the constraints.
    ``necessity`` maps a relation label to its necessity score; a label it
    lacks scores 1.0.

    Returns the set of path signatures: tuples of (triple key, direction).
    """
    necessity = necessity or {}
    results = set()

    def recurse(tip, visited, hops):
        if len(hops) == d_max or not isinstance(tip, EntityRef):
            if hops:
                results.add(tuple(hops))
            return
        relations = RelationSet(tip, store.head_relations(tip), store.tail_relations(tip))
        options = []
        for t in relations.head:
            options.append((t, "head", t.object))
        for t in relations.tail:
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
            question_text, [t for t, _, _ in filtered], relations, scoring, embedder, reranker
        )
        scored = [c for c in scored if necessity.get(c.payload.relation.label, 1.0) >= theta_necessity]
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


def triple_reference(fields) -> tuple[str, str, int]:
    """Key, verbalized text and hash of the triple with these plain fields:
    ``((subject_id, subject_label), (relation_id, relation_label), obj)``,
    where ``obj`` is ``("entity", id, label)`` or ``("literal", value,
    datatype)``. The key joins the ids (a literal's value) with ``|``; the
    text joins each position's label, or its id when the label is empty (a
    literal's value), with spaces; the hash is that of the nested field
    tuples."""
    (s_id, s_label), (r_id, r_label), (kind, o_first, o_second) = fields
    o_word = (o_second or o_first) if kind == "entity" else o_first
    key = "|".join((s_id, r_id, o_first))
    text = " ".join((s_label or s_id, r_label or r_id, o_word))
    return key, text, hash(((s_id, s_label), (r_id, r_label), (o_first, o_second)))


def hash_embedding_rows(texts, dimension: int) -> list[list[float]]:
    """One row per text: each lower-cased word token adds 1.0 at the first 8
    bytes of its sha1, big-endian, modulo ``dimension``."""
    rows = []
    for text in texts:
        row = [0.0] * dimension
        for token in re.findall(r"\w+", text.lower()):
            digest = hashlib.sha1(token.encode("utf-8")).digest()
            row[int.from_bytes(digest[:8], "big") % dimension] += 1.0
        rows.append(row)
    return rows


def build_store(lines) -> InMemoryTripleStore:
    return InMemoryTripleStore(parse_triples(lines))


def serial_denoise(candidates, question, k_invalid, theta, llm, template):
    """Keyword rule, then one necessity prompt per surviving candidate, in
    input order. A provider error or an unparseable reply keeps the
    candidate; with ``theta`` 0 the provider is never asked."""
    survivors = []
    for candidate in candidates:
        relation = candidate.relation
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


def linear_link(surface: str, store: KGStore, floor: float) -> EntityRef:
    """Exact label lookup, else the label of highest ``similarity`` over the
    whole inventory, ties broken on the lower QID, if it reaches ``floor``."""
    if not surface:
        raise LinkFailure("empty surface form")
    try:
        return store.resolve_entity_id(surface)
    except NotFound:
        pass

    best_entity: EntityRef | None = None
    best_sim = -1.0
    for entity in store.entities():
        if not entity.label:
            continue
        sim = similarity(surface, entity.label)
        better = sim > best_sim or (
            sim == best_sim and best_entity is not None and entity.id < best_entity.id
        )
        if better:
            best_sim = sim
            best_entity = entity
    if best_entity is None or best_sim < floor:
        raise LinkFailure(f"no entity within similarity {floor} of {surface!r}")
    return best_entity


def _complete(llm, template, **fields) -> str:
    return llm.complete(CompletionRequest(prompt=render(template, fields))).text


def _verify_one(fact, pipe) -> VerificationResult:
    """One claim, each step after the last: link, fetch head then tail (each
    triple key once), the keyword rule, score the rule-kept pool, keep the
    triples whose label passed necessity, judge the best, rewrite a
    mismatch."""
    cfg, templates = pipe.config, pipe.templates

    def result(status, best=(), revised=None):
        return VerificationResult(fact=fact, status=status, best_triples=list(best), revised_text=revised)

    try:
        entity = linear_link(fact.subject_surface, pipe.store, cfg.link_floor)
    except LinkFailure:
        return result(VerificationStatus.UNVERIFIABLE)
    relations = RelationSet(entity, pipe.store.head_relations(entity), pipe.store.tail_relations(entity))
    pool = relations.head + relations.tail
    pool = [t for i, t in enumerate(pool) if t.key() not in {u.key() for u in pool[:i]}]  # a self-loop once
    pool = serial_denoise(pool, fact.text, cfg.k_invalid, 0.0, None, None)
    if not pool:
        return result(VerificationStatus.UNVERIFIABLE)
    scored = score_candidates(fact.text, pool, relations, cfg, pipe.embedder, pipe.reranker)
    necessary = serial_denoise(pool, fact.text, (), cfg.theta_necessity, pipe.llm, templates["necessity"])
    keys = {t.key() for t in necessary}
    best = [c.payload for c in scored if c.payload.key() in keys][: cfg.verify_top_k]
    if not best:
        return result(VerificationStatus.UNVERIFIABLE)
    evidence = "\n".join(t.text for t in best)
    reply = _complete(pipe.llm, templates["judge"], fact=fact.text, triples=evidence)
    try:
        matched = parse_yes_no(reply)
    except Unparseable:
        return result(VerificationStatus.UNVERIFIABLE, best)
    if matched:
        return result(VerificationStatus.VERIFIED, best)
    revised = _complete(pipe.llm, templates["rewrite"], fact=fact.text, triples=evidence).strip()
    if not revised or revised == fact.text:
        return result(VerificationStatus.UNVERIFIABLE, best)
    return result(VerificationStatus.REVISED, best, revised)


def serial_verify(question, pipe):
    """The parallel track with no executor: draft, decompose, then verify the
    claims one by one on the calling thread, every claim even after one has
    failed. Returns ``(answer, None)``, or ``(None, error)`` with the first
    error: the draft's or the decomposition's, else the earliest failing
    claim's in fact order, else the synthesis's."""
    try:
        return _serial_answer(question, pipe), None
    except Exception as exc:
        return None, exc


def _serial_answer(question, pipe) -> Answer:
    draft = draft_response(question, pipe.llm, pipe.templates)
    facts = decompose(draft, pipe.llm, pipe.templates)
    results, errors = [], []
    for fact in facts:
        try:
            results.append(_verify_one(fact, pipe))
        except Exception as exc:
            errors.append(exc)
    if errors:
        raise errors[0]
    answer = Answer(text=draft, track=QuestionType.PARALLEL, verification=results, draft=draft)
    if all(r.status is VerificationStatus.UNVERIFIABLE for r in results):
        answer.flags = {"unverified"}
        return answer
    summary = []
    for r in results:
        summary += [f"- claim: {r.fact.text}", f"  status: {r.status.value}"]
        summary += [f"  revision: {r.revised_text}"] if r.revised_text else []
        summary += ["  evidence: " + "; ".join(t.text for t in r.best_triples)] if r.best_triples else []
    answer.text = _complete(
        pipe.llm, pipe.templates["synthesize"], question=question.text, draft=draft, verifications="\n".join(summary)
    ).strip()
    return answer
