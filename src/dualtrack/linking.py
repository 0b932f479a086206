"""Surface-string to entity resolution.

Exact (case-sensitive) label lookup first. When that misses, the store's
label inventory is listed once. A label equal to the surface after case
folding has similarity 1 and wins outright, with no edit distance computed;
only when there is none does a normalized edit-distance scan over every
label run. Either way the entity returned is the one a full scan of every
label's ``similarity`` picks: the most similar label at or above the floor,
ties broken on lexicographic QID, so linking is deterministic.
"""

from __future__ import annotations

import logging

from .kg import EntityRef, KGStore, NotFound

log = logging.getLogger(__name__)

DEFAULT_SIMILARITY_FLOOR = 0.8


class LinkFailure(Exception):
    """No entity matches the surface form above the similarity floor."""


def levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def similarity(a: str, b: str) -> float:
    """Normalized Levenshtein similarity over case-folded strings, in [0, 1]."""
    a, b = a.casefold(), b.casefold()
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def link_surface(surface: str, store: KGStore, floor: float = DEFAULT_SIMILARITY_FLOOR) -> EntityRef:
    """Resolve a surface form to an entity.

    Exact (case-sensitive) label lookup wins outright. Otherwise the store's
    labels are listed once. If any equals the surface after case folding,
    the lowest QID among them is returned, provided ``floor`` is at most 1;
    failing that, the best similarity over every label is taken, provided it
    reaches ``floor``. Either way the result equals a full scan of
    ``similarity`` over every label. Live stores expose no label inventory,
    so for them only the exact route can succeed.
    """
    if not surface:
        raise LinkFailure("empty surface form")
    try:
        return store.resolve_entity_id(surface)
    except NotFound:
        pass

    entities = [entity for entity in store.entities() if entity.label]
    folded = surface.casefold()
    best_entity: EntityRef | None = None
    best_sim = 1.0  # a case-folded equal scores exactly 1
    for entity in entities:
        if entity.label.casefold() == folded and (best_entity is None or entity.id < best_entity.id):
            best_entity = entity
    if best_entity is None:
        best_sim = -1.0
        for entity in entities:
            sim = similarity(surface, entity.label)
            better = sim > best_sim or (
                sim == best_sim and best_entity is not None and entity.id < best_entity.id
            )
            if better:
                best_sim = sim
                best_entity = entity
    if best_entity is None or best_sim < floor:
        raise LinkFailure(f"no entity within similarity {floor} of {surface!r}")
    log.debug("fuzzy-linked %r to %s (sim=%.3f)", surface, best_entity.id, best_sim)
    return best_entity
