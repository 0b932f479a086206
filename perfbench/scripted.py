"""A deterministic stand-in for the LLM whose replies are derived from each
prompt and the planted facts of the generated world.

The provider recognizes which packaged template a prompt was rendered from,
reads the template's slots back out of the prompt, and answers as a
well-behaved model would:

- routing and entity extraction follow the planted question;
- necessity is 0.9 for a relation the question names, otherwise a fixed
  per-label score (some below the default threshold);
- sufficiency is "yes" only when the planted answer triple is on the path;
- generation returns the final hop's object of the path holding the planted
  triple (or of the first path when none does);
- judging and rewriting compare the claim with the evidence triples, so a
  claim grounded against the wrong entity stays unverifiable;
- synthesis folds the claims, revised where a revision exists.
"""

from __future__ import annotations

import re

from dualtrack.llm import CompletionRequest, CompletionResponse, LLMProvider, PromptTemplate

from workloads import compose_answer

_HOP_RE = re.compile(r"\(([^()]*)\)(?: \[inverse\])?$")


class TemplateIndex:
    """Maps a rendered prompt back to its template and slot values."""

    def __init__(self, templates: dict[str, PromptTemplate]):
        self.names = sorted(templates)
        self._prefixes = []
        self._patterns = {}
        for name, template in templates.items():
            pieces = re.split(r"\{([a-z_][a-z0-9_]*)\}", template.body)
            regex = "".join(
                re.escape(piece) if i % 2 == 0 else f"(?P<{piece}>.*?)" for i, piece in enumerate(pieces)
            )
            self._patterns[name] = re.compile(regex + r"\Z", re.DOTALL)
            self._prefixes.append((pieces[0], name))
        self._prefixes.sort(key=lambda item: -len(item[0]))

    def name_of(self, prompt: str) -> str:
        for prefix, name in self._prefixes:
            if prompt.startswith(prefix):
                return name
        return "other"

    def slots(self, name: str, prompt: str) -> dict[str, str]:
        match = self._patterns[name].match(prompt)
        return match.groupdict() if match else {}


class ScriptedLLM(LLMProvider):
    """Stateless, so it is safe to share across evaluation threads."""

    name = "scripted"

    def __init__(self, world: dict, index: TemplateIndex):
        self.index = index
        self.necessity = world["necessity"]
        self.by_question = {q["question"]: q for q in world["questions"]}
        self.by_draft = {q["draft"]: q for q in world["questions"] if "draft" in q}
        self.claims = {}
        for q in world["questions"]:
            self.claims.update(q.get("claims", {}))

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        name = self.index.name_of(request.prompt)
        handler = getattr(self, "_" + name, None)
        text = handler(self.index.slots(name, request.prompt)) if handler else ""
        return CompletionResponse(text=text, provider=self.name)

    # -- one method per template ------------------------------------------

    def _classification(self, slots):
        q = self.by_question.get(slots.get("question"))
        if q is None:
            return "Unclear."
        return q.get("route") or ("yes" if q["track"] == "chained" else "no")

    def _extract_entity(self, slots):
        q = self.by_question.get(slots.get("question"))
        return q["origin"] if q and "origin" in q else ""

    def _necessity(self, slots):
        relation = slots.get("relation", "")
        if re.search(rf"\b{re.escape(relation)}\b", slots.get("question", ""), re.IGNORECASE):
            return "0.9"
        return str(self.necessity.get(relation, 0.5))

    def _select_relations(self, slots):
        listed = [line.lstrip("- ").strip() for line in slots.get("relations", "").splitlines()]
        question = slots.get("question", "").lower()
        named = [label for label in listed if label.lower() in question]
        return ", ".join((named or listed)[:3])

    def _sufficiency(self, slots):
        q = self.by_question.get(slots.get("question"))
        return "yes" if q and q["answer_triple"] in slots.get("path", "") else "no"

    def _generate(self, slots):
        q = self.by_question.get(slots.get("question"))
        lines = [line for line in slots.get("triples", "").splitlines() if line.strip()]
        if not lines:
            return ""
        chosen = next((line for line in lines if q and q["answer_triple"] in line), lines[0])
        match = _HOP_RE.search(chosen.strip())
        return match.group(1).split(", ")[-1] if match else ""

    def _draft(self, slots):
        q = self.by_question.get(slots.get("question"))
        return q.get("draft", "") if q else ""

    def _decompose(self, slots):
        q = self.by_draft.get(slots.get("response"))
        return q["decomposition"] if q else ""

    def _evidence_object(self, slots) -> tuple[dict | None, str | None]:
        """The planted claim and the object the evidence gives for its
        subject and relation, if any evidence line states one."""
        claim = self.claims.get(slots.get("fact"))
        if claim is None:
            return None, None
        prefix = f"{claim['subject']} {claim['relation']} "
        for line in slots.get("triples", "").splitlines():
            if line.startswith(prefix):
                return claim, line[len(prefix):]
        return claim, None

    def _judge(self, slots):
        claim, found = self._evidence_object(slots)
        return "yes" if claim and found is not None and found.startswith(claim["object"]) else "no"

    def _rewrite(self, slots):
        claim, found = self._evidence_object(slots)
        fact = slots.get("fact", "")
        if claim is None or found is None:
            return fact
        return fact.replace(claim["object"], found)

    def _synthesize(self, slots):
        sentences = []
        for line in slots.get("verifications", "").splitlines():
            if line.startswith("- claim: "):
                sentences.append(line[len("- claim: "):])
            elif line.startswith("  revision: ") and sentences:
                sentences[-1] = line[len("  revision: "):]
        return compose_answer(sentences)
