"""The Questions and Answers system (paper section 4.4, Figure 6).

Flow, as the paper describes for "What is Stack?": extract the keyword,
match the question template, locate the item in the knowledge ontology,
serve its definition/description — "Thus, the system will collect this
question and answer into the FAQ database."  The FAQ cache is consulted
first; unanswerable-by-ontology questions fall back to the learner corpus
("the system will attempt to find the answer from the knowledge ontology
or learner corpus").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.corpus.store import LearnerCorpus
from repro.nlp.keywords import KeywordFilter
from repro.ontology.distance import SemanticDistanceEvaluator
from repro.ontology.model import Item, ItemKind, Ontology, RelationKind

from .faq import FAQDatabase
from .templates import QuestionKind, TemplateMatch, TemplateMatcher


@dataclass(frozen=True, slots=True)
class Answer:
    """The QA system's response to one question.

    Attributes:
        question: the question as asked.
        kind: the matched template family.
        text: the answer text ("" when unanswered).
        answered: whether an answer was produced.
        source: "faq", "ontology", "corpus" or "none".
        item_ids: ontology items involved.
    """

    question: str
    kind: QuestionKind
    text: str
    answered: bool
    source: str
    item_ids: tuple[int, ...] = ()

    @property
    def is_faq_hit(self) -> bool:
        return self.source == "faq"


@dataclass(slots=True)
class QAResolution:
    """The pure, store-independent part of answering one question.

    Template matching and the ontology answer depend only on static
    state (keyword filter, templates, ontology), so the supervision
    pipeline resolves each *distinct* question once, keeps the
    resolution in the question's analysis record and shares it across
    every room that asks it; :meth:`QASystem.apply_resolution` then
    performs the per-item side effects (FAQ lookup and bump, corpus
    fallback).  The ontology answer is computed lazily — a question that
    hits the FAQ cache on every apply never pays for it — and cached on
    the resolution, so it is computed at most once.  The lazy fill is
    value-deterministic (a pure function of the match), making shared
    resolutions safe across worker threads.
    """

    question: str
    match: TemplateMatch
    item_ids: tuple[int, ...]
    _computed: str | None = None


class QASystem:
    """Template-driven QA over the ontology, corpus and FAQ database."""

    def __init__(
        self,
        ontology: Ontology,
        faq: FAQDatabase | None = None,
        corpus: LearnerCorpus | None = None,
        keyword_filter: KeywordFilter | None = None,
    ) -> None:
        self.ontology = ontology
        self.faq = faq if faq is not None else FAQDatabase()
        self.corpus = corpus
        self.keyword_filter = keyword_filter or KeywordFilter(ontology)
        self.matcher = TemplateMatcher(self.keyword_filter)
        self.evaluator = SemanticDistanceEvaluator(ontology)

    # ----------------------------------------------------------------- API

    def answer(self, question: str, now: float = 0.0) -> Answer:
        """Answer one question, updating the FAQ statistics.

        Equivalent to ``apply_resolution(resolve(question), now)`` — the
        split exists so drain batches resolve each distinct question
        once while still bumping the FAQ per asking.
        """
        return self.apply_resolution(self.resolve(question), now=now)

    def resolve(self, question: str) -> QAResolution:
        """Classify one question — pure, memoisable, no side effects."""
        match = self.matcher.match(question)
        item_ids = tuple(sorted({k.item_id for k in match.all_keywords}))
        return QAResolution(question, match, item_ids)

    def apply_resolution(
        self,
        resolution: QAResolution,
        now: float = 0.0,
        origin: tuple[int, int] | None = None,
    ) -> Answer:
        """Serve one asking of a resolved question (FAQ bump included).

        This is the per-item half: it consults the FAQ cache, falls back
        to the resolution's (lazily computed) ontology answer and then
        the learner corpus, and records the asking into the FAQ
        statistics — exactly the side effects the sequential pipeline
        performs per question.  ``origin`` (message seq, sentence index)
        is forwarded to the FAQ so out-of-order commits — deferred
        backfill, quarantine redrive — converge on the in-order pair.
        """
        match = resolution.match
        question = resolution.question
        item_ids = resolution.item_ids

        if match.kind != QuestionKind.UNKNOWN:
            cached = self.faq.lookup(match)
            if cached is not None:
                self.faq.record(
                    match, question, cached.answer, now, source=cached.source, origin=origin
                )
                return Answer(question, match.kind, cached.answer, True, "faq", item_ids)
            text = self._resolved_text(resolution)
            if text:
                self.faq.record(match, question, text, now, origin=origin)
                return Answer(question, match.kind, text, True, "ontology", item_ids)

        corpus_text = self._corpus_answer(match)
        if corpus_text:
            if match.kind != QuestionKind.UNKNOWN:
                self.faq.record(
                    match, question, corpus_text, now, source="corpus", origin=origin
                )
            return Answer(question, match.kind, corpus_text, True, "corpus", item_ids)
        return Answer(question, match.kind, "", False, "none", item_ids)

    def _resolved_text(self, resolution: QAResolution) -> str:
        """The resolution's ontology answer, computed at most once."""
        if resolution._computed is None:
            resolution._computed = (
                self._compute(resolution.match)
                if resolution.match.kind != QuestionKind.UNKNOWN
                else ""
            )
        return resolution._computed

    def fork(
        self,
        faq: FAQDatabase | None = None,
        corpus: LearnerCorpus | None = None,
    ) -> "QASystem":
        """A twin bound to shard-local stores but sharing every static
        collaborator (ontology, keyword filter, matcher, evaluator) —
        shared matchers are what let worker threads share the
        pipeline's analysis records, resolutions included."""
        twin = QASystem.__new__(QASystem)
        twin.ontology = self.ontology
        twin.faq = faq if faq is not None else self.faq
        twin.corpus = corpus if corpus is not None else self.corpus
        twin.keyword_filter = self.keyword_filter
        twin.matcher = self.matcher
        twin.evaluator = self.evaluator
        return twin

    # ------------------------------------------------------------ answers

    def _compute(self, match: TemplateMatch) -> str:
        handlers = {
            QuestionKind.DEFINITION: self._answer_definition,
            QuestionKind.RELATIONS: self._answer_relations,
            QuestionKind.HAS_OPERATION: self._answer_has_operation,
            QuestionKind.WHICH_HAS: self._answer_which_has,
            QuestionKind.OPERATIONS_OF: self._answer_operations_of,
            QuestionKind.PROPERTY: self._answer_property,
            QuestionKind.IS_A: self._answer_is_a,
        }
        handler = handlers.get(match.kind)
        return handler(match) if handler else ""

    def _answer_definition(self, match: TemplateMatch) -> str:
        for keyword in match.all_keywords:
            item = keyword.item
            if item.definition.description:
                return item.definition.description
        return ""

    def _answer_relations(self, match: TemplateMatch) -> str:
        if not match.all_keywords:
            return ""
        item = match.all_keywords[0].item
        fragments: list[str] = []
        for relation in self.ontology.relations_from(item.item_id):
            target = self.ontology.get(relation.target)
            fragments.append(f"{item.name} {relation.kind.value} {target.name}")
        for relation in self.ontology.relations_to(item.item_id):
            if relation.kind == RelationKind.HAS_OPERATION:
                source = self.ontology.get(relation.source)
                fragments.append(f"{source.name} {relation.kind.value} {item.name}")
        if not fragments:
            return f"The ontology records no relations for {item.name}."
        return f"Relations of {item.name}: " + "; ".join(sorted(fragments)) + "."

    def _answer_has_operation(self, match: TemplateMatch) -> str:
        if not match.concepts or not match.operations:
            return ""
        concept = match.concepts[0].item
        operation = match.operations[0].item
        if self.ontology.has_operation(concept.item_id, operation.item_id):
            return (
                f"Yes, the {concept.name} has the {operation.name} operation. "
                f"{operation.definition.description}".strip()
            )
        supporters = self.evaluator.concepts_supporting(operation.item_id, near=concept.item_id)
        hint = ""
        if supporters:
            hint = f" The {operation.name} operation belongs to: " + ", ".join(
                item.name for item in supporters[:3]
            ) + "."
        return f"No, the {concept.name} does not have the {operation.name} operation.{hint}"

    def _answer_which_has(self, match: TemplateMatch) -> str:
        if not match.operations:
            return ""
        operation = match.operations[0].item
        supporters = self.ontology.concepts_with_operation(operation.item_id)
        if not supporters:
            return f"No data structure in the ontology has the {operation.name} operation."
        names = ", ".join(sorted(item.name for item in supporters))
        return f"These data structures have the {operation.name} operation: {names}."

    def _answer_operations_of(self, match: TemplateMatch) -> str:
        if not match.concepts:
            return ""
        concept = match.concepts[0].item
        operations = self.ontology.operations_of(concept.item_id)
        if not operations:
            return f"The ontology records no operations for {concept.name}."
        names = ", ".join(sorted(item.name for item in operations))
        return f"The {concept.name} supports: {names}."

    def _answer_property(self, match: TemplateMatch) -> str:
        if not match.concepts or not match.properties:
            return ""
        concept = match.concepts[0].item
        prop = match.properties[0].item
        properties = self.ontology.properties_of(concept.item_id)
        if any(item.item_id == prop.item_id for item in properties):
            return f"Yes, the {concept.name} is {prop.name}. {prop.definition.description}".strip()
        return f"No, the {concept.name} is not {prop.name} in this course."

    def _answer_is_a(self, match: TemplateMatch) -> str:
        if len(match.concepts) < 2:
            return ""
        child = match.concepts[0].item
        parent = match.concepts[1].item
        ancestors = {item.item_id for item in self.ontology.ancestors(child.item_id)}
        if parent.item_id in ancestors:
            return f"Yes, a {child.name} is a kind of {parent.name}."
        reverse = {item.item_id for item in self.ontology.ancestors(parent.item_id)}
        if child.item_id in reverse:
            return f"Not exactly: a {parent.name} is a kind of {child.name}."
        return f"No, a {child.name} is not a {parent.name} in this course."

    # ------------------------------------------------------------- corpus

    def _corpus_answer(self, match: TemplateMatch) -> str:
        """Fall back to a correct learner-corpus sentence on topic.

        Retrieval is index-backed and streaming: each wanted keyword's
        posting run is accumulated straight off its delta-encoded gaps,
        intersected on the fly against the verdict-code column (O(1)
        CORRECT test per posting, no decoded tuples), so the fallback
        touches only on-topic correct records instead of walking every
        correct record.  The winner is unchanged: highest keyword
        overlap, earliest record on ties (ontology item names are
        canonical lower-case, matching the store's lower-cased keyword
        postings).
        """
        corpus = self.corpus
        if corpus is None or not match.all_keywords:
            return ""
        overlaps: dict[int, int] = {}
        accumulate = corpus.index.accumulate_correct_keyword_positions
        for name in sorted({keyword.name for keyword in match.all_keywords}):
            accumulate(name, overlaps)
        best = min(
            ((-overlap, position) for position, overlap in overlaps.items()),
            default=None,
        )
        return corpus.text_at(best[1]) if best else ""


def _item_names(items: list[Item]) -> str:
    return ", ".join(sorted(item.name for item in items))
