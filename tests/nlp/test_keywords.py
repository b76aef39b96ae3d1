"""Semantic Keywords Filter: ontology term extraction."""

from __future__ import annotations

import pytest

from repro.nlp import KeywordFilter, default_lemmatizer
from repro.ontology.domains import default_ontology


@pytest.fixture(scope="module")
def keyword_filter():
    return KeywordFilter(default_ontology())


class TestPaperExamples:
    def test_tree_pop_with_ids(self, keyword_filter):
        matches = keyword_filter.extract("The tree doesn't have pop method.")
        found = {(m.name, m.item_id) for m in matches}
        assert ("tree", 4) in found
        assert ("pop", 33) in found

    def test_push_tree(self, keyword_filter):
        names = [m.name for m in keyword_filter.extract("I push the data into a tree.")]
        assert names == ["push", "tree"]


class TestMultiWordTerms:
    def test_longest_match_wins(self, keyword_filter):
        matches = keyword_filter.extract("A binary search tree holds sorted keys.")
        names = [m.name for m in matches]
        assert "binary search tree" in names
        assert "tree" not in names
        assert "search" not in names

    def test_two_word_term(self, keyword_filter):
        names = [m.name for m in keyword_filter.extract("The hash table uses buckets.")]
        assert "hash table" in names
        assert "bucket" in names

    def test_span_positions(self, keyword_filter):
        (match,) = [
            m
            for m in keyword_filter.extract("Use a binary search tree here.")
            if m.name == "binary search tree"
        ]
        assert match.end - match.start == 3
        assert match.surface == "binary search tree"


class TestInflection:
    def test_plural_concept(self, keyword_filter):
        names = [m.name for m in keyword_filter.extract("The stacks are useful.")]
        assert "stack" in names

    def test_verb_past(self, keyword_filter):
        names = [m.name for m in keyword_filter.extract("We pushed the element.")]
        assert "push" in names
        assert "element" in names

    def test_gerund(self, keyword_filter):
        names = [m.name for m in keyword_filter.extract("Popping the stack is easy.")]
        assert "pop" in names

    def test_alias(self, keyword_filter):
        names = [m.name for m in keyword_filter.extract("The bst is balanced.")]
        assert "binary search tree" in names


class TestGrouping:
    def test_concepts_and_operations(self, keyword_filter):
        concepts, operations = keyword_filter.concepts_and_operations(
            "Does the stack have a pop method?"
        )
        assert [c.name for c in concepts] == ["stack"]
        assert [o.name for o in operations] == ["pop"]

    def test_extract_by_kind(self, keyword_filter):
        from repro.ontology import ItemKind

        grouped = keyword_filter.extract_by_kind("The stack is lifo.")
        assert [m.name for m in grouped[ItemKind.CONCEPT]] == ["stack"]
        assert [m.name for m in grouped[ItemKind.PROPERTY]] == ["lifo"]

    def test_no_keywords(self, keyword_filter):
        assert keyword_filter.extract("The weather is nice today.") == []


class TestLemmatizer:
    def test_known_forms(self):
        lemmatizer = default_lemmatizer()
        assert lemmatizer.lemma("pushes") == "push"
        assert lemmatizer.lemma("pushed") == "push"
        assert lemmatizer.lemma("stacks") == "stack"
        assert lemmatizer.lemma("children") == "child"
        assert lemmatizer.lemma("held") == "hold"

    def test_unknown_unchanged(self):
        lemmatizer = default_lemmatizer()
        assert lemmatizer.lemma("zorkmid") == "zorkmid"

    def test_case_insensitive(self):
        lemmatizer = default_lemmatizer()
        assert lemmatizer.lemma("Pushes") == "push"

    def test_lemmas_tuple(self):
        lemmatizer = default_lemmatizer()
        assert lemmatizer.lemmas(("stacks", "hold")) == ("stack", "hold")

    def test_table_is_populated(self):
        assert len(default_lemmatizer()) > 200


class TestOntologyEdits:
    """A filter built before an ontology edit matches what a filter
    built after it does — and so do the agents and QA that share it."""

    SENTENCES = (
        "The skiplist has a push operation.",
        "We push the data onto the skiplist.",
        "The skiplist is a list.",
        "The skiplist doesn't have pop method.",
    )
    QUESTIONS = (
        "What is a skiplist?",
        "Does the skiplist have the push operation?",
        "Which data structures have the push operation?",
        "What operations does the skiplist support?",
    )

    def edited_system(self):
        from repro.core.system import ELearningSystem
        from repro.linkgrammar.lexicon.domain import build_domain_dictionary
        from repro.ontology.domains.data_structures import build_data_structure_ontology
        from repro.ontology.model import Definition, Item, ItemKind, RelationKind

        ontology = build_data_structure_ontology()
        system = ELearningSystem(build_domain_dictionary(), ontology)
        for sentence in self.SENTENCES:  # warm every lazily built table
            system.semantic_agent.review(sentence)
        next_id = max(item.item_id for item in ontology.items()) + 1
        ontology.add_item(
            Item(
                next_id,
                "skiplist",
                ItemKind.CONCEPT,
                category="container",
                definition=Definition("A skiplist layers sorted linked lists."),
            )
        )
        ontology.add_relation("skiplist", RelationKind.IS_A, "list")
        ontology.add_relation("skiplist", RelationKind.HAS_OPERATION, "push")
        return system

    def test_live_system_matches_fresh_objects(self):
        from repro.agents.semantic_agent import SemanticAgent
        from repro.qa.engine import QASystem

        system = self.edited_system()
        ontology = system.ontology
        fresh_filter = KeywordFilter(ontology)
        fresh_agent = SemanticAgent(ontology)
        fresh_qa = QASystem(ontology)
        for sentence in self.SENTENCES:
            assert system.keyword_filter.extract(sentence) == fresh_filter.extract(sentence)
            assert system.semantic_agent.review(sentence) == fresh_agent.review(sentence)
        assert "skiplist" in [
            match.name for match in system.keyword_filter.extract(self.SENTENCES[0])
        ]
        for question in self.QUESTIONS:
            live, fresh = system.qa.resolve(question), fresh_qa.resolve(question)
            assert (live.match, live.item_ids) == (fresh.match, fresh.item_ids)
            assert system.qa.answer(question) == fresh_qa.answer(question)
        assert system.qa.resolve("What is a skiplist?").item_ids != ()
