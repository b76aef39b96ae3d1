"""The Semantic Keywords Filter (paper section 4.3, stage 2).

"Semantic Keyword Filter will extract the sentence's keywords by using the
information in Ontology": every ontology term (name or alias, possibly
multi-word, under inflection) occurring in a sentence is extracted with
its ontology id — e.g. "The tree doesn't have pop method" yields *tree*
(id 4) and *pop* (id 33).

Matching is greedy longest-first over token n-grams, comparing both
surface forms and lemmas, so "binary search trees" matches the
three-token concept before "search" or "tree" could.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.linkgrammar.tokenizer import TokenizedSentence, tokenize
from repro.ontology.model import Item, ItemKind, Ontology

from .normalize import Lemmatizer, default_lemmatizer

# First token -> [(term tokens, item id)], longest term first.
_TermTable = dict[str, list[tuple[tuple[str, ...], int]]]


@dataclass(frozen=True, slots=True)
class KeywordMatch:
    """One ontology term found in a sentence.

    Attributes:
        item: the matched ontology item.
        start / end: token span (end exclusive) in the sentence.
        surface: the matched words as written.
    """

    item: Item
    start: int
    end: int
    surface: str

    @property
    def item_id(self) -> int:
        return self.item.item_id

    @property
    def name(self) -> str:
        return self.item.name


class KeywordFilter:
    """Extracts ontology keywords from tokenised sentences.

    The term table (first token -> candidate terms) is built from the
    ontology's :meth:`~repro.ontology.model.Ontology.term_index` and
    rebuilt lazily whenever :attr:`~repro.ontology.model.Ontology.
    generation` moves, so an item added after construction is matched
    by every agent sharing this filter.
    """

    def __init__(self, ontology: Ontology, lemmatizer: Lemmatizer | None = None) -> None:
        self.ontology = ontology
        self.lemmatizer = lemmatizer or default_lemmatizer()
        self._table_generation = ontology.generation
        self._by_first = _term_table(ontology)

    def _current_table(self) -> _TermTable:
        generation = self.ontology.generation
        if generation == self._table_generation:
            return self._by_first
        # Publish the table before its generation: a concurrent reader
        # that sees the new generation must also see the new table.
        table = self._by_first = _term_table(self.ontology)
        self._table_generation = generation
        return table

    def extract(self, text: str | TokenizedSentence) -> list[KeywordMatch]:
        """All ontology keywords, left to right, greedy longest match."""
        sentence = tokenize(text) if isinstance(text, str) else text
        words = sentence.words
        lemmas = self.lemmatizer.lemmas(words)
        by_first = self._current_table()
        matches: list[KeywordMatch] = []
        position = 0
        while position < len(words):
            match = self._match_at(by_first, words, lemmas, position)
            if match is None:
                position += 1
            else:
                matches.append(match)
                position = match.end
        return matches

    def _match_at(
        self,
        by_first: _TermTable,
        words: tuple[str, ...],
        lemmas: tuple[str, ...],
        position: int,
    ) -> KeywordMatch | None:
        for key in (words[position], lemmas[position]):
            for term_tokens, item_id in by_first.get(key, ()):
                end = position + len(term_tokens)
                if end > len(words):
                    continue
                window_surface = words[position:end]
                window_lemma = lemmas[position:end]
                if all(
                    term == surface or term == lemma
                    for term, surface, lemma in zip(term_tokens, window_surface, window_lemma)
                ):
                    return KeywordMatch(
                        item=self.ontology.get(item_id),
                        start=position,
                        end=end,
                        surface=" ".join(window_surface),
                    )
        return None

    # ------------------------------------------------------- convenience

    def extract_by_kind(
        self, text: str | TokenizedSentence
    ) -> dict[ItemKind, list[KeywordMatch]]:
        """Keywords grouped by ontology item kind."""
        grouped: dict[ItemKind, list[KeywordMatch]] = {}
        for match in self.extract(text):
            grouped.setdefault(match.item.kind, []).append(match)
        return grouped

    def concepts_and_operations(
        self, text: str | TokenizedSentence
    ) -> tuple[list[KeywordMatch], list[KeywordMatch]]:
        """(concepts, operations) — the pairing the distance stage needs."""
        grouped = self.extract_by_kind(text)
        return grouped.get(ItemKind.CONCEPT, []), grouped.get(ItemKind.OPERATION, [])


def _term_table(ontology: Ontology) -> _TermTable:
    by_first: _TermTable = {}
    for name, item_id in ontology.term_index().items():
        tokens = tuple(name.split())
        if tokens:
            by_first.setdefault(tokens[0], []).append((tokens, item_id))
    for candidates in by_first.values():
        candidates.sort(key=lambda pair: (-len(pair[0]), pair[0]))
    return by_first
