"""Test oracle: the sentence repairer that fully parses every candidate.

:class:`FullParseRepairer` keeps the candidate generation, trouble-spot
and variant logic of :class:`~repro.linkgrammar.repair.SentenceRepairer`
but runs its original search loop: every candidate goes through
:meth:`~repro.linkgrammar.parser.Parser.parse` (null search plus linkage
enumeration), and unknown-word and partial results are discarded only
afterwards.  The gate suites compare the zero-null-gated repairer
against it repair for repair, in order.
"""

from __future__ import annotations

from repro.linkgrammar.repair import Repair, SentenceRepairer
from repro.linkgrammar.tokenizer import TokenizedSentence, tokenize


class FullParseRepairer(SentenceRepairer):
    """A :class:`SentenceRepairer` that fully parses each candidate."""

    def repair(self, text: str | TokenizedSentence) -> list[Repair]:
        sentence = tokenize(text) if isinstance(text, str) else text
        baseline = self.parser.parse(sentence)
        base_cost = baseline.best.cost if baseline.best else 0
        base_key = (baseline.null_count, base_cost)
        if baseline.null_count == 0 and not baseline.unknown_words and base_cost == 0:
            return []
        words = list(sentence.words)
        terminator = sentence.terminator
        if not words:
            return []
        trouble = self._trouble_spots(baseline, len(words))
        repairs: list[Repair] = []
        seen: set[str] = set()
        for candidate, edit in self._candidates(words, terminator, trouble):
            if candidate in seen or candidate.lower() == sentence.raw.lower():
                continue
            seen.add(candidate)
            result = self.parser.parse(candidate)
            if result.unknown_words:
                continue
            # A repair must be *fully* grammatical — a partial improvement
            # would still draw a Learning_Angel warning.
            key = (result.null_count, result.best.cost if result.best else 0)
            if result.null_count == 0 and result.linkages and key < base_key:
                repairs.append(
                    Repair(
                        text=candidate,
                        edit=edit,
                        null_count=0,
                        cost=result.best.cost if result.best else 0,
                    )
                )
            if len(seen) >= self.max_candidates:
                break
        repairs.sort(key=Repair.sort_key)
        return repairs[: self.max_results]
