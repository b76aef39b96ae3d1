"""The Learning_Angel agent (paper section 4.2, Figure 4).

Workflow, exactly as Figure 4 draws it: a chat-room sentence is forwarded
to the Enhanced Link Grammar Parser; Label analysis & filter checks the
linkage against the meta-rules, localises mistakes, searches the Learner
Corpus for suitable correct sentences to convey to the learner, and
records the tagged sentence back into the corpus.
"""

from __future__ import annotations

import dataclasses

from repro.corpus.records import Correctness, CorpusRecord
from repro.corpus.search import SuggestionSearch
from repro.corpus.store import LearnerCorpus
from repro.linkgrammar.cache import ParseCacheStore
from repro.linkgrammar.dictionary import Dictionary
from repro.linkgrammar.parser import ParseOptions
from repro.linkgrammar.repair import SentenceRepairer
from repro.linkgrammar.robust import RobustAnalyzer
from repro.linkgrammar.tokenizer import TokenizedSentence, tokenize
from repro.nlp.keywords import KeywordFilter
from repro.nlp.patterns import PatternAnalysis, classify

from .reports import SyntaxReview

AGENT_NAME = "Learning_Angel"


class LearningAngelAgent:
    """Syntax supervisor: parse, diagnose, suggest, record.

    :meth:`review` runs in two halves.  :meth:`static_review` (parse,
    diagnosis, keywords, repairs) is a pure function of the sentence and
    the dictionary and ontology generations; :meth:`suggest` reads the
    live learner corpus.  The supervision pipeline calls the halves
    itself: it keeps the static half in a per-utterance record, runs the
    suggestion search per occurrence, and runs neither the search nor
    repair for questions, whose replies never show them.

    Args:
        dictionary: the chat-room link-grammar dictionary.
        corpus: the learner corpus used both for suggestion search and for
            recording reviewed sentences; optional (agents can run
            stateless in benchmarks).
        keyword_filter: ontology keyword extractor used to find
            topic-matched suggestions; optional.
        options: parser options (null tolerance, linkage caps).
        repair: also propose single-edit corrections of the learner's
            own sentence (on by default).
        cache_store: parse cache shared by the analyzer's and the
            repairer's parsers.  Defaults to the dictionary's own shared
            store, so both components hit a single LRU: repair candidates
            that survive the zero-null gate enter it fully parsed, and
            gated-out ones leave only their zero-null count.  Pass an
            explicit store to isolate the agent.
    """

    name = AGENT_NAME
    #: Resilience stage this agent backs (breaker label in ``health``).
    stage = "parser"

    def __init__(
        self,
        dictionary: Dictionary,
        corpus: LearnerCorpus | None = None,
        keyword_filter: KeywordFilter | None = None,
        options: ParseOptions | None = None,
        repair: bool = True,
        cache_store: ParseCacheStore | None = None,
    ) -> None:
        options = options or ParseOptions()
        if cache_store is None and options.cache_size > 0:
            cache_store = dictionary.shared_cache_store()
        self.cache_store = cache_store
        self.options = options
        self.analyzer = RobustAnalyzer(dictionary, options, cache_store=cache_store)
        self.corpus = corpus
        self.search = SuggestionSearch(corpus) if corpus is not None else None
        self.keyword_filter = keyword_filter
        # Same options as the analyzer: identical cache fingerprints, so
        # a sentence parsed by one component is a hit for the other.
        # Repair outcomes are provably unchanged only while the linkage
        # enumeration window stays at 256 (max_linkages <= 64); beyond
        # that, keep the repairer on its classic options — cache sharing
        # is lost but repair behaviour is preserved.
        repair_options = options if options.max_linkages <= 64 else None
        self.repairer = (
            SentenceRepairer(dictionary, options=repair_options, cache_store=cache_store)
            if repair
            else None
        )

    @property
    def analysis_key(self) -> tuple[int, int, int]:
        """Identity of the static state a review depends on.

        Two agents with the same dictionary, parse options and keyword
        filter produce value-identical :meth:`static_review` results;
        the supervision pipeline keys its analysis records on this (plus
        the semantic agent, the QA matcher and the dictionary and
        ontology generations), so per-worker forks of one agent share
        records while unrelated agents never do.
        """
        return (id(self.analyzer.dictionary), id(self.options), id(self.keyword_filter))

    def fork(self, corpus: LearnerCorpus | None) -> "LearningAngelAgent":
        """A twin bound to a shard-local corpus replica.

        Shares the dictionary, options object, keyword filter and parse
        cache store (all static or internally locked), so the fork's
        :attr:`analysis_key` equals the prototype's; only the corpus —
        where reviews search suggestions and file records — is swapped
        for the worker's replica.
        """
        return LearningAngelAgent(
            self.analyzer.dictionary,
            corpus=corpus,
            keyword_filter=self.keyword_filter,
            options=self.options,
            repair=self.repairer is not None,
            cache_store=self.cache_store,
        )

    def review(
        self,
        text: str | TokenizedSentence,
        pattern: PatternAnalysis | None = None,
    ) -> SyntaxReview:
        """Run the Figure-4 pipeline on one sentence.

        Accepts a pre-tokenised sentence and a precomputed pattern
        classification so the supervision pipeline tokenises and
        classifies each sentence exactly once.  Equivalent to
        :meth:`suggest` over :meth:`static_review`.
        """
        sentence = tokenize(text) if isinstance(text, str) else text
        if pattern is None:
            pattern = classify(sentence)
        return self.suggest(sentence, self.static_review(sentence, pattern))

    def static_review(
        self,
        sentence: TokenizedSentence,
        pattern: PatternAnalysis,
        repair: bool = True,
    ) -> SyntaxReview:
        """The corpus-independent half of :meth:`review`.

        Diagnosis, keywords and (with ``repair``) repairs depend only on
        the sentence, the dictionary generation and the ontology
        generation, so the supervision pipeline keeps the result in its
        per-utterance record.  ``suggestion`` is always None here.
        """
        diagnosis = self.analyzer.analyze(sentence)
        keywords = tuple(self.keyword_filter.extract(sentence)) if self.keyword_filter else ()
        repairs = ()
        if repair and not diagnosis.is_correct and self.repairer is not None:
            repairs = tuple(self.repairer.repair(sentence))
        return SyntaxReview(
            diagnosis=diagnosis,
            repairs=repairs,
            keywords=keywords,
            pattern=pattern,
        )

    def suggest(self, sentence: TokenizedSentence, review: SyntaxReview) -> SyntaxReview:
        """``review`` with a model sentence from the live learner corpus.

        The half of :meth:`review` that reads the corpus: a faulty
        sentence gets the best-matching correct corpus sentence as its
        suggestion; a correct one (or an agent without a corpus) is
        returned unchanged.
        """
        if review.is_correct or self.search is None:
            return review
        suggestion = self.search.best_sentence(
            sentence, keywords=[match.name for match in review.keywords]
        )
        if suggestion is None:
            return review
        return dataclasses.replace(review, suggestion=suggestion)

    def record(
        self,
        review: SyntaxReview,
        user: str,
        room: str,
        timestamp: float,
        verdict: Correctness | None = None,
        semantic_issues: list[str] | None = None,
    ) -> CorpusRecord | None:
        """File the reviewed sentence into the learner corpus."""
        if self.corpus is None:
            return None
        diagnosis = review.diagnosis
        if verdict is None:
            verdict = Correctness.CORRECT if diagnosis.is_correct else Correctness.SYNTAX_ERROR
        best = diagnosis.result.best
        pattern = review.pattern or classify(diagnosis.result.sentence)
        record = CorpusRecord(
            record_id=self.corpus.next_id(),
            user=user,
            room=room,
            text=diagnosis.result.sentence.raw,
            timestamp=timestamp,
            pattern=pattern.pattern.value,
            verdict=verdict,
            syntax_issues=[(issue.kind.value, issue.word) for issue in diagnosis.issues],
            semantic_issues=list(semantic_issues or []),
            keywords=[match.name for match in review.keywords],
            links=best.link_summary() if best else "",
            cost=best.cost if best else 0,
        )
        # The reviewed sentence is already tokenised; spare the store a
        # second tokenizer pass.
        return self.corpus.add(record, tokens=diagnosis.result.sentence.words)
