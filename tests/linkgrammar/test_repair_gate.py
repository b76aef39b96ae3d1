"""The zero-null repair gate: same repairs as full parses, less work.

``SentenceRepairer.repair`` rejects unknown-word candidates before any
parse and gates the rest on a zero-null linkage count
(``Parser.parse_complete``).  These suites pin both halves of that
claim:

* **Differential** — against :class:`FullParseRepairer` (the original
  loop, which fully parses every candidate) the gated repairer returns
  identical ``Repair`` lists in the same order, on seeded injected-error
  traffic for every ``ErrorClass`` and on hypothesis-drawn word
  sequences, under four cache setups.
* **Work counts** — a gated-out candidate never enumerates linkages, an
  unknown-word candidate builds no parse session, and a survivor that
  misses the cache builds exactly one.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from full_parse_repair import FullParseRepairer
from repro.linkgrammar import ParseCacheStore, ParseOptions, Parser
from repro.linkgrammar import parser as parser_module
from repro.linkgrammar.lexicon import default_dictionary
from repro.linkgrammar.repair import SentenceRepairer
from repro.linkgrammar.tokenizer import tokenize
from repro.ontology.domains import default_ontology
from repro.simulation import ErrorClass, ErrorInjector, SentenceGenerator

_ERROR_CLASSES = [
    ErrorClass.ARTICLE_DROP,
    ErrorClass.AGREEMENT,
    ErrorClass.WORD_ORDER,
    ErrorClass.UNKNOWN_WORD,
]


def _injected_traffic() -> dict[str, ErrorClass]:
    """Seeded statements and questions, each broken by every error class."""
    texts: dict[str, ErrorClass] = {}
    for seed in (0, 1, 2):
        generator = SentenceGenerator(default_ontology(), seed=seed)
        injector = ErrorInjector(seed=seed)
        sources = [generator.correct_statement().text for _ in range(5)]
        sources += [generator.question().text for _ in range(3)]
        for source in sources:
            for error in _ERROR_CLASSES:
                result = injector.inject(source, error)
                if result.injected:
                    texts.setdefault(result.text, error)
    return texts


TRAFFIC = _injected_traffic()

_DICTIONARY = default_dictionary()
_VOCABULARY = [w for w in _DICTIONARY.words() if w.replace("'", "").isalpha()]
_PSEUDO_WORDS = ["blorf", "zkag", "fnord"]

CACHE_SETUPS = ["private", "shared", "store0", "nocache"]


def _pair(setup: str, **kwargs) -> tuple[SentenceRepairer, FullParseRepairer]:
    """(gated, oracle) repairers over one dictionary in a cache setup.

    In the ``shared`` setup both attach to the dictionary's shared store,
    so each also serves the other's cached counts and parses.
    """
    if setup == "private":
        extra = {}
    elif setup == "shared":
        extra = {"cache_store": _DICTIONARY.shared_cache_store()}
    elif setup == "store0":
        extra = {"cache_store": ParseCacheStore(0)}
    else:
        extra = {"options": ParseOptions(max_linkages=8, cache_size=0)}
    return (
        SentenceRepairer(_DICTIONARY, **extra, **kwargs),
        FullParseRepairer(_DICTIONARY, **extra, **kwargs),
    )


@pytest.fixture(scope="module", params=CACHE_SETUPS)
def repairers(request):
    return _pair(request.param)


def _assert_same_repairs(gated, oracle, text):
    # Gated first, so in the shared setup the oracle sees the gate's
    # count and parse entries; the second round is served warm.
    for _ in range(2):
        assert gated.repair(text) == oracle.repair(text), text


class TestDifferential:
    def test_traffic_covers_every_error_class(self):
        assert set(TRAFFIC.values()) == set(_ERROR_CLASSES)
        assert any(text.endswith("?") for text in TRAFFIC)
        assert len(TRAFFIC) >= 60

    @pytest.mark.parametrize("text", TRAFFIC)
    def test_injected_traffic(self, repairers, text):
        _assert_same_repairs(*repairers, text)

    @pytest.mark.parametrize("setup", CACHE_SETUPS)
    @given(
        words=st.lists(st.sampled_from(_VOCABULARY), min_size=1, max_size=6),
        pseudo=st.one_of(st.none(), st.tuples(st.sampled_from(_PSEUDO_WORDS), st.integers(0, 6))),
        terminator=st.sampled_from([".", "?", ""]),
    )
    @settings(max_examples=25, deadline=None)
    def test_drawn_word_sequences(self, setup, words, pseudo, terminator):
        if pseudo is not None:
            word, position = pseudo
            words = words[:position] + [word] + words[position:]
        gated, oracle = _pair(setup)
        _assert_same_repairs(gated, oracle, " ".join(words) + terminator)

    @pytest.mark.parametrize("setup", CACHE_SETUPS)
    @pytest.mark.parametrize(
        "text", ["The stack blorf is full.", "We push blorf element onto the stack."]
    )
    def test_candidate_cap_counts_only_known_word_candidates(self, setup, text):
        # Unknown-word candidates come first here and the repair comes
        # later, so a cap that also counted them would cut it off.
        probe = SentenceRepairer(_DICTIONARY)
        sentence = tokenize(text)
        words = list(sentence.words)
        baseline = probe.parser.parse(sentence)
        trouble = probe._trouble_spots(baseline, len(words))
        candidates = list(
            dict.fromkeys(c for c, _ in probe._candidates(words, sentence.terminator, trouble))
        )
        unknown = [
            c for c in candidates
            if not all(map(_DICTIONARY.is_known, tokenize(c).words))
        ]
        assert len(candidates) > 12
        assert unknown and candidates.index(unknown[0]) == 0
        for cap in range(1, 13):
            gated, oracle = _pair(setup, max_candidates=cap)
            _assert_same_repairs(gated, oracle, text)


class _CountingSession(parser_module._ParseSession):
    """A parse session that logs its construction and driver calls."""

    log: list["_CountingSession"] = []

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls: list[tuple[str, int | None]] = []
        self.zero_count: int | None = None
        _CountingSession.log.append(self)

    def count_at(self, nulls: int) -> int:
        self.calls.append(("count_at", nulls))
        value = super().count_at(nulls)
        if nulls == 0:
            self.zero_count = value
        return value

    def linkages_at(self, nulls: int):
        self.calls.append(("linkages_at", nulls))
        return super().linkages_at(nulls)

    def run(self):
        self.calls.append(("run", None))
        return super().run()


@pytest.fixture
def sessions(monkeypatch):
    _CountingSession.log = []
    monkeypatch.setattr(parser_module, "_ParseSession", _CountingSession)
    return _CountingSession.log


class TestWorkCounts:
    @pytest.mark.parametrize(
        "text", ["The blorf stacks is full.", "The stacks is full.", "tree have pop", "Stack full is."]
    )
    @pytest.mark.parametrize("cache_size", [0, 256])
    def test_gated_repair_does_only_usable_work(self, sessions, text, cache_size):
        repairer = SentenceRepairer(
            _DICTIONARY, options=ParseOptions(max_linkages=8, cache_size=cache_size)
        )  # a private, cold store
        repairer.repair(text)
        baseline, *candidates = sessions
        assert baseline.sentence.words == tokenize(text).words
        built = [s.sentence.words for s in candidates]
        # One session per distinct candidate, and none for unknown words.
        assert len(built) == len(set(built))
        assert all(all(map(_DICTIONARY.is_known, words)) for words in built)
        gated = [s for s in candidates if s.zero_count == 0]
        survivors = [s for s in candidates if s.zero_count]
        assert gated and len(gated) + len(survivors) == len(candidates)
        for session in gated:
            # No null search, no linkage enumeration.
            assert session.calls == [("count_at", 0)]
        for session in survivors:
            # The gate's count memo is reused by run() on the same session.
            assert session.calls[:2] == [("count_at", 0), ("run", None)]
            assert ("linkages_at", 0) in session.calls

    def test_unknown_word_candidates_build_no_session(self, sessions):
        repairer = SentenceRepairer(_DICTIONARY, options=ParseOptions(max_linkages=8, cache_size=0))
        repairer.repair("The blorf holds the data.")
        assert len(sessions) > 1
        for session in sessions[1:]:
            assert "blorf" not in session.sentence.words


class TestParseComplete:
    SENTENCES = [
        "We push an element onto the stack.",
        "The stacks is full.",
        "tree have pop",
        "The stack holds blorf.",
        "",
    ]

    @pytest.mark.parametrize("cache_size", [0, 256])
    @pytest.mark.parametrize("text", SENTENCES)
    def test_equals_parse_or_none(self, text, cache_size):
        options = ParseOptions(cache_size=cache_size)
        full = Parser(_DICTIONARY, options).parse(text)
        gated = Parser(_DICTIONARY, options)
        for _ in range(2):  # cold, then warm
            got = gated.parse_complete(text)
            if full.null_count == 0:
                assert got == full
            else:
                assert got is None

    def test_cached_zero_count_builds_no_session(self, sessions):
        parser = Parser(_DICTIONARY)
        assert parser.count_linkages("tree have pop", 0) == 0
        built = len(sessions)
        assert parser.parse_complete("tree have pop") is None
        assert len(sessions) == built

    def test_cached_parse_builds_no_session(self, sessions):
        parser = Parser(_DICTIONARY)
        full = parser.parse("The stacks is full.")
        built = len(sessions)
        assert parser.parse_complete("The stacks is full.") is None
        assert parser.parse_complete("the stacks is full") is None
        parser.parse("The stack is full.")
        assert parser.parse_complete("the stack is full!").linkages
        assert len(sessions) == built + 1
        assert full.null_count > 0

    def test_survivor_builds_one_session_and_warms_parse(self, sessions):
        store = ParseCacheStore()
        parser = Parser(_DICTIONARY, cache_store=store)
        result = parser.parse_complete("The stack is full.")
        assert result is not None and result.null_count == 0
        assert len(sessions) == 1 and ("run", None) in sessions[0].calls
        assert store.parse_entries == 1 and store.count_entries == 1
        hits = store.hits
        assert parser.parse("The stack is full.") == result
        assert store.hits == hits + 1
        assert len(sessions) == 1

    def test_gated_out_sentence_stores_only_its_count(self):
        store = ParseCacheStore()
        parser = Parser(_DICTIONARY, cache_store=store)
        assert parser.parse_complete("tree have pop") is None
        assert store.parse_entries == 0 and store.count_entries == 1
        assert parser.count_linkages("tree have pop", 0) == 0
        assert store.hits == 1


class TestVariantCacheScoping:
    SENTENCES = ["The element was queue.", "I queue the element."]

    def test_long_lived_repairer_sees_later_definitions(self):
        dictionary = default_dictionary()
        long_lived = SentenceRepairer(dictionary)
        before = [long_lived.repair(s) for s in self.SENTENCES]
        dictionary.define("queued", dictionary.lookup_exact("pushed").formula)
        fresh = SentenceRepairer(dictionary)
        after = [long_lived.repair(s) for s in self.SENTENCES]
        assert after == [fresh.repair(s) for s in self.SENTENCES]
        assert "The element was queued." in [r.text for r in after[0]]
        assert [r.text for r in after[1]] == ["I queued the element."]
        assert before[1] == []
