"""The link-grammar parser: counting and enumerating linkages.

This implements the Sleator & Temperley region-counting algorithm the paper
builds on (section 2.1), extended with the *null word* tolerance the paper
requires of its "enhanced" parser (section 5: the original parser "fails to
focus on the ability of fault tolerance"; ours parses around errors and
reports the unlinkable words).

Algorithm
---------
``count(L, R, le, re, nulls)`` counts the ways to complete the region strictly
between boundary word indices ``L`` and ``R``:

* ``le`` — the remaining right-pointing connectors of word ``L``
  (farthest-partner-first) that must link to interior words;
* ``re`` — the remaining left-pointing connectors of word ``R``
  (farthest-partner-first), likewise;
* ``nulls`` — exactly this many interior words stay unlinked.

Decomposition: when ``le`` is non-empty, the partner ``W`` of ``le[0]``
(L's farthest link) splits the region; planarity walls the two sides off
from each other, so the count is a product of sub-region counts, summed
over interior words ``W``, disjuncts of ``W`` and null splits.  When ``le``
is empty, the partner of ``re[0]`` splits the region symmetrically.  When
both are empty, every interior word must be null (no disconnected islands
are allowed — the connectivity meta-rule).  Each planar, connected,
correctly-ordered linkage is generated by exactly one decomposition path,
so counting and enumeration agree.

``@`` multi-connectors may serve several links: when one participates in a
link it may either be consumed or retained for further, nearer partners.

Performance architecture
------------------------
The region recursion runs entirely over **interned connector ids** (see
:mod:`repro.linkgrammar.interning`): memo keys are tuples of small ints, a
match probe is one frozenset membership test, and power pruning intersects
id sets instead of re-running the subscript string rule.  Each word's
surviving disjuncts are additionally indexed by their first (farthest)
connector, so the inner loop of the region decomposition only visits
disjuncts that can possibly anchor the split link (fast-match).  On top of
the per-sentence memoisation, :class:`Parser` keeps a bounded LRU cache of
whole-sentence results keyed by the token sequence and the dictionary
generation — classroom traffic is template-heavy, so repeated sentences
(across learners and rounds) cost one dict lookup.  Cache behaviour is
controlled by :class:`ParseOptions` (``cache_size``, ``prune``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from .cache import ParseCacheStore
from .dictionary import Dictionary, WALL_WORD, WordEntry
from .disjunct import Disjunct
from .interning import InternedDisjunct, ParseTables
from .linkage import Link, Linkage
from .tokenizer import TokenizedSentence, tokenize

_Ids = tuple[int, ...]
_EMPTY: _Ids = ()
_NO_DISJUNCTS: tuple[InternedDisjunct, ...] = ()


@dataclass(frozen=True, slots=True)
class ParseOptions:
    """Knobs for a parse run.

    Attributes:
        max_null_count: largest number of unlinked words to tolerate before
            giving up; the parser tries 0 nulls, then 1, and so on.
        max_linkages: cap on the number of linkages to enumerate.
        use_wall: prepend the virtual left wall when the dictionary has one.
        cache_size: bound of the parser-level LRU sentence cache (entries);
            0 disables whole-sentence caching entirely.  Cached results are
            keyed by token sequence and dictionary generation, so mutating
            the dictionary never serves stale parses.
        prune: run power pruning before counting.  Pruning is sound (it
            only removes disjuncts that cannot take part in any linkage),
            so this knob exists for the parity test suite and for
            debugging, not for correctness tuning.
    """

    max_null_count: int | None = None
    max_linkages: int = 64
    use_wall: bool = True
    cache_size: int = 256
    prune: bool = True


@dataclass(frozen=True, slots=True)
class ParseResult:
    """Outcome of parsing one sentence.

    Attributes:
        sentence: the tokenised input.
        words: the word sequence actually parsed (wall included if used).
        linkages: enumerated linkages, best (fewest nulls, cheapest) first.
        null_count: nulls in the best parse; 0 means fully grammatical.
        unknown_words: input tokens missing from the dictionary.
        total_count: total number of linkages at the chosen null level
            (may exceed ``len(linkages)`` when capped).
        has_wall: True when ``words[0]`` is the virtual wall.
    """

    sentence: TokenizedSentence
    words: tuple[str, ...]
    linkages: tuple[Linkage, ...]
    null_count: int
    unknown_words: tuple[str, ...]
    total_count: int
    has_wall: bool

    @property
    def is_grammatical(self) -> bool:
        """True when a full linkage exists and every word is known."""
        return bool(self.linkages) and self.null_count == 0 and not self.unknown_words

    @property
    def best(self) -> Linkage | None:
        """The top-ranked linkage, if any."""
        return self.linkages[0] if self.linkages else None

    def null_word_indices(self) -> frozenset[int]:
        """Word positions unlinked in the best parse (empty if no parse)."""
        if not self.linkages:
            return frozenset(range(len(self.words)))
        return self.linkages[0].null_words


@dataclass(frozen=True, slots=True)
class _Partial:
    """A partially assembled linkage for one region."""

    links: tuple[Link, ...] = ()
    assignment: tuple[tuple[int, Disjunct], ...] = ()
    nulls: frozenset[int] = frozenset()

    def merge(self, other: "_Partial") -> "_Partial":
        return _Partial(
            links=self.links + other.links,
            assignment=self.assignment + other.assignment,
            nulls=self.nulls | other.nulls,
        )

    def with_link(self, link: Link) -> "_Partial":
        return _Partial(links=self.links + (link,), assignment=self.assignment, nulls=self.nulls)

    def with_word(self, index: int, disjunct: Disjunct) -> "_Partial":
        return _Partial(
            links=self.links,
            assignment=self.assignment + ((index, disjunct),),
            nulls=self.nulls,
        )


class Parser:
    """Parses sentences against a :class:`Dictionary`.

    A parser instance is reusable; besides per-sentence memo tables it
    keeps two bounded LRU caches (see ``ParseOptions.cache_size``):

    * a **sentence cache** for :meth:`parse`, keyed by the token sequence;
    * a **count cache** for :meth:`count_linkages`, keyed the same way
      plus the requested null level.

    :meth:`parse_complete` reads both: it stores its zero-null count in
    the count cache and only the results that pass into the sentence cache.

    Both live in a :class:`~repro.linkgrammar.cache.ParseCacheStore` —
    private by default, or passed in via ``cache_store`` so several
    parsers over the same dictionary (the analyzer, the repairer) share
    one store.  The store is scoped to the dictionary generation and
    every key carries this parser's options fingerprint, so sharing is
    always sound: parsers with different knobs never serve each other's
    results.

    Cache hits are bit-identical to cold parses (asserted by the parity
    test suite); only the ``sentence`` field is re-attached so callers
    still see their own raw text.  :meth:`cache_info` exposes hit/miss
    counters for the perf harness.
    """

    def __init__(
        self,
        dictionary: Dictionary,
        options: ParseOptions | None = None,
        cache_store: ParseCacheStore | None = None,
    ) -> None:
        self.dictionary = dictionary
        self.options = options or ParseOptions()
        self.cache_store = (
            cache_store if cache_store is not None else ParseCacheStore(self.options.cache_size)
        )
        o = self.options
        self._fingerprint = (o.max_null_count, o.max_linkages, o.use_wall, o.prune)

    # ----------------------------------------------------------------- API

    def parse(self, text: str | TokenizedSentence) -> ParseResult:
        """Parse one sentence, trying successively larger null counts."""
        sentence = tokenize(text) if isinstance(text, str) else text
        if self.options.cache_size <= 0:
            return _ParseSession(self.dictionary, sentence, self.options).run()
        store = self.cache_store
        store.sync_generation(self.dictionary.version)
        key = (sentence.words, self._fingerprint)
        cached = store.get_parse(key)
        if cached is not None:
            if cached.sentence == sentence:
                return cached
            # Same tokens from different raw text (case, punctuation):
            # the linkages are identical, only the sentence differs.
            return replace(cached, sentence=sentence)
        result = _ParseSession(self.dictionary, sentence, self.options).run()
        store.put_parse(key, result)
        return result

    def parse_complete(self, text: str | TokenizedSentence) -> ParseResult | None:
        """:meth:`parse`, but only when the sentence parses with zero nulls.

        Returns the same result :meth:`parse` would, or ``None`` when that
        result would have nulls.  The zero-null count gates the work:
        :meth:`_ParseSession.run` tries 0 nulls first, so it yields a
        zero-null result iff ``count_at(0) > 0``, and a sentence that fails
        the gate never runs the null search or enumerates linkages.  The
        count is read from and stored under the :meth:`count_linkages`
        key; a survivor reuses the gating session's count memo and enters
        the sentence cache exactly as :meth:`parse` would store it.
        """
        sentence = tokenize(text) if isinstance(text, str) else text
        if self.options.cache_size <= 0:
            session = _ParseSession(self.dictionary, sentence, self.options)
            if session.count_at(0) == 0:
                return None
            result = session.run()
            return result if result.null_count == 0 else None
        store = self.cache_store
        store.sync_generation(self.dictionary.version)
        key = (sentence.words, self._fingerprint)
        cached = store.get_parse(key)
        if cached is not None:
            if cached.null_count != 0:
                return None
            return cached if cached.sentence == sentence else replace(cached, sentence=sentence)
        count_key = (sentence.words, 0, self._fingerprint)
        count = store.get_count(count_key)
        if count == 0:
            return None
        session = _ParseSession(self.dictionary, sentence, self.options)
        if count is None:
            count = session.count_at(0)
            store.put_count(count_key, count)
            if count == 0:
                return None
        result = session.run()
        store.put_parse(key, result)
        # Only a negative max_null_count, which skips zero nulls, fails this.
        return result if result.null_count == 0 else None

    def count_linkages(self, text: str | TokenizedSentence, nulls: int = 0) -> int:
        """Number of linkages with exactly ``nulls`` unlinked words."""
        sentence = tokenize(text) if isinstance(text, str) else text
        if self.options.cache_size <= 0:
            return _ParseSession(self.dictionary, sentence, self.options).count_at(nulls)
        store = self.cache_store
        store.sync_generation(self.dictionary.version)
        key = (sentence.words, nulls, self._fingerprint)
        cached = store.get_count(key)
        if cached is not None:
            return cached
        value = _ParseSession(self.dictionary, sentence, self.options).count_at(nulls)
        store.put_count(key, value)
        return value

    # --------------------------------------------------------------- cache

    @property
    def cache_hits(self) -> int:
        """Hits of the attached store (store-wide when shared)."""
        return self.cache_store.hits

    @property
    def cache_misses(self) -> int:
        """Misses of the attached store (store-wide when shared)."""
        return self.cache_store.misses

    def cache_info(self) -> dict[str, int]:
        """Hit/miss counters and current cache sizes (for the perf harness)."""
        store = self.cache_store
        return {
            "hits": store.hits,
            "misses": store.misses,
            "parse_entries": store.parse_entries,
            "count_entries": store.count_entries,
            "cache_size": self.options.cache_size,
        }

    def clear_caches(self) -> None:
        """Drop all cached sentence results and counters."""
        self.cache_store.clear()


class _ParseSession:
    """One sentence's parse state: word entries, memo tables, enumeration.

    All region work happens over interned connector ids; original
    :class:`Connector`/:class:`Disjunct` objects are only touched when a
    linkage is materialised.
    """

    def __init__(self, dictionary: Dictionary, sentence: TokenizedSentence, options: ParseOptions) -> None:
        self.dictionary = dictionary
        self.tables: ParseTables = dictionary.tables
        self.sentence = sentence
        self.options = options
        self.words: list[str] = []
        self.unknown: list[str] = []
        self._disjuncts: list[tuple[InternedDisjunct, ...]] = []
        self._count_memo: dict[tuple, int] = {}
        # (word, probe id) -> surviving disjuncts that can anchor there.
        self._left_cand: dict[tuple[int, int], tuple[InternedDisjunct, ...]] = {}
        self._right_cand: dict[tuple[int, int], tuple[InternedDisjunct, ...]] = {}
        wall = dictionary.wall_entry
        use_wall = options.use_wall and wall is not None
        if use_wall:
            self.words.append(WALL_WORD)
            self._disjuncts.append(self.tables.interned(wall.word))
        self.has_wall = use_wall
        for token in sentence.words:
            self.words.append(token)
            entry = self._entry_for(token)
            self._disjuncts.append(
                self.tables.interned(entry.word) if entry is not None else _NO_DISJUNCTS
            )
        self.boundary = len(self.words)  # virtual right boundary index
        if options.prune:
            self._prune_disjuncts()

    def _entry_for(self, token: str) -> WordEntry | None:
        if not self.dictionary.is_known(token):
            self.unknown.append(token)
        return self.dictionary.lookup(token)

    def _prune_disjuncts(self) -> None:
        """Power pruning: drop disjuncts whose connectors cannot match.

        A disjunct of word ``w`` is only viable when each of its left
        connectors can match some right-pointing connector offered by a
        word before ``w``, and symmetrically for its right connectors
        (the virtual right boundary offers nothing).  Removing a disjunct
        can invalidate others, so iterate to a fixed point.  Pruning is
        sound: removed disjuncts cannot take part in any linkage.

        Instead of probing each connector against each offer, the sweep
        unions precomputed match-table rows into per-position *matchable*
        sets (``ok_minus[w]``: every ``-`` id satisfiable by some word
        before ``w``), so each survival probe is one set membership test.
        The union grows incrementally: a connector id contributes its
        match row only the first time it is offered.
        """
        n = self.boundary
        if n == 0:
            return
        match_left = self.tables.match_left
        match_right = self.tables.match_right
        changed = True
        while changed:
            changed = False
            # ok_minus[w]: minus ids matchable by words strictly before w.
            ok_minus: list[frozenset[int]] = [frozenset()] * (n + 1)
            offered: set[int] = set()
            matchable: set[int] = set()
            for w in range(1, n + 1):
                for disjunct in self._disjuncts[w - 1]:
                    for c in disjunct.right:
                        if c not in offered:
                            offered.add(c)
                            matchable |= match_right[c]
                ok_minus[w] = frozenset(matchable)
            # ok_plus[w]: plus ids matchable by words at or after w.
            ok_plus: list[frozenset[int]] = [frozenset()] * (n + 1)
            offered = set()
            matchable = set()
            for w in range(n - 1, -1, -1):
                for disjunct in self._disjuncts[w]:
                    for c in disjunct.left:
                        if c not in offered:
                            offered.add(c)
                            matchable |= match_left[c]
                ok_plus[w] = frozenset(matchable)
            for w in range(n):
                before = ok_minus[w]
                after = ok_plus[w + 1]
                kept = [
                    disjunct
                    for disjunct in self._disjuncts[w]
                    if disjunct.left_set <= before and disjunct.right_set <= after
                ]
                if len(kept) != len(self._disjuncts[w]):
                    self._disjuncts[w] = tuple(kept)
                    changed = True

    # ---------------------------------------------------------- fast-match

    def _left_candidates(self, word: int, probe: int) -> tuple[InternedDisjunct, ...]:
        """Disjuncts of ``word`` whose farthest left connector matches the
        ``+`` probe id (the only ones that can anchor a left split)."""
        key = (word, probe)
        got = self._left_cand.get(key)
        if got is None:
            matches = self.tables.match_right[probe]
            got = tuple(
                d for d in self._disjuncts[word] if d.left and d.left[0] in matches
            )
            self._left_cand[key] = got
        return got

    def _right_candidates(self, word: int, probe: int) -> tuple[InternedDisjunct, ...]:
        """Disjuncts of ``word`` whose farthest right connector matches the
        ``-`` probe id."""
        key = (word, probe)
        got = self._right_cand.get(key)
        if got is None:
            matches = self.tables.match_left[probe]
            got = tuple(
                d for d in self._disjuncts[word] if d.right and d.right[0] in matches
            )
            self._right_cand[key] = got
        return got

    # ------------------------------------------------------------ counting

    def count_at(self, nulls: int) -> int:
        """Linkages of the whole sentence with exactly ``nulls`` null words."""
        n = self.boundary
        if n == 0:
            return 1 if nulls == 0 else 0
        total = 0
        for first in range(0, min(nulls, n - 1) + 1):
            for disjunct in self._disjuncts[first]:
                if disjunct.left:
                    continue
                total += self._count(first, n, disjunct.right, _EMPTY, nulls - first)
        if nulls == n:
            total += 1
        return total

    def _count(self, left: int, right: int, le: _Ids, re: _Ids, nulls: int) -> int:
        if nulls < 0:
            return 0
        key = (left, right, le, re, nulls)
        cached = self._count_memo.get(key)
        if cached is not None:
            return cached
        value = self._count_uncached(left, right, le, re, nulls)
        self._count_memo[key] = value
        return value

    def _count_uncached(self, left: int, right: int, le: _Ids, re: _Ids, nulls: int) -> int:
        if right == left + 1:
            return 1 if (not le and not re and nulls == 0) else 0
        if not le and not re:
            # No boundary connectors remain: interior words would form
            # disconnected islands, so they must all be null words.
            return 1 if nulls == right - left - 1 else 0
        total = 0
        if le:
            probe = le[0]
            for word in range(left + 1, right):
                for disjunct in self._left_candidates(word, probe):
                    total += self._count_left_anchored(left, right, le, re, nulls, word, disjunct)
        else:
            probe = re[0]
            for word in range(left + 1, right):
                for disjunct in self._right_candidates(word, probe):
                    total += self._count_right_anchored(left, right, re, nulls, word, disjunct)
        return total

    def _count_left_anchored(
        self,
        left: int,
        right: int,
        le: _Ids,
        re: _Ids,
        nulls: int,
        word: int,
        disjunct: InternedDisjunct,
    ) -> int:
        """Decompose on the link between ``left`` and ``word`` via ``le[0]``.

        The caller guarantees ``disjunct.left[0]`` matches ``le[0]``.
        """
        both_possible = (
            bool(re)
            and bool(disjunct.right)
            and re[0] in self.tables.match_right[disjunct.right[0]]
        )
        multi = self.tables.multi
        total = 0
        for left_nulls in range(nulls + 1):
            right_nulls = nulls - left_nulls
            left_ways = 0
            for sub_le, sub_dl in _multi_variants(le, disjunct.left, multi):
                left_ways += self._count(left, word, sub_le, sub_dl, left_nulls)
            if left_ways == 0:
                continue
            total += left_ways * self._count(word, right, disjunct.right, re, right_nulls)
            if both_possible:
                for sub_dr, sub_re in _multi_variants(disjunct.right, re, multi):
                    total += left_ways * self._count(word, right, sub_dr, sub_re, right_nulls)
        return total

    def _count_right_anchored(
        self,
        left: int,
        right: int,
        re: _Ids,
        nulls: int,
        word: int,
        disjunct: InternedDisjunct,
    ) -> int:
        """Decompose on the link between ``word`` and ``right`` via ``re[0]``.

        The caller guarantees ``disjunct.right[0]`` matches ``re[0]``.
        """
        multi = self.tables.multi
        total = 0
        for left_nulls in range(nulls + 1):
            right_nulls = nulls - left_nulls
            right_ways = 0
            for sub_dr, sub_re in _multi_variants(disjunct.right, re, multi):
                right_ways += self._count(word, right, sub_dr, sub_re, right_nulls)
            if right_ways == 0:
                continue
            total += self._count(left, word, _EMPTY, disjunct.left, left_nulls) * right_ways
        return total

    # --------------------------------------------------------- enumeration

    def linkages_at(self, nulls: int) -> Iterator[Linkage]:
        """Enumerate full-sentence linkages with exactly ``nulls`` nulls."""
        n = self.boundary
        if n == 0:
            if nulls == 0:
                yield self._build_linkage(_Partial(), frozenset())
            return
        for first in range(0, min(nulls, n - 1) + 1):
            for disjunct in self._disjuncts[first]:
                if disjunct.left:
                    continue
                if self._count(first, n, disjunct.right, _EMPTY, nulls - first) == 0:
                    continue
                prefix_nulls = frozenset(range(first))
                for partial in self._extract(first, n, disjunct.right, _EMPTY, nulls - first):
                    seeded = partial.with_word(first, disjunct.source)
                    yield self._build_linkage(seeded, prefix_nulls)
        if nulls == n:
            yield self._build_linkage(_Partial(), frozenset(range(n)))

    def _build_linkage(self, partial: _Partial, extra_nulls: frozenset[int]) -> Linkage:
        assignment: dict[int, Disjunct] = dict(partial.assignment)
        disjuncts = tuple(assignment.get(i) for i in range(self.boundary))
        cost = sum(d.cost for d in assignment.values())
        return Linkage(
            words=tuple(self.words),
            links=tuple(sorted(partial.links, key=lambda l: (l.left, l.right))),
            disjuncts=disjuncts,
            cost=cost,
            null_words=partial.nulls | extra_nulls,
        )

    def _extract(
        self, left: int, right: int, le: _Ids, re: _Ids, nulls: int
    ) -> Iterator[_Partial]:
        """Yield every partial linkage counted by ``_count`` for this region."""
        if self._count(left, right, le, re, nulls) == 0:
            return
        if right == left + 1:
            yield _Partial()
            return
        if not le and not re:
            yield _Partial(nulls=frozenset(range(left + 1, right)))
            return
        if le:
            probe = le[0]
            for word in range(left + 1, right):
                for disjunct in self._left_candidates(word, probe):
                    yield from self._extract_left_anchored(left, right, le, re, nulls, word, disjunct)
        else:
            probe = re[0]
            for word in range(left + 1, right):
                for disjunct in self._right_candidates(word, probe):
                    yield from self._extract_right_anchored(left, right, re, nulls, word, disjunct)

    def _extract_left_anchored(
        self,
        left: int,
        right: int,
        le: _Ids,
        re: _Ids,
        nulls: int,
        word: int,
        disjunct: InternedDisjunct,
    ) -> Iterator[_Partial]:
        connectors = self.tables.connectors
        multi = self.tables.multi
        anchor = Link.from_connectors(
            left, word, connectors[le[0]], connectors[disjunct.left[0]]
        )
        both_possible = (
            bool(re)
            and bool(disjunct.right)
            and re[0] in self.tables.match_right[disjunct.right[0]]
        )
        for left_nulls in range(nulls + 1):
            right_nulls = nulls - left_nulls
            left_parts = []
            for sub_le, sub_dl in _multi_variants(le, disjunct.left, multi):
                if self._count(left, word, sub_le, sub_dl, left_nulls) == 0:
                    continue
                left_parts.extend(self._extract(left, word, sub_le, sub_dl, left_nulls))
            if not left_parts:
                continue
            if self._count(word, right, disjunct.right, re, right_nulls) > 0:
                for right_part in self._extract(word, right, disjunct.right, re, right_nulls):
                    for left_part in left_parts:
                        combined = left_part.merge(right_part).with_link(anchor)
                        yield combined.with_word(word, disjunct.source)
            if both_possible:
                bridge = Link.from_connectors(
                    word, right, connectors[disjunct.right[0]], connectors[re[0]]
                )
                for sub_dr, sub_re in _multi_variants(disjunct.right, re, multi):
                    if self._count(word, right, sub_dr, sub_re, right_nulls) == 0:
                        continue
                    for right_part in self._extract(word, right, sub_dr, sub_re, right_nulls):
                        for left_part in left_parts:
                            combined = left_part.merge(right_part).with_link(anchor).with_link(bridge)
                            yield combined.with_word(word, disjunct.source)

    def _extract_right_anchored(
        self,
        left: int,
        right: int,
        re: _Ids,
        nulls: int,
        word: int,
        disjunct: InternedDisjunct,
    ) -> Iterator[_Partial]:
        connectors = self.tables.connectors
        multi = self.tables.multi
        anchor = Link.from_connectors(
            word, right, connectors[disjunct.right[0]], connectors[re[0]]
        )
        for left_nulls in range(nulls + 1):
            right_nulls = nulls - left_nulls
            if self._count(left, word, _EMPTY, disjunct.left, left_nulls) == 0:
                continue
            for sub_dr, sub_re in _multi_variants(disjunct.right, re, multi):
                if self._count(word, right, sub_dr, sub_re, right_nulls) == 0:
                    continue
                for right_part in self._extract(word, right, sub_dr, sub_re, right_nulls):
                    for left_part in self._extract(left, word, _EMPTY, disjunct.left, left_nulls):
                        combined = left_part.merge(right_part).with_link(anchor)
                        yield combined.with_word(word, disjunct.source)

    # -------------------------------------------------------------- driver

    def run(self) -> ParseResult:
        max_nulls = self.options.max_null_count
        if max_nulls is None:
            max_nulls = self.boundary
        best_nulls = -1
        total = 0
        for nulls in range(0, max_nulls + 1):
            total = self.count_at(nulls)
            if total > 0:
                best_nulls = nulls
                break
        linkages: list[Linkage] = []
        if best_nulls >= 0:
            for linkage in self.linkages_at(best_nulls):
                linkages.append(linkage)
                if len(linkages) >= max(self.options.max_linkages * 4, 256):
                    break
            linkages.sort(key=lambda l: (l.sort_key(), l.link_summary()))
            linkages = linkages[: self.options.max_linkages]
        return ParseResult(
            sentence=self.sentence,
            words=tuple(self.words),
            linkages=tuple(linkages),
            null_count=best_nulls if best_nulls >= 0 else self.boundary,
            unknown_words=tuple(dict.fromkeys(self.unknown)),
            total_count=total,
            has_wall=self.has_wall,
        )


def _multi_variants(plus_list: _Ids, minus_list: _Ids, multi: list[bool]):
    """Sub-list pairs after a match between ``plus_list[0]`` and ``minus_list[0]``.

    A ``@`` multi-connector may stay in its list to accept further (nearer)
    partners; a plain connector is consumed.  Yields (remaining_plus,
    remaining_minus) pairs, most-consumed first for determinism.
    """
    plus_multi = multi[plus_list[0]]
    minus_multi = multi[minus_list[0]]
    yield plus_list[1:], minus_list[1:]
    if plus_multi:
        yield plus_list, minus_list[1:]
    if minus_multi:
        yield plus_list[1:], minus_list
    if plus_multi and minus_multi:
        yield plus_list, minus_list
