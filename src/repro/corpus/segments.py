"""Disk segment tier for the learner corpus: frozen mmap-backed columns.

At the 10^6-record scale the ROADMAAP targets, even the columnar in-RAM
layout of :mod:`repro.corpus.records` eventually outgrows the heap.  The
corpus is append-only apart from bounded shard-merge tail rewrites, so
the classic LSM shape fits exactly:

* :class:`SegmentWriter` **freezes the immutable prefix** of a
  :class:`~repro.corpus.records.RecordStore` (plus the matching posting
  prefixes of its :class:`~repro.corpus.index.CorpusIndex`) into one
  immutable on-disk *segment file* — CRC-framed header + vocabulary
  dump, then the raw column arrays and delta posting runs, each section
  8-aligned and CRC-checked;
* :class:`FrozenSegment` opens a segment ``mmap``-backed and read-only,
  exposing the same decode surface as ``RecordStore`` (so
  :class:`~repro.corpus.records.RecordView` works unchanged against it)
  plus per-family frozen posting runs — nothing is materialised, every
  read is a page-cache hit on a zero-copy ``memoryview`` cast;
* :class:`SegmentedCorpus` is a drop-in
  :class:`~repro.corpus.store.LearnerCorpus` keeping a **hot in-RAM
  tail** and a list of frozen segments, with :class:`TieredColumns` /
  :class:`TieredIndex` facades that route positional reads to the
  owning tier and splice posting runs into :class:`TieredPostings` —
  suggestion search, the QA corpus fallback and the statistic analyzer
  stream across RAM+disk without knowing the boundary exists.

Crash semantics (``docs/corpus.md`` has the full lifecycle): a segment
is written to a ``*.seg.tmp`` sibling, fsynced, then atomically
``os.replace``d into place — a crash mid-write leaves only an ignorable
tmp file (unlinked on the next writer construction), and a torn or
corrupt segment file never loads (:class:`SegmentLoadError` covers every
framing, CRC and alignment failure).  Freeze boundaries are journaled by
the durability layer (``repro.durability.manager``), so recovery either
replays a freeze deterministically — same base, same count, same bytes,
atomically overwriting any orphan from a crash between rename and WAL
append — or skips it idempotently.
"""

from __future__ import annotations

import json
import mmap
import os
import zlib
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Iterable, Iterator

from repro.durability.faults import NO_FAULTS
from repro.durability.wal import HEADER_LENGTH, encode_frame

from .index import (
    _SKIP,
    CorpusIndex,
    IndexConfig,
    PostingList,
    intersect_count,
    intersect_iter,
)
from .records import (
    _CACHE_LIMIT,
    CODE_FOR_VERDICT,
    CORRECT_CODE,
    VERDICT_FOR_CODE,
    Correctness,
    CorpusRecord,
    CorpusVocabularies,
    RecordStore,
    RecordView,
)
from .store import CORPUS_COLUMNAR_FORMAT, LearnerCorpus

#: Format tag inside every segment file's header frame.
SEGMENT_FORMAT = "repro-corpus-segment/1"

#: Format tag of the snapshot document a :class:`SegmentedCorpus` emits:
#: segment *references* plus the in-RAM tail's columns.
CORPUS_SEGMENTED_FORMAT = "repro-corpus-segmented/1"

SEGMENT_SUFFIX = ".seg"
TMP_SUFFIX = ".seg.tmp"


class SegmentLoadError(ValueError):
    """A segment file failed to open or verify (torn, corrupt, missing,
    misaligned).  Loaders treat it as "this segment does not exist"."""


class FrozenTailError(ValueError):
    """A mutation tried to rewrite rows already frozen to disk.  The
    frozen prefix is immutable by construction; callers merging into a
    segmented corpus must fork at or above the freeze boundary."""


#: Per-record scalar columns: (section name, array typecode).  Section
#: names are the ``RecordStore`` attribute names without the underscore
#: (see :meth:`RecordStore.freeze_prefix`).
_SCALAR_SECTIONS = (
    ("record_ids", "I"),
    ("user_ids", "I"),
    ("room_ids", "I"),
    ("pattern_ids", "I"),
    ("link_ids", "I"),
    ("timestamps", "d"),
    ("verdicts", "B"),
    ("costs", "i"),
)

#: Variable-length id runs: (flat section, offset-table section).  The
#: issue offsets table is shared by the kind and word runs.
_RUN_SECTIONS = (
    ("token_ids", "token_offsets"),
    ("kw_ids", "kw_offsets"),
    ("raw_kw_ids", "raw_kw_offsets"),
    ("issue_kind_ids", "issue_offsets"),
    ("issue_word_ids", "issue_offsets"),
    ("note_ids", "note_offsets"),
)

#: Posting families persisted per segment.  ``tokens``/``keywords``/
#: ``users`` are keyed by interned term ids, ``verdicts`` by the stable
#: verdict byte codes.
_POSTING_FAMILIES = ("tokens", "keywords", "users", "verdicts")


def _read_frame(buffer, offset: int) -> tuple[bytes, int]:
    """Decode one WAL-style CRC frame at ``offset``; returns
    ``(payload, end_offset)``.  Any framing problem — truncation, bad
    separators, CRC mismatch — raises :class:`SegmentLoadError`, which
    is what guarantees a torn segment file never loads."""
    header = bytes(buffer[offset : offset + HEADER_LENGTH])
    if len(header) < HEADER_LENGTH or header[8:9] != b" " or header[17:18] != b" ":
        raise SegmentLoadError("truncated or malformed frame header")
    try:
        length = int(header[0:8], 16)
        crc = int(header[9:17], 16)
    except ValueError as exc:
        raise SegmentLoadError(f"malformed frame header: {header!r}") from exc
    start = offset + HEADER_LENGTH
    end = start + length
    payload = bytes(buffer[start:end])
    if len(payload) < length or bytes(buffer[end : end + 1]) != b"\n":
        raise SegmentLoadError("torn frame")
    if zlib.crc32(payload) != crc:
        raise SegmentLoadError("frame CRC mismatch")
    return payload, end + 1


class FrozenPostings:
    """One term's posting run inside a frozen segment: zero-copy
    ``memoryview('I')`` slices of the segment's gap and skip arrays,
    with the same read surface as
    :class:`~repro.corpus.index.PostingList` (positions are local to
    the segment; :class:`TieredPostings` rebases them globally).  The
    duck-typed ``_gaps``/``_skips`` attributes make
    :func:`~repro.corpus.index.intersect_iter` gallop over frozen runs
    unchanged."""

    __slots__ = ("_gaps", "_skips")

    def __init__(self, gaps, skips) -> None:
        self._gaps = gaps
        self._skips = skips

    def __len__(self) -> int:
        return len(self._gaps)

    def __bool__(self) -> bool:
        return len(self._gaps) > 0

    def __iter__(self) -> Iterator[int]:
        position = 0
        for gap in self._gaps:
            position += gap
            yield position

    @property
    def last(self) -> int:
        """The largest (segment-local) position; -1 when empty."""
        gaps = self._gaps
        if not len(gaps):
            return -1
        skips = self._skips
        block = len(skips) - 1
        position = skips[block]
        for i in range(block * _SKIP + 1, len(gaps)):
            position += gaps[i]
        return position

    @property
    def gaps(self):
        return self._gaps

    def positions(self) -> tuple[int, ...]:
        return tuple(self)

    def accumulate_into(self, counts: dict[int, int]) -> None:
        position = 0
        get = counts.get
        for gap in self._gaps:
            position += gap
            counts[position] = get(position, 0) + 1

    def nbytes(self) -> int:
        return self._gaps.nbytes + self._skips.nbytes


class _FrozenTexts:
    """The text column of a frozen segment: one UTF-8 blob plus a byte
    offset table, decoded per access — list-indexing compatible with
    ``RecordStore._texts`` so the shared decode helpers work."""

    __slots__ = ("_blob", "_offsets")

    def __init__(self, blob, offsets) -> None:
        self._blob = blob
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, position: int) -> str:
        start = self._offsets[position]
        end = self._offsets[position + 1]
        return bytes(self._blob[start:end]).decode("utf-8")


class FrozenSegment:
    """One immutable on-disk segment, ``mmap``-backed and read-only.

    Exposes the :class:`~repro.corpus.records.RecordStore` decode
    surface over segment-*local* positions (``0 <= local < count``) so
    :class:`~repro.corpus.records.RecordView` binds to it unchanged,
    plus per-family posting lookups.  ``vocabs`` is normally the
    corpus's live shared vocabularies (term ids are append-only, so the
    ids a segment froze stay valid forever); opened standalone, the
    vocabulary dump embedded in the file is restored instead.
    """

    def __init__(self, path: str | Path, vocabs: CorpusVocabularies | None = None) -> None:
        self.path = Path(path)
        self._file = None
        self._mm = None
        self._exports: list = []
        self._raw: dict = {}
        self._closed = False
        try:
            self._file = open(self.path, "rb")
            self._mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            self.close()
            raise SegmentLoadError(
                f"cannot map segment {self.path.name}: {exc}"
            ) from exc
        try:
            self._load(vocabs)
        except SegmentLoadError:
            self.close()
            raise
        except Exception as exc:
            self.close()
            raise SegmentLoadError(f"segment {self.path.name}: {exc}") from exc

    # -------------------------------------------------------------- loading

    def _load(self, vocabs: CorpusVocabularies | None) -> None:
        mm = self._mm
        header_payload, offset = _read_frame(mm, 0)
        vocab_payload, offset = _read_frame(mm, offset)
        header = json.loads(header_payload)
        if header.get("format") != SEGMENT_FORMAT:
            raise SegmentLoadError(f"not a {SEGMENT_FORMAT} file")
        self.base = int(header["base"])
        self.count = int(header["count"])
        if self.base < 0 or self.count < 0:
            raise SegmentLoadError("negative base or count")
        blob_start = offset + (-offset) % 8
        root = memoryview(mm)
        self._exports.append(root)
        for name, (rel, length, crc) in header["sections"].items():
            start = blob_start + rel
            end = start + length
            if not 0 <= rel or end > len(mm):
                raise SegmentLoadError(f"section {name} out of bounds")
            view = root[start:end]
            # Register the export *before* validating: a raise below
            # keeps this frame alive via the traceback, and close() must
            # still be able to release the view and unmap the file.
            self._exports.append(view)
            if zlib.crc32(view) != crc:
                raise SegmentLoadError(f"section {name} CRC mismatch")
            self._raw[name] = view
        if vocabs is None:
            vocabs = CorpusVocabularies()
            vocabs.restore(json.loads(vocab_payload))
        self.vocabs = vocabs
        count = self.count

        def section(name: str, typecode: str):
            view = self._raw.get(name)
            if view is None:
                raise SegmentLoadError(f"section {name} missing")
            if typecode:
                itemsize = array(typecode).itemsize
                if len(view) % itemsize:
                    raise SegmentLoadError(f"section {name} misaligned")
                view = view.cast(typecode)
                self._exports.append(view)
            return view

        for name, typecode in _SCALAR_SECTIONS:
            view = section(name, typecode)
            if len(view) != count:
                raise SegmentLoadError(f"column {name} misaligned with count")
            setattr(self, "_" + name, view)
        for offsets_name in dict.fromkeys(off for _, off in _RUN_SECTIONS):
            view = section(offsets_name, "I")
            if len(view) != count + 1 or view[0] != 0:
                raise SegmentLoadError(f"offset table {offsets_name} malformed")
            setattr(self, "_" + offsets_name, view)
        for flat_name, offsets_name in _RUN_SECTIONS:
            view = section(flat_name, "I")
            if len(view) != getattr(self, "_" + offsets_name)[-1]:
                raise SegmentLoadError(f"column {flat_name} misaligned with its offsets")
            setattr(self, "_" + flat_name, view)
        text_offsets = section("text_offsets", "I")
        blob = section("text_blob", "")
        if (
            len(text_offsets) != count + 1
            or text_offsets[0] != 0
            or text_offsets[-1] != len(blob)
        ):
            raise SegmentLoadError("text sections misaligned")
        self._texts = _FrozenTexts(blob, text_offsets)
        self._postings_tables: dict[str, tuple] = {}
        for family in _POSTING_FAMILIES:
            terms = section(f"{family}_terms", "I")
            offs = section(f"{family}_offsets", "I")
            skip_offs = section(f"{family}_skip_offsets", "I")
            gaps = section(f"{family}_gaps", "I")
            skips = section(f"{family}_skips", "I")
            if (
                len(offs) != len(terms) + 1
                or len(skip_offs) != len(terms) + 1
                or offs[0] != 0
                or skip_offs[0] != 0
                or offs[-1] != len(gaps)
                or skip_offs[-1] != len(skips)
            ):
                raise SegmentLoadError(f"posting family {family} misaligned")
            self._postings_tables[family] = (terms, offs, skip_offs, gaps, skips)
        # Bounded memo caches, same policy as RecordStore.
        self._views: dict[int, RecordView] = {}
        self._token_set_cache: dict[int, frozenset[str]] = {}
        self._keyword_set_cache: dict[int, frozenset[str]] = {}
        self._text_cache: dict[int, str] = {}
        self.disk_bytes = len(mm)

    def close(self) -> None:
        """Release every exported view, the map and the file handle.
        Idempotent; reads after close raise."""
        if self._closed:
            return
        self._closed = True
        # Casts were exported after their parent views: release in
        # reverse creation order, root view last (exported-buffer rule).
        for view in reversed(self._exports):
            view.release()
        self._exports = []
        self._raw = {}
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __len__(self) -> int:
        return self.count

    # ----------------------------------------- RecordStore decode surface

    def view(self, position: int) -> RecordView:
        view = self._views.get(position)
        if view is None:
            if len(self._views) >= _CACHE_LIMIT:
                self._views.clear()
            view = self._views[position] = RecordView(self, position)
        return view

    def materialize(self, position: int) -> CorpusRecord:
        vocabs = self.vocabs
        return CorpusRecord(
            record_id=self._record_ids[position],
            user=vocabs.users.terms[self._user_ids[position]],
            room=vocabs.rooms.terms[self._room_ids[position]],
            text=self._texts[position],
            timestamp=self._timestamps[position],
            pattern=vocabs.patterns.terms[self._pattern_ids[position]],
            verdict=VERDICT_FOR_CODE[self._verdicts[position]],
            syntax_issues=self.syntax_issues_at(position),
            semantic_issues=self.semantic_issues_at(position),
            keywords=self.keywords_at(position),
            links=vocabs.links.terms[self._link_ids[position]],
            cost=self._costs[position],
        )

    def to_dict(self, position: int) -> dict:
        vocabs = self.vocabs
        return {
            "record_id": self._record_ids[position],
            "user": vocabs.users.terms[self._user_ids[position]],
            "room": vocabs.rooms.terms[self._room_ids[position]],
            "text": self._texts[position],
            "timestamp": self._timestamps[position],
            "pattern": vocabs.patterns.terms[self._pattern_ids[position]],
            "verdict": VERDICT_FOR_CODE[self._verdicts[position]].value,
            "syntax_issues": [list(pair) for pair in self.syntax_issues_at(position)],
            "semantic_issues": self.semantic_issues_at(position),
            "keywords": self.keywords_at(position),
            "links": vocabs.links.terms[self._link_ids[position]],
            "cost": self._costs[position],
        }

    def text_at(self, position: int) -> str:
        # Decoded-text memo, same bounded policy as the set caches: the
        # in-RAM store hands back an already-built str, and the scoring
        # loops re-read the same hot candidates — paying the UTF-8
        # decode once keeps the frozen tier's point reads competitive.
        cached = self._text_cache.get(position)
        if cached is None:
            if len(self._text_cache) >= _CACHE_LIMIT:
                self._text_cache.clear()
            cached = self._text_cache[position] = self._texts[position]
        return cached

    def record_id_at(self, position: int) -> int:
        return self._record_ids[position]

    def verdict_code_at(self, position: int) -> int:
        return self._verdicts[position]

    def pattern_id_at(self, position: int) -> int:
        return self._pattern_ids[position]

    def user_id_at(self, position: int) -> int:
        return self._user_ids[position]

    def token_id_run(self, position: int):
        return self._token_ids[
            self._token_offsets[position] : self._token_offsets[position + 1]
        ]

    def keyword_id_run(self, position: int):
        return self._kw_ids[
            self._kw_offsets[position] : self._kw_offsets[position + 1]
        ]

    def raw_keyword_id_run(self, position: int):
        return self._raw_kw_ids[
            self._raw_kw_offsets[position] : self._raw_kw_offsets[position + 1]
        ]

    def issue_kind_id_run(self, position: int):
        return self._issue_kind_ids[
            self._issue_offsets[position] : self._issue_offsets[position + 1]
        ]

    def note_count(self, position: int) -> int:
        return self._note_offsets[position + 1] - self._note_offsets[position]

    def token_set(self, position: int) -> frozenset[str]:
        cached = self._token_set_cache.get(position)
        if cached is None:
            if len(self._token_set_cache) >= _CACHE_LIMIT:
                self._token_set_cache.clear()
            terms = self.vocabs.tokens.terms
            cached = self._token_set_cache[position] = frozenset(
                terms[token_id] for token_id in self.token_id_run(position)
            )
        return cached

    def keyword_set(self, position: int) -> frozenset[str]:
        cached = self._keyword_set_cache.get(position)
        if cached is None:
            if len(self._keyword_set_cache) >= _CACHE_LIMIT:
                self._keyword_set_cache.clear()
            terms = self.vocabs.keywords.terms
            cached = self._keyword_set_cache[position] = frozenset(
                terms[keyword_id] for keyword_id in self.keyword_id_run(position)
            )
        return cached

    def keywords_at(self, position: int) -> list[str]:
        terms = self.vocabs.raw_keywords.terms
        return [terms[keyword_id] for keyword_id in self.raw_keyword_id_run(position)]

    def syntax_issues_at(self, position: int) -> list[tuple[str, str]]:
        kinds = self.vocabs.issue_kinds.terms
        words = self.vocabs.tokens.terms
        start = self._issue_offsets[position]
        end = self._issue_offsets[position + 1]
        kind_ids = self._issue_kind_ids
        word_ids = self._issue_word_ids
        return [(kinds[kind_ids[i]], words[word_ids[i]]) for i in range(start, end)]

    def semantic_issues_at(self, position: int) -> list[str]:
        notes = self.vocabs.notes.terms
        return [
            notes[note_id]
            for note_id in self._note_ids[
                self._note_offsets[position] : self._note_offsets[position + 1]
            ]
        ]

    # ----------------------------------------------------------- postings

    def postings(self, family: str, key: int) -> FrozenPostings | None:
        """The frozen posting run of ``key`` in ``family`` (local
        positions), or None when the term has no postings here."""
        terms, offs, skip_offs, gaps, skips = self._postings_tables[family]
        i = bisect_left(terms, key)
        if i >= len(terms) or terms[i] != key:
            return None
        return FrozenPostings(
            gaps[offs[i] : offs[i + 1]], skips[skip_offs[i] : skip_offs[i + 1]]
        )

    def df(self, family: str, key: int) -> int:
        """Document frequency of ``key`` within this segment (0 when
        absent) — an offset-table subtraction, no run decode."""
        terms, offs, _skip_offs, _gaps, _skips = self._postings_tables[family]
        i = bisect_left(terms, key)
        if i >= len(terms) or terms[i] != key:
            return 0
        return offs[i + 1] - offs[i]

    def family_terms(self, family: str):
        """The sorted term keys carrying postings in ``family``."""
        return self._postings_tables[family][0]

    def postings_stats(self) -> dict[str, int]:
        """Per-segment counterpart of ``CorpusIndex.stats()``'s size
        accounting (the verdict byte column counts as payload, exactly
        like the in-RAM index's dense code array)."""
        terms = postings = payload = 0
        for _family, (t, _offs, _skip_offs, gaps, skips) in self._postings_tables.items():
            terms += len(t)
            postings += len(gaps)
            payload += gaps.nbytes + skips.nbytes
        return {"terms": terms, "postings": postings, "payload_bytes": payload + self.count}


def validate_segment_file(path: str | Path) -> dict[str, int]:
    """Open-and-verify ``path`` (every frame and section CRC-checked);
    returns ``{"base", "count"}`` or raises :class:`SegmentLoadError`."""
    segment = FrozenSegment(path)
    try:
        return {"base": segment.base, "count": segment.count}
    finally:
        segment.close()


class SegmentWriter:
    """Writes (and compacts) immutable segment files crash-atomically.

    Every write goes to a ``*.seg.tmp`` sibling, is flushed + fsynced,
    then ``os.replace``d to its final ``segment-<base>-<count>.seg``
    name — a reader can never observe a half-written segment under the
    final name, and construction unlinks any stale tmp files a crashed
    writer left behind.  ``faults`` (a durability
    :class:`~repro.durability.faults.FaultClock`) steps the
    ``segment.freeze.*`` / ``segment.compact.*`` boundaries so the
    crash sweep can kill the process at each one.
    """

    def __init__(self, directory: str | Path, faults=None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.faults = faults if faults is not None else NO_FAULTS
        for stale in self.directory.glob("*" + TMP_SUFFIX):
            stale.unlink()

    @staticmethod
    def segment_name(base: int, count: int) -> str:
        return f"segment-{base:012d}-{count:012d}{SEGMENT_SUFFIX}"

    def freeze(
        self,
        base: int,
        count: int,
        store: RecordStore,
        index: CorpusIndex,
        vocabs: CorpusVocabularies,
    ) -> FrozenSegment:
        """Freeze the first ``count`` records of ``store``/``index``
        (tail-local positions) into a segment starting at global
        position ``base``; returns the opened segment."""
        sections = store.freeze_prefix(count)
        tables = {
            "tokens": index._tokens,
            "keywords": index._keywords,
            "users": index._users,
            "verdicts": {
                CODE_FOR_VERDICT[verdict]: postings
                for verdict, postings in index._by_verdict.items()
            },
        }
        for family, table in tables.items():
            self._posting_sections(sections, family, table, count)
        return self._write(base, count, sections, vocabs, "segment.freeze")

    def compact(
        self, segments: list[FrozenSegment], vocabs: CorpusVocabularies
    ) -> FrozenSegment:
        """Merge contiguous frozen segments into one: columns are byte
        concatenations (offset tables rebased), posting runs re-encoded
        over the merged local position space."""
        if len(segments) < 2:
            raise ValueError("compaction needs at least two segments")
        base = segments[0].base
        count = sum(segment.count for segment in segments)
        expected = base
        for segment in segments:
            if segment.base != expected:
                raise ValueError(
                    f"segments are not contiguous at base {segment.base}"
                )
            expected += segment.count
        sections: dict[str, bytes] = {}
        for name, _typecode in _SCALAR_SECTIONS:
            sections[name] = b"".join(bytes(seg._raw[name]) for seg in segments)
        offset_names = tuple(dict.fromkeys(off for _, off in _RUN_SECTIONS))
        for offsets_name in offset_names + ("text_offsets",):
            merged = array("I", [0])
            for seg in segments:
                table = (
                    seg._texts._offsets
                    if offsets_name == "text_offsets"
                    else getattr(seg, "_" + offsets_name)
                )
                shift = merged[-1]
                merged.extend(value + shift for value in table[1:])
            sections[offsets_name] = merged.tobytes()
        for flat_name in tuple(name for name, _ in _RUN_SECTIONS) + ("text_blob",):
            sections[flat_name] = b"".join(bytes(seg._raw[flat_name]) for seg in segments)
        for family in _POSTING_FAMILIES:
            table: dict[int, PostingList] = {}
            for seg in segments:
                shift = seg.base - base
                for key in seg.family_terms(family):
                    postings = table.get(key)
                    if postings is None:
                        postings = table[key] = PostingList()
                    for local in seg.postings(family, key):
                        postings.append(shift + local)
            self._posting_sections(sections, family, table, count)
        return self._write(base, count, sections, vocabs, "segment.compact")

    @staticmethod
    def _posting_sections(
        sections: dict[str, bytes], family: str, table: dict, upto: int
    ) -> None:
        """Append one posting family's five sections: sorted term keys,
        per-term gap/skip extents, and the concatenated gap and skip
        runs, each term's run cut at local position ``upto`` via the
        skip-table-assisted :meth:`PostingList.prefix_length`."""
        terms = array("I")
        offsets = array("I", [0])
        skip_offsets = array("I", [0])
        gaps = array("I")
        skips = array("I")
        for key in sorted(table):
            postings = table[key]
            taken = postings.prefix_length(upto)
            if taken == 0:
                continue
            terms.append(key)
            gaps.extend(postings._gaps[:taken])
            offsets.append(len(gaps))
            skips.extend(postings._skips[: (taken + _SKIP - 1) // _SKIP])
            skip_offsets.append(len(skips))
        sections[f"{family}_terms"] = terms.tobytes()
        sections[f"{family}_offsets"] = offsets.tobytes()
        sections[f"{family}_skip_offsets"] = skip_offsets.tobytes()
        sections[f"{family}_gaps"] = gaps.tobytes()
        sections[f"{family}_skips"] = skips.tobytes()

    def _write(
        self,
        base: int,
        count: int,
        sections: dict[str, bytes],
        vocabs: CorpusVocabularies,
        prefix: str,
    ) -> FrozenSegment:
        faults = self.faults
        faults.step(prefix + ".begin")
        header_sections: dict[str, list[int]] = {}
        blob = bytearray()
        for name in sorted(sections):
            payload = sections[name]
            blob += b"\x00" * ((-len(blob)) % 8)
            header_sections[name] = [len(blob), len(payload), zlib.crc32(payload)]
            blob += payload
        header = {
            "format": SEGMENT_FORMAT,
            "base": base,
            "count": count,
            "sections": header_sections,
        }
        lead = encode_frame(
            json.dumps(header, separators=(",", ":")).encode("utf-8")
        ) + encode_frame(
            json.dumps(
                vocabs.dump(), ensure_ascii=False, separators=(",", ":")
            ).encode("utf-8")
        )
        data = lead + b"\x00" * ((-len(lead)) % 8) + bytes(blob)
        path = self.directory / self.segment_name(base, count)
        tmp = self.directory / (path.name + ".tmp")
        with open(tmp, "wb") as handle:
            if faults.active:
                # Leave the torn-tmp boundary as a real on-disk state,
                # exactly like the WAL's split append.
                half = len(data) // 2
                handle.write(data[:half])
                handle.flush()
                faults.step(prefix + ".torn")
                handle.write(data[half:])
            else:
                handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        faults.step(prefix + ".written")
        os.replace(tmp, path)
        faults.step(prefix + ".committed")
        return FrozenSegment(path, vocabs)


class TieredPostings:
    """One term's postings spliced across tiers: an ordered tuple of
    ``(global_base, run)`` parts (frozen segments first, then the hot
    tail), presenting the global-position read surface of
    :class:`~repro.corpus.index.PostingList`.  Iteration, accumulation
    and the ``gaps`` stream rebase each part's local running sum by its
    base — nothing is merged or materialised."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[tuple[int, object]]) -> None:
        self._parts = tuple(parts)

    @property
    def parts(self) -> tuple:
        """The ``(base, run)`` splice, ascending bases, no empty runs."""
        return self._parts

    def __len__(self) -> int:
        return sum(len(part) for _base, part in self._parts)

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __iter__(self) -> Iterator[int]:
        for base, part in self._parts:
            position = base
            for gap in part._gaps:
                position += gap
                yield position

    def positions(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def last(self) -> int:
        if not self._parts:
            return -1
        base, part = self._parts[-1]
        return base + part.last

    @property
    def gaps(self):
        """Global delta stream (first gap absolute, like PostingList):
        consumers folding their own running sum — the budgeted capped
        walk — decode across tier boundaries without noticing them."""

        def stream():
            previous = 0
            for base, part in self._parts:
                local = 0
                for gap in part._gaps:
                    local += gap
                    yield base + local - previous
                    previous = base + local

        return stream()

    def accumulate_into(self, counts: dict[int, int]) -> None:
        get = counts.get
        for base, part in self._parts:
            position = base
            for gap in part._gaps:
                position += gap
                counts[position] = get(position, 0) + 1

    def nbytes(self) -> int:
        return sum(part.nbytes() for _base, part in self._parts)


def intersect_tiered_iter(a: TieredPostings, b: TieredPostings) -> Iterator[int]:
    """Stream the ascending intersection of two tiered posting runs.

    Both sides must come from the *same* corpus (same freeze
    boundaries), so any shared position lives in the part with the same
    base on both sides; each shared base runs the plain galloping
    :func:`~repro.corpus.index.intersect_iter` over its local runs."""
    other = {base: part for base, part in b.parts}
    for base, part in a.parts:
        match = other.get(base)
        if match is None:
            continue
        for local in intersect_iter(part, match):
            yield base + local


def intersect_tiered_count(a: TieredPostings, b: TieredPostings) -> int:
    count = 0
    for _position in intersect_tiered_iter(a, b):
        count += 1
    return count


def union_tiered_iter(a: TieredPostings, b: TieredPostings) -> Iterator[int]:
    """Stream the ascending, deduplicated union of two tiered runs — a
    two-pointer merge of the global iterators."""
    ia, ib = iter(a), iter(b)
    va = next(ia, None)
    vb = next(ib, None)
    while va is not None and vb is not None:
        if va < vb:
            yield va
            va = next(ia, None)
        elif vb < va:
            yield vb
            vb = next(ib, None)
        else:
            yield va
            va = next(ia, None)
            vb = next(ib, None)
    while va is not None:
        yield va
        va = next(ia, None)
    while vb is not None:
        yield vb
        vb = next(ib, None)


class TieredColumns:
    """The :class:`~repro.corpus.records.RecordStore` read surface over
    a segmented corpus: global positions route to the owning tier
    (bisect over the frozen segment bases, tail past the freeze
    boundary).  Holds only the corpus reference, so it stays valid
    across freezes and compactions."""

    __slots__ = (
        "_corpus",
        "_span_lo",
        "_span_hi",
        "_span_store",
        "_span_epoch",
        "_rows",
        "_rows_epoch",
    )

    def __init__(self, corpus: "SegmentedCorpus") -> None:
        self._corpus = corpus
        self._span_lo = 0
        self._span_hi = 0
        self._span_store = None
        self._span_epoch = -1
        self._rows: dict[int, tuple] = {}
        self._rows_epoch = -1

    def __len__(self) -> int:
        corpus = self._corpus
        return corpus._frozen_len + len(corpus._store)

    @property
    def vocabs(self) -> CorpusVocabularies:
        return self._corpus._vocabs

    def _locate(self, position: int) -> tuple[object, int]:
        """(owning tier, tier-local position) for a global position.

        Point reads arrive in segment-local runs (posting walks and the
        scoring scan go in ascending position order), so the last hit
        segment's span is memoised and re-checked before the bisect;
        ``_tier_epoch`` bumps on every freeze/compact/restore, which
        invalidates the memo without the facade holding segment refs.
        """
        corpus = self._corpus
        if position >= corpus._frozen_len:
            return corpus._store, position - corpus._frozen_len
        if (
            self._span_epoch == corpus._tier_epoch
            and self._span_lo <= position < self._span_hi
        ):
            return self._span_store, position - self._span_lo
        i = bisect_right(corpus._segment_bases, position) - 1
        segment = corpus._segments[i]
        base = segment.base
        self._span_lo = base
        self._span_hi = base + segment.count
        self._span_store = segment
        self._span_epoch = corpus._tier_epoch
        return segment, position - base

    def view(self, position: int) -> RecordView:
        store, local = self._locate(position)
        return store.view(local)

    def materialize(self, position: int) -> CorpusRecord:
        store, local = self._locate(position)
        return store.materialize(local)

    def to_dict(self, position: int) -> dict:
        store, local = self._locate(position)
        return store.to_dict(local)

    # The four accessors below are the scoring loop's per-candidate
    # reads (SuggestionSearch.find touches each once per candidate).
    # A hit on the frozen-row memo costs one dict get — the same price
    # the in-RAM columnar store charges — instead of a tier dispatch
    # plus the owning segment's own memo.

    def _frozen_row(self, position: int) -> tuple:
        """``(record_id, text, token_set, keyword_set)`` of a frozen
        row, memoised at the facade under the *global* position.

        The scoring loop reads all four per candidate through separate
        accessors, so one locate fills them together.  Frozen rows are
        immutable; the memo only invalidates wholesale when the tier
        layout changes (``_tier_epoch``), with the same bounded
        clear-on-overflow policy as the segment-level caches.
        """
        corpus = self._corpus
        rows = self._rows
        if self._rows_epoch != corpus._tier_epoch:
            rows.clear()
            self._rows_epoch = corpus._tier_epoch
        elif len(rows) >= _CACHE_LIMIT:
            rows.clear()
        store, local = self._locate(position)
        row = rows[position] = (
            store.record_id_at(local),
            store.text_at(local),
            store.token_set(local),
            store.keyword_set(local),
        )
        return row

    def text_at(self, position: int) -> str:
        corpus = self._corpus
        if position >= corpus._frozen_len:
            return corpus._store.text_at(position - corpus._frozen_len)
        row = self._rows.get(position)
        if row is not None and self._rows_epoch == corpus._tier_epoch:
            return row[1]
        return self._frozen_row(position)[1]

    def record_id_at(self, position: int) -> int:
        corpus = self._corpus
        if position >= corpus._frozen_len:
            return corpus._store.record_id_at(position - corpus._frozen_len)
        row = self._rows.get(position)
        if row is not None and self._rows_epoch == corpus._tier_epoch:
            return row[0]
        return self._frozen_row(position)[0]

    def verdict_code_at(self, position: int) -> int:
        store, local = self._locate(position)
        return store.verdict_code_at(local)

    def pattern_id_at(self, position: int) -> int:
        store, local = self._locate(position)
        return store.pattern_id_at(local)

    def user_id_at(self, position: int) -> int:
        store, local = self._locate(position)
        return store.user_id_at(local)

    def token_id_run(self, position: int):
        store, local = self._locate(position)
        return store.token_id_run(local)

    def keyword_id_run(self, position: int):
        store, local = self._locate(position)
        return store.keyword_id_run(local)

    def raw_keyword_id_run(self, position: int):
        store, local = self._locate(position)
        return store.raw_keyword_id_run(local)

    def issue_kind_id_run(self, position: int):
        store, local = self._locate(position)
        return store.issue_kind_id_run(local)

    def note_count(self, position: int) -> int:
        store, local = self._locate(position)
        return store.note_count(local)

    def token_set(self, position: int) -> frozenset[str]:
        corpus = self._corpus
        if position >= corpus._frozen_len:
            return corpus._store.token_set(position - corpus._frozen_len)
        row = self._rows.get(position)
        if row is not None and self._rows_epoch == corpus._tier_epoch:
            return row[2]
        return self._frozen_row(position)[2]

    def keyword_set(self, position: int) -> frozenset[str]:
        corpus = self._corpus
        if position >= corpus._frozen_len:
            return corpus._store.keyword_set(position - corpus._frozen_len)
        row = self._rows.get(position)
        if row is not None and self._rows_epoch == corpus._tier_epoch:
            return row[3]
        return self._frozen_row(position)[3]

    def keywords_at(self, position: int) -> list[str]:
        store, local = self._locate(position)
        return store.keywords_at(local)

    def syntax_issues_at(self, position: int) -> list[tuple[str, str]]:
        store, local = self._locate(position)
        return store.syntax_issues_at(local)

    def semantic_issues_at(self, position: int) -> list[str]:
        store, local = self._locate(position)
        return store.semantic_issues_at(local)


class TieredIndex:
    """The :class:`~repro.corpus.index.CorpusIndex` query surface over
    a segmented corpus.  Point reads route to the owning tier; posting
    queries splice the segment runs and the tail run into a
    :class:`TieredPostings`; DFs sum per-tier counts (a term is indexed
    at most once per record, and tiers partition the records, so sums
    are exact).  Like :class:`TieredColumns`, it holds only the corpus
    reference and survives freezes."""

    __slots__ = ("_corpus", "_span_lo", "_span_hi", "_span_verdicts", "_span_epoch")

    def __init__(self, corpus: "SegmentedCorpus") -> None:
        self._corpus = corpus
        self._span_lo = 0
        self._span_hi = 0
        self._span_verdicts = None
        self._span_epoch = -1

    @property
    def config(self) -> IndexConfig:
        return self._corpus._index.config

    @property
    def vocabularies(self) -> CorpusVocabularies:
        return self._corpus._vocabs

    def __len__(self) -> int:
        corpus = self._corpus
        return corpus._frozen_len + len(corpus._index)

    # ---------------------------------------------------------- plumbing

    def _tiered(self, family: str, key, tail_postings) -> TieredPostings | None:
        corpus = self._corpus
        parts: list[tuple[int, object]] = []
        for segment in corpus._segments:
            postings = segment.postings(family, key)
            if postings:
                parts.append((segment.base, postings))
        if tail_postings:
            parts.append((corpus._frozen_len, tail_postings))
        return TieredPostings(parts) if parts else None

    def _tiered_df(self, family: str, key, tail_postings) -> int:
        corpus = self._corpus
        df = sum(segment.df(family, key) for segment in corpus._segments)
        if tail_postings is not None:
            df += len(tail_postings)
        return df

    # -------------------------------------------------------- point reads

    def _frozen_verdict_code(self, position: int) -> int:
        """Verdict code for a frozen global position, via the same
        last-segment span memo as :meth:`TieredColumns._locate` —
        ``is_correct`` runs once per candidate in the retrieval
        intersection, so this is the hottest frozen point read."""
        corpus = self._corpus
        if (
            self._span_epoch == corpus._tier_epoch
            and self._span_lo <= position < self._span_hi
        ):
            return self._span_verdicts[position - self._span_lo]
        i = bisect_right(corpus._segment_bases, position) - 1
        segment = corpus._segments[i]
        base = segment.base
        self._span_lo = base
        self._span_hi = base + segment.count
        self._span_verdicts = segment._verdicts
        self._span_epoch = corpus._tier_epoch
        return segment._verdicts[position - base]

    def verdict_at(self, position: int) -> Correctness:
        corpus = self._corpus
        if position >= corpus._frozen_len:
            return corpus._index.verdict_at(position - corpus._frozen_len)
        return VERDICT_FOR_CODE[self._frozen_verdict_code(position)]

    def is_correct(self, position: int) -> bool:
        corpus = self._corpus
        if position >= corpus._frozen_len:
            return corpus._index.is_correct(position - corpus._frozen_len)
        if (
            self._span_epoch == corpus._tier_epoch
            and self._span_lo <= position < self._span_hi
        ):
            return self._span_verdicts[position - self._span_lo] == CORRECT_CODE
        return self._frozen_verdict_code(position) == CORRECT_CODE

    # ----------------------------------------------------- posting queries

    def verdict_postings(self, verdict: Correctness) -> TieredPostings | None:
        return self._tiered(
            "verdicts",
            CODE_FOR_VERDICT[verdict],
            self._corpus._index._by_verdict.get(verdict),
        )

    def keyword_postings(self, keyword: str) -> TieredPostings | None:
        corpus = self._corpus
        keyword_id = corpus._vocabs.keywords.id_of(keyword)
        if keyword_id is None:
            return None
        return self._tiered(
            "keywords", keyword_id, corpus._index._keywords.get(keyword_id)
        )

    def token_postings(self, token: str) -> TieredPostings | None:
        corpus = self._corpus
        token_id = corpus._vocabs.tokens.id_of(token)
        if token_id is None:
            return None
        return self._tiered("tokens", token_id, corpus._index._tokens.get(token_id))

    def user_postings(self, user: str) -> TieredPostings | None:
        corpus = self._corpus
        user_id = corpus._vocabs.users.id_of(user)
        if user_id is None:
            return None
        return self._tiered("users", user_id, corpus._index._users.get(user_id))

    def verdict_positions(self, verdict: Correctness) -> tuple[int, ...]:
        postings = self.verdict_postings(verdict)
        return postings.positions() if postings is not None else ()

    def iter_verdict_positions(self, verdict: Correctness) -> Iterator[int]:
        postings = self.verdict_postings(verdict)
        return iter(postings) if postings is not None else iter(())

    def keyword_positions(self, keyword: str) -> tuple[int, ...]:
        postings = self.keyword_postings(keyword)
        return postings.positions() if postings is not None else ()

    def iter_keyword_positions(self, keyword: str) -> Iterator[int]:
        postings = self.keyword_postings(keyword)
        return iter(postings) if postings is not None else iter(())

    def token_positions(self, token: str) -> tuple[int, ...]:
        postings = self.token_postings(token)
        return postings.positions() if postings is not None else ()

    def iter_token_positions(self, token: str) -> Iterator[int]:
        postings = self.token_postings(token)
        return iter(postings) if postings is not None else iter(())

    def user_positions(self, user: str) -> tuple[int, ...]:
        postings = self.user_postings(user)
        return postings.positions() if postings is not None else ()

    def iter_user_positions(self, user: str) -> Iterator[int]:
        postings = self.user_postings(user)
        return iter(postings) if postings is not None else iter(())

    # ------------------------------------------------------- aggregations

    def verdict_counts(self) -> dict[Correctness, int]:
        corpus = self._corpus
        counts: dict[Correctness, int] = {}
        for code, verdict in enumerate(VERDICT_FOR_CODE):
            total = sum(seg.df("verdicts", code) for seg in corpus._segments)
            tail = corpus._index._by_verdict.get(verdict)
            if tail is not None:
                total += len(tail)
            if total:
                counts[verdict] = total
        return counts

    def user_df(self, user: str) -> int:
        corpus = self._corpus
        user_id = corpus._vocabs.users.id_of(user)
        if user_id is None:
            return 0
        return self._tiered_df("users", user_id, corpus._index._users.get(user_id))

    def keyword_df(self, keyword: str) -> int:
        corpus = self._corpus
        keyword_id = corpus._vocabs.keywords.id_of(keyword)
        if keyword_id is None:
            return 0
        return self._tiered_df(
            "keywords", keyword_id, corpus._index._keywords.get(keyword_id)
        )

    def token_df(self, token: str) -> int:
        corpus = self._corpus
        token_id = corpus._vocabs.tokens.id_of(token)
        if token_id is None:
            return 0
        return self._tiered_df("tokens", token_id, corpus._index._tokens.get(token_id))

    def users(self) -> list[str]:
        """Names of every user with at least one record, unsorted (the
        in-RAM index makes the same no-order promise; consumers sort)."""
        corpus = self._corpus
        seen = dict.fromkeys(
            user_id
            for segment in corpus._segments
            for user_id in segment.family_terms("users")
        )
        seen.update(dict.fromkeys(corpus._index._users))
        terms = corpus._vocabs.users.terms
        return [terms[user_id] for user_id in seen]

    def user_verdict_count(self, user: str, verdict: Correctness) -> int:
        corpus = self._corpus
        user_id = corpus._vocabs.users.id_of(user)
        if user_id is None:
            return 0
        code = CODE_FOR_VERDICT[verdict]
        count = corpus._index.user_verdict_count(user, verdict)
        for segment in corpus._segments:
            user_postings = segment.postings("users", user_id)
            verdict_postings = segment.postings("verdicts", code)
            if user_postings and verdict_postings:
                count += intersect_count(user_postings, verdict_postings)
        return count

    def accumulate_correct_keyword_positions(
        self, keyword: str, counts: dict[int, int]
    ) -> None:
        corpus = self._corpus
        keyword_id = corpus._vocabs.keywords.id_of(keyword)
        if keyword_id is None:
            return
        get = counts.get
        for segment in corpus._segments:
            postings = segment.postings("keywords", keyword_id)
            if not postings:
                continue
            codes = segment._verdicts
            base = segment.base
            position = 0
            for gap in postings._gaps:
                position += gap
                if codes[position] == CORRECT_CODE:
                    key = base + position
                    counts[key] = get(key, 0) + 1
        tail = corpus._index._keywords.get(keyword_id)
        if tail is not None:
            codes = corpus._index._verdict_codes
            offset = corpus._frozen_len
            position = 0
            for gap in tail._gaps:
                position += gap
                if codes[position] == CORRECT_CODE:
                    key = offset + position
                    counts[key] = get(key, 0) + 1

    # -------------------------------------------------------------- tiers

    def is_capped_token(self, token: str) -> bool:
        cap = self.config.stopword_df_cap
        return cap is not None and self.token_df(token) > cap

    def split_tokens(self, tokens: Iterable[str]) -> tuple[list[str], list[str]]:
        # Mirror of CorpusIndex.split_tokens over tiered DFs: the DFs
        # sum exactly across tiers, so the (df, token) ordering — and
        # with it retrieval determinism — is identical.
        cap = self.config.stopword_df_cap
        rare: list[tuple[int, str]] = []
        capped: list[tuple[int, str]] = []
        for token in set(tokens):
            df = self.token_df(token)
            if df == 0:
                continue
            (capped if cap is not None and df > cap else rare).append((df, token))
        rare.sort()
        capped.sort()
        return [token for _, token in rare], [token for _, token in capped]

    # ---------------------------------------------------------- diagnostics

    def stats(self) -> dict[str, int]:
        corpus = self._corpus
        tail = corpus._index.stats()
        terms = tail["terms"]
        postings = tail["postings"]
        payload = tail["payload_bytes"]
        for segment in corpus._segments:
            segment_stats = segment.postings_stats()
            terms += segment_stats["terms"]
            postings += segment_stats["postings"]
            payload += segment_stats["payload_bytes"]
        cap = self.config.stopword_df_cap
        capped = 0
        if cap is not None:
            token_ids = dict.fromkeys(
                token_id
                for segment in corpus._segments
                for token_id in segment.family_terms("tokens")
            )
            token_ids.update(dict.fromkeys(corpus._index._tokens))
            for token_id in token_ids:
                df = sum(seg.df("tokens", token_id) for seg in corpus._segments)
                tail_postings = corpus._index._tokens.get(token_id)
                if tail_postings is not None:
                    df += len(tail_postings)
                if df > cap:
                    capped += 1
        return {
            "records": corpus._frozen_len + len(corpus._store),
            "terms": terms,
            "postings": postings,
            "payload_bytes": payload,
            "capped_tokens": capped,
        }


class SegmentedCorpus(LearnerCorpus):
    """A :class:`~repro.corpus.store.LearnerCorpus` with a disk tier.

    Records past the freeze boundary live in immutable mmap-backed
    :class:`FrozenSegment` files; the hot tail stays in the in-RAM
    columnar store.  All inherited query methods work unchanged — the
    ``columns``/``index`` properties hand back the tiered facades, and
    global positions, record ids and posting positions are identical to
    a plain corpus fed the same records (the differential harness
    asserts this bit-for-bit across 200 seeds).

    Args:
        index_config: knobs for the tail's :class:`CorpusIndex`.
        segment_records: freeze cadence — ``maybe_freeze`` (and, when
            ``auto_freeze`` is on, every ``add``) freezes once the tail
            reaches this many records.
        directory: where segment files live; ``None`` creates an owned
            temporary directory removed on :meth:`close`.
        faults: durability :class:`~repro.durability.faults.FaultClock`
            stepping the freeze/compact crash boundaries.
        auto_freeze: freeze from ``add`` at the cadence.  The serving
            system leaves this off and calls :meth:`maybe_freeze` at
            drain barriers instead, so freezes never interleave with an
            open shard-merge barrier.
    """

    def __init__(
        self,
        index_config: IndexConfig | None = None,
        *,
        segment_records: int = 65536,
        directory: str | Path | None = None,
        faults=None,
        auto_freeze: bool = True,
    ) -> None:
        super().__init__(index_config)
        if segment_records < 1:
            raise ValueError("segment_records must be positive")
        self.segment_records = int(segment_records)
        self._tempdir = None
        if directory is None:
            self._tempdir = TemporaryDirectory(prefix="repro-segments-")
            directory = self._tempdir.name
        self.directory = Path(directory)
        self._writer = SegmentWriter(self.directory, faults=faults)
        self._segments: list[FrozenSegment] = []
        self._segment_bases: list[int] = []
        self._frozen_len = 0
        self.auto_freeze = auto_freeze
        self.evictions_refused = 0
        #: Bumped on every tier-layout change (freeze/compact/restore/
        #: close) — invalidates the facades' last-segment span memos.
        self._tier_epoch = 0
        #: Durability hooks: called with the new segment after a freeze
        #: (so the boundary is WAL-journaled) / after a compaction.
        self.on_freeze = None
        self.on_compact = None
        self._columns_facade: TieredColumns | None = None
        self._index_facade: TieredIndex | None = None

    # ------------------------------------------------------------- facades

    @property
    def columns(self) -> TieredColumns:
        facade = self._columns_facade
        if facade is None:
            facade = self._columns_facade = TieredColumns(self)
        return facade

    @property
    def index(self) -> TieredIndex:
        facade = self._index_facade
        if facade is None:
            facade = self._index_facade = TieredIndex(self)
        return facade

    @property
    def frozen_records(self) -> int:
        """Records frozen to disk (== the global freeze boundary)."""
        return self._frozen_len

    @property
    def segments(self) -> tuple[FrozenSegment, ...]:
        return tuple(self._segments)

    # ------------------------------------------------------------- writing

    def add(
        self, record: CorpusRecord, tokens: tuple[str, ...] | None = None
    ) -> CorpusRecord:
        record = super().add(record, tokens)
        if self.auto_freeze and len(self._store) >= self.segment_records:
            self.freeze()
        return record

    def _evict_tail(self, floor: int) -> None:
        """Refuse to rewrite frozen rows: eviction below the freeze
        boundary raises :class:`FrozenTailError` (counted in
        ``evictions_refused``) with zero state mutated — the satellite
        fix for the in-RAM-only assumption the base method made."""
        if floor < self._frozen_len:
            self.evictions_refused += 1
            raise FrozenTailError(
                f"cannot evict to {floor}: records below {self._frozen_len} are frozen"
            )
        super()._evict_tail(floor - self._frozen_len)

    # ------------------------------------------------------------ freezing

    def freeze(self, upto: int | None = None) -> FrozenSegment | None:
        """Freeze records ``[frozen_records, upto)`` into one segment
        (default: the whole current tail).  The tail store/index are
        rebuilt over the unfrozen remainder; global positions, ids and
        query results are unchanged.  Returns the new segment, or None
        when there is nothing to freeze."""
        total = len(self)
        if upto is None:
            upto = total
        if not self._frozen_len <= upto <= total:
            raise ValueError(
                f"freeze boundary {upto} outside [{self._frozen_len}, {total}]"
            )
        count = upto - self._frozen_len
        if count == 0:
            return None
        segment = self._writer.freeze(
            self._frozen_len, count, self._store, self._index, self._vocabs
        )
        remainder = [
            (self._store.materialize(position), self._store.token_set(position))
            for position in range(count, len(self._store))
        ]
        self._store = RecordStore(self._vocabs)
        self._index = CorpusIndex(self._index.config, vocabularies=self._vocabs)
        for record, token_set in remainder:
            self._ingest(record, token_set)
        self._segments.append(segment)
        self._segment_bases.append(segment.base)
        self._frozen_len = upto
        self._tier_epoch += 1
        # The freeze is a barrier: any in-progress merge bookkeeping
        # referenced tail positions that just moved tiers.
        self._merge_floor = None
        self._merge_keys = []
        if self.on_freeze is not None:
            self.on_freeze(segment)
        return segment

    def maybe_freeze(self) -> FrozenSegment | None:
        """Freeze the tail when it reached the cadence (the drain-barrier
        hook ``ELearningSystem`` calls)."""
        if len(self._store) >= self.segment_records:
            return self.freeze()
        return None

    def freeze_to(self, upto: int) -> FrozenSegment | None:
        """Idempotent replay form: freeze up to ``upto``, or no-op when
        that boundary is already frozen."""
        if upto <= self._frozen_len:
            return None
        return self.freeze(upto)

    def compact(self, *, prune: bool = False) -> FrozenSegment | None:
        """Merge all frozen segments into one.  ``prune`` unlinks the
        old segment files; by default they are kept so snapshots written
        before the compaction stay recoverable until they rotate out."""
        if len(self._segments) <= 1:
            return None
        old = list(self._segments)
        merged = self._writer.compact(old, self._vocabs)
        self._segments = [merged]
        self._segment_bases = [merged.base]
        self._tier_epoch += 1
        removed = [segment.path.name for segment in old]
        for segment in old:
            segment.close()
            if prune and segment.path != merged.path and segment.path.exists():
                segment.path.unlink()
        if self.on_compact is not None:
            self.on_compact(merged, removed)
        return merged

    # --------------------------------------------------------- diagnostics

    def memory_stats(self) -> dict[str, int]:
        """Tail-resident heap accounting plus tier shape.  Disk bytes
        are mmapped, reclaimable page cache — deliberately *not* part of
        ``resident_bytes``, which is what the bench's sublinear-RSS gate
        measures."""
        stats = self._store.memory_stats()
        stats["index_payload_bytes"] = self._index.stats()["payload_bytes"]
        stats["total_bytes"] += stats["index_payload_bytes"]
        stats["tail_records"] = stats["records"]
        stats["records"] = len(self)
        stats["frozen_records"] = self._frozen_len
        stats["segments"] = len(self._segments)
        stats["disk_bytes"] = sum(segment.disk_bytes for segment in self._segments)
        stats["resident_bytes"] = stats["total_bytes"]
        return stats

    # --------------------------------------------------------- persistence

    def to_columnar(self) -> dict:
        """Snapshot document: segment *references* (file, base, count)
        plus the tail's columns — a snapshot never copies frozen data."""
        return {
            "format": CORPUS_SEGMENTED_FORMAT,
            "records": len(self),
            "segment_records": self.segment_records,
            "vocabularies": self._vocabs.dump(),
            "segments": [
                {"file": segment.path.name, "base": segment.base, "count": segment.count}
                for segment in self._segments
            ],
            "tail": self._store.dump_columns(),
        }

    def validate_columnar(self, data: dict) -> None:
        """Verify ``data`` is restorable *before* mutating anything:
        every referenced segment file must open, CRC-verify and match
        its recorded base/count, contiguously from 0.  Raises
        :class:`SegmentLoadError` / ``ValueError``."""
        data_format = data.get("format")
        if data_format == CORPUS_COLUMNAR_FORMAT:
            return
        if data_format != CORPUS_SEGMENTED_FORMAT:
            raise ValueError(f"not a {CORPUS_SEGMENTED_FORMAT} document")
        expected_base = 0
        for reference in data["segments"]:
            info = validate_segment_file(self.directory / reference["file"])
            if info["base"] != reference["base"] or info["count"] != reference["count"]:
                raise SegmentLoadError(
                    f"segment {reference['file']} does not match its reference"
                )
            if info["base"] != expected_base:
                raise SegmentLoadError(
                    f"segment {reference['file']} breaks tier contiguity"
                )
            expected_base += info["count"]

    def restore_columnar(self, data: dict) -> None:
        """Restore from a segmented document (reopening the referenced
        segment files) or a plain columnar document (tier reset to
        empty).  All-or-nothing: every segment is opened and verified
        before any state is swapped."""
        data_format = data.get("format")
        if data_format == CORPUS_COLUMNAR_FORMAT:
            for segment in self._segments:
                segment.close()
            self._segments = []
            self._segment_bases = []
            self._frozen_len = 0
            self._tier_epoch += 1
            super().restore_columnar(data)
            return
        if data_format != CORPUS_SEGMENTED_FORMAT:
            raise ValueError(f"not a {CORPUS_SEGMENTED_FORMAT} document")
        vocabs = CorpusVocabularies()
        vocabs.restore(data["vocabularies"])
        segments: list[FrozenSegment] = []
        try:
            expected_base = 0
            for reference in data["segments"]:
                segment = FrozenSegment(self.directory / reference["file"], vocabs)
                segments.append(segment)
                if (
                    segment.base != reference["base"]
                    or segment.count != reference["count"]
                    or segment.base != expected_base
                ):
                    raise SegmentLoadError(
                        f"segment {reference['file']} does not match its reference"
                    )
                expected_base += segment.count
            store = RecordStore(vocabs)
            store.load_columns(data["tail"])
            index = CorpusIndex(self._index.config, vocabularies=vocabs)
            for position in range(len(store)):
                index.append_ids(
                    VERDICT_FOR_CODE[store.verdict_code_at(position)],
                    store.keyword_id_run(position),
                    store.token_id_run(position),
                    store.user_id_at(position),
                )
        except Exception:
            for segment in segments:
                segment.close()
            raise
        old_segments = self._segments
        self._vocabs = vocabs
        self._store = store
        self._index = index
        self._segments = segments
        self._segment_bases = [segment.base for segment in segments]
        self._frozen_len = expected_base
        self._tier_epoch += 1
        self._merge_floor = None
        self._merge_keys = []
        for segment in old_segments:
            segment.close()

    def save(self, path: str | Path) -> None:
        """Write a *portable* plain-columnar document (all tiers
        materialised back into one column set) — a saved corpus must
        not dangle references into this instance's segment directory."""
        store = RecordStore(self._vocabs)
        columns = self.columns
        for position in range(len(self)):
            store.append(columns.materialize(position), columns.token_set(position))
        document = {
            "format": CORPUS_COLUMNAR_FORMAT,
            "records": len(store),
            "vocabularies": self._vocabs.dump(),
            "columns": store.dump_columns(),
        }
        Path(path).write_text(
            json.dumps(document, ensure_ascii=False) + "\n", encoding="utf-8"
        )

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Release every mapped segment (and the owned tempdir).  The
        tail stays queryable; frozen records do not."""
        for segment in self._segments:
            segment.close()
        self._segments = []
        self._segment_bases = []
        self._tier_epoch += 1
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None
