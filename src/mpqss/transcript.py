"""Run record: ordered public events plus derived results, in a diffable text form.

Serialized layout (stable field order, one record per line):

    mpqss-transcript v1
    config <key>=<value> ...
    event <seq> <kind> <party> <payload>
    adversary <key>=<value> ...     (optional trailing section)

Bit-sequence payloads are '0'/'1' strings, with '?' marking positions that
carry no usable outcome; index lists are comma separated; '-' is the empty
payload. Receiver indices and qubit positions are 1-based, block indices
0-based, matching the position arithmetic k = n*j + l.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import TranscriptParseError

FORMAT_HEADER = "mpqss-transcript v1"

# Event kinds, in the order they normally appear in a run.
KIND_LOSS = "loss"                # payload: bitmap, 1 = lost position (announced deletion)
KIND_ACK = "ack"                  # receiver confirms reception of its qubits
KIND_EARLY_MEASURE = "premeasure" # receiver measured before announcements (no quantum memory)
KIND_BASES = "bases"              # a sender's basis string, published
KIND_GUESS = "guess-bases"        # receiver's guessed bases, published after KIND_BASES
KIND_SIFT = "sift"                # bitmap of positions kept after basis comparison
KIND_MEASURED = "measured"        # receiver's outcomes, one char per block ('?' = unusable)
KIND_CHECK_SELECT = "check-select"  # comma list of checked block indices
KIND_CHECK_SENDER = "check-sender"  # a sender's revealed bits at checked positions
KIND_CHECK_RECV = "check-receiver"  # a receiver's revealed outcomes at checked positions
KIND_CHECK_RESULT = "check-result"  # compared/disagree/rate/pass summary
KIND_KEY_CONTRIB = "key-contrib"  # one receiver's share of the joint key computation
KIND_RAW_KEY = "raw-key"          # combined key (joint computation, no mechanism prescribed)
KIND_ABORT = "abort"               # payload: the reason, one of the two below

# Why a run aborted: its check's error rate passed the threshold, or a sender
# announced bases before every receiver acknowledged.
ABORT_ERROR_RATE = "error-rate"
ABORT_ORDERING = "ordering-violation"


# Words that ``Chunk._enter`` found a line can carry, so that each is split once per process; one that
# fails is never held. Hand-built runs may record any payload, so only the first few thousand are held.
_LINE_WORDS: set[str] = set()
_LINE_WORDS_HELD = 4096

# Codes 0, 1 and 2 render '0', '1' and '?', and code 3 a newline.
_BIT_CHARS = bytes.maketrans(b"\x00\x01\x02\x03", b"01?\n")
# Its inverse: '0', '1' and '?' to codes 0, 1 and 2, every other byte to 255.
_BIT_CODES = bytearray(b"\xff" * 256)
_BIT_CODES[ord("0")], _BIT_CODES[ord("1")], _BIT_CODES[ord("?")] = 0, 1, 2


def bits_to_str(bits) -> str:
    """Payload of a plane, bytes or ints holding codes 0, 1 and 2 (rendered '?').

    A plane is read through ``tobytes``: on a strided column, 20x faster than ``bytes``.
    """
    raw = bits.tobytes() if isinstance(bits, np.ndarray) else bytes(bits)
    return raw.translate(_BIT_CHARS).decode("ascii")


def _cut(codes: np.ndarray, ends, dashed) -> list[bytes]:
    """The text of ``codes``, a flat run or rows, cut after each code 3 and at each of ``ends`` along its last
    axis, after a '-' where ``dashed`` marks the piece empty. Codes 0 to 2 render as ``bits_to_str`` renders
    them and code 4 not at all. Each copy of the text is dropped once the next exists: at most two are alive.
    """
    marks = np.full(len(ends) + np.count_nonzero(dashed), 3, dtype=np.uint8)
    marks[np.cumsum(dashed + 1)[dashed] - 2] = ord("-")
    return ((np.insert(codes, np.repeat(ends, dashed + 1), marks, axis=-1) if len(marks) else codes)
            .tobytes().translate(_BIT_CHARS, b"\x04").split(b"\n")[:-1])


def row_payloads(plane: np.ndarray, bounds=None) -> list[bytes]:
    """The payload of every row of a uint8 or bool plane, cut from it in one run of ASCII.

    Rows are the last axis, each ended by one inserted column, or, with ``bounds`` (from 0 to its length),
    its slices ``[bounds[t]:bounds[t + 1]]`` along every leading index in turn, ended in the flat run.
    """
    width, lead = plane.shape[-1], math.prod(plane.shape[:-1])
    codes = plane.reshape(lead, width).view(np.uint8)
    if bounds is None:
        return _cut(codes, [width], np.array([width == 0]))
    ends = (np.asarray(bounds)[1:] + width * np.arange(lead)[:, None]).reshape(-1)
    return _cut(codes.reshape(-1), ends, np.tile(np.diff(bounds) == 0, lead))


def index_payloads(indices, bounds) -> list[bytes]:
    """Comma lists of non-negative integers, rendered as ASCII in one vectorised pass; '-' when empty.

    Row t is ``indices[bounds[t]:bounds[t + 1]]``. Each integer takes as many digit places as the
    largest, in the narrowest type that holds them, its leading zeros code 4 (dropped), and a comma.
    """
    values, edges = np.asarray(indices, dtype=np.int64).reshape(-1), np.asarray(bounds)
    places = len(str(top := int(values.max(initial=0))))
    chars = np.empty((len(values), places + 1), dtype=np.uint8)
    chars[:, places] = ord(",")
    rest = values.astype(np.min_scalar_type(top))
    for k in range(places - 1, -1, -1):  # a leading zero, where nothing is left, is '0' less 44: code 4
        chars[:, k] = rest % 10 + ord("0") - (rest == 0) * np.uint8(44 if k < places - 1 else 0)
        rest //= 10
    empty = (ends := edges[1:]) == edges[:-1]
    chars[ends[~empty] - 1, places] = 3  # a row's last comma ends it
    return _cut(chars.reshape(-1), ends[empty] * (places + 1), np.ones(np.count_nonzero(empty), dtype=bool))


def str_to_codes(s: str) -> tuple[np.ndarray, int]:
    """A payload as a uint8 plane of codes, the inverse of ``bits_to_str``, and its largest code.

    '0', '1' and '?' decode to 0, 1 and 2 and '-' to the empty plane, whose
    largest code is 0. Any other character decodes to 255 (a non-ASCII one to
    one 255 per UTF-8 byte), so the largest code tells whether a payload kept
    to the alphabet. A payload of '0' and '1' alone decodes by one XOR, whose
    maximum is taken once; only one with another character goes through the
    translation table, and the maximum is then that of the table's plane.
    """
    if s == "-":
        return np.zeros(0, dtype=np.uint8), 0
    raw = s.encode("utf-8", "surrogatepass")
    plane = np.frombuffer(raw, dtype=np.uint8) ^ ord("0")
    top = int(plane.max(initial=0))
    if top > 1:
        plane = np.frombuffer(raw.translate(_BIT_CODES), dtype=np.uint8)
        top = int(plane.max())
    return plane, top


class Event(NamedTuple):
    seq: int
    kind: str
    party: str
    payload: str = "-"


@dataclass(eq=False)
class AdversaryRecord:
    """What an attached adversary measured and inferred, one plane entry per touched position.

    On a batch of trials, positions index the stacked planes row by row: trial
    t's position k is t * len(block) + k.
    """

    kind: str
    positions: np.ndarray  # intp: 0-based qubit positions it touched
    bases: np.ndarray  # uint8: basis it measured each position in
    bits: np.ndarray  # uint8: best-guess inferred bit per position
    certain: np.ndarray  # bool: True where the measurement basis provably matched

    def sections(self, bounds) -> list[list[bytes]]:
        """The serialized adversary section of every row, each line led by a newline, as columns of a piece per
        row: each line's text up to its value, then the values of row t's entries ``bounds[t]:bounds[t + 1]``."""
        count = len(bounds) - 1
        columns = [[f"\nadversary kind={self.kind}\nadversary positions=".encode()] * count,
                   index_payloads(self.positions, bounds)]
        for key in ("bases", "bits", "certain"):
            columns += [[f"\nadversary {key}=".encode()] * count, row_payloads(getattr(self, key), bounds)]
        return columns


def head(config: Mapping[str, str]) -> str:
    """The format header and the config record."""
    return f"{FORMAT_HEADER}\nconfig " + " ".join(f"{k}={v}" for k, v in config.items())


# The per-row columns of a chunk that a row reads as ``column[t]``.
_COLUMNS = ("compared", "disagreements", "qber", "efficiency", "sift_rate")

# What a row holds for each field its run never reached. A row reads its other
# two public attributes, config and announced_bases, from its chunk always.
UNSET = {
    "outcomes": {},  # receiver -> outcome list, None where a qubit was lost
    "usable": {},
    "check_blocks": (),
    "compared": 0,
    "disagreements": 0,
    "qber": None,
    "key_blocks": (),
    "raw_key": None,
    "reference_key": None,
    "efficiency": None,
    "sift_rate": None,  # both rates stay None if nothing was measured
    "abort_reason": None,
    "adversary": None,
    "_secrets": None,  # simulator-side introspection, never serialized
}


def _block_rows(parts: list, count: int) -> list:
    """The text of each of ``count`` rows laid out as ``parts``, rendered in one (count, width) block.

    A part is bytes that every row holds or a ``(plane, unusable)`` pair: a (count, w) plane of
    codes 0, 1 and, only if ``unusable``, 2, rendered as ``bits_to_str`` renders them. The bytes are
    one broadcast assignment and each plane an addition of '0', then of 13 times its codes halved,
    which takes code 2 to '?'. Each row is a view of the block.
    """
    template, planes = bytearray(), []
    for part in parts:
        if not isinstance(part, bytes):
            planes.append((len(template), *part))
            part = bytes(part[0].shape[-1])
        template += part
    if not planes:
        return [bytes(template)] * count
    width = len(template)
    block = np.empty((count, width), dtype=np.uint8)
    block[:] = np.frombuffer(template, dtype=np.uint8)
    for at, plane, unusable in planes:
        ascii = block[:, at:at + plane.shape[-1]]
        np.add(plane, ord("0"), out=ascii, dtype=np.uint8)
        if unusable:
            np.add(ascii, (plane >> 1) * 13, out=ascii)
    text = memoryview(block.reshape(-1))
    return [text[i:i + width] for i in range(0, count * width, width)]


def _fixed(payloads, events: int, count: int) -> list | None:
    """The ``_block_rows`` part of each event if every row holds the payload at one width, else None."""
    if isinstance(payloads, str):
        return [payloads.encode()] * events
    planes = payloads.args[0]  # a renderer's, the other arguments giving slices
    if payloads.func is not row_payloads or any(arg is not None for arg in payloads.args[1:]) or not planes.shape[-1]:
        return None
    unusable = planes.max() > 1  # once for the entry: its planes are one array
    return [(plane, unusable) for plane in planes.reshape(events, count, -1)]


def _ragged(events: list, rows, payloads, seq, count: int) -> list:
    """Two columns per event of an entry that no block holds: each row's event line up to its payload, then
    its payload, both empty in a row that ``rows`` leaves out. ``seq`` counts the events before the entry, in
    every row or in each; an event line is rendered once per number the rows take."""
    if callable(payloads):
        given = payloads()
    else:
        given = [payloads.encode()] * (count if rows is None else int(np.count_nonzero(rows)))
    per = len(given) // len(events)  # a piece per marked row, or per row
    low = high = seq  # the fewest and most events before the entry in a row
    line = None  # row t's line is heads[line[t]], the last one empty; None: heads[0] in every row
    if not isinstance(seq, int) or rows is not None:
        before = np.broadcast_to(seq, (count,))
        low, high = int(before.min()), int(before.max())
        line = before - low
        if rows is not None:
            line[~rows] = high - low + 1
        line = line.tolist()
    place = None  # row t's payload is payload[place[t]], the last one empty; None: given[t]
    if per < count:
        place = np.where(rows, np.cumsum(rows) - 1, per).tolist()
    columns = []
    for k, (kind, party) in enumerate(events):
        heads = [f"\nevent {s + k} {kind} {party} ".encode() for s in range(low + 1, high + 2)] + [b""]
        payload = given[k * per:(k + 1) * per]
        columns.append([heads[0]] * count if line is None else list(map(heads.__getitem__, line)))
        columns.append(payload if place is None else list(map((payload + [b""]).__getitem__, place)))
    return columns


class Chunk(Sequence["Transcript"]):
    """The record table of a stack of runs, held by column; item t is row t, a ``Transcript``.

    Each phase of a run stores its results for every row at once: the record,
    one entry per ``record`` or ``record_planes`` call; the readout planes and
    the check mask; and arrays with an entry or a row per trial for the check
    tallies and rates, the key bits (row t's are ``key_bounds[t]:key_bounds[t + 1]``),
    the attack and the secrets. A row reads its fields on first use
    (``field``). ``_columns`` renders every row's serialized text in one pass,
    as pieces that ``texts`` joins and ``digests`` hashes: the one place an
    entry's payloads are rendered.

    ``config`` is a config snapshot. With ``seeds``, row t runs with
    ``seeds[t]`` as its seed; without, the chunk is one hand-built row, whose
    config renders exactly as given and whose record is what ``record`` adds.
    """

    def __init__(self, config: Mapping[str, str], seeds: Sequence[int] | None = None):
        self.config, self.seeds = dict(config), seeds
        self.stream = None  # the rows' keyed draws, a ``planes.Substream`` of ``seeds``, once a run makes them
        self._records: list = []  # (events, rows, payloads), one entry per record call
        self.announced_bases: dict[int, np.ndarray] = {}  # sender -> (rows, length) plane
        self.secrets: list = []  # each sender's ``PartySecrets``, a row per trial
        self.aborted = np.zeros(len(self), dtype=bool)
        self.abort_reason: str | None = None  # set when one cause stopped every trial
        # The receivers' readout as (rows, N, n) planes, once measured: [t, j, l - 1] is
        # row t's block j at receiver l.
        self.outcome = None  # uint8 measurement outcome; meaningless where lost
        self.lost = None  # bool: no qubit arrived
        self.usable = None  # bool: arrived and measured in the combined basis
        self.checked = None  # bool (rows, N): the blocks the check revealed
        self.compared = self.disagreements = self.qber = None  # run_check
        self.key_bounds = self.key_blocks = self.raw_key = self.reference_key = None  # extract_raw_key
        self.efficiency = self.sift_rate = None
        self.adversary: AdversaryRecord | None = None  # positions within each trial
        self.adversary_bounds = None  # row t's entries are adversary_bounds[t]:adversary_bounds[t + 1]

    def __len__(self) -> int:
        return 1 if self.seeds is None else len(self.seeds)

    # Rows are made on each access and not kept: a chunk that held its rows
    # would be a reference cycle, which only the garbage collector frees.
    def __getitem__(self, t: int) -> "Transcript":
        return self._row_at(range(len(self))[t])

    def __iter__(self) -> Iterator["Transcript"]:
        return map(self._row_at, range(len(self)))

    def _row_at(self, t: int) -> "Transcript":
        row = object.__new__(Transcript)
        row._chunk, row._row = self, t
        return row

    def record(self, kind: str, party: str, payloads="-", rows: np.ndarray | None = None) -> None:
        """One event in each row that ``rows`` marks, or in every row.

        ``payloads`` is one payload for all of them or a ``functools.partial`` of ``row_payloads``,
        ``index_payloads`` or another renderer of one per marked row. Texts rendered before are dropped.
        """
        self._enter([(kind, party)], rows, payloads)

    def record_planes(self, events: list[tuple[str, str]], planes: np.ndarray, bounds=None, rows=None):
        """One event per (kind, party), its payloads ``row_payloads(planes[k], bounds)`` of the marked rows."""
        self._enter(events, rows, functools.partial(row_payloads, planes, bounds))

    def _enter(self, events: list[tuple[str, str]], rows, payloads) -> None:
        """Add one entry, storing a mask of every row as None. A renderer's plane is held, not copied, so it
        is made read-only."""
        rows = None if rows is None or rows.all() else rows
        words = {word for event in events for word in event} | (set() if callable(payloads) else {payloads})
        if not words <= _LINE_WORDS:
            bad = [word for word in words - _LINE_WORDS if word.split() != [word]]
            if bad:
                raise ValueError(f"cannot record {bad[0]!r}: a line holds non-empty words with no whitespace")
            if len(_LINE_WORDS) < _LINE_WORDS_HELD:
                _LINE_WORDS.update(words)
        if callable(payloads):
            payloads.args[0].flags.writeable = False
        self._records.append((events, rows, payloads))
        self.__dict__.pop("texts", None)

    @functools.cached_property
    def texts(self) -> list[bytes]:
        """Every row's serialized transcript in UTF-8; each entry's payloads are rendered once, for every row."""
        return list(map(b"".join, zip(*self._columns())))

    def digests(self) -> list[str]:
        """Every row's ``Transcript.digest()``: the SHA-256 of its text's bytes, in hex.

        Unless ``texts`` is kept already, each row's text is hashed as soon as it is joined and then dropped,
        so that no more than one row's text is alive at a time; nothing is kept.
        """
        texts = self.__dict__.get("texts")
        if texts is None:
            texts = map(b"".join, zip(*self._columns()))
        return [sha.hexdigest() for sha in map(hashlib.sha256, texts)]

    def _columns(self) -> list[list]:
        """Columns of a piece per row, whose join along each row is that row's text.

        Events are numbered per row; a row that an entry's ``rows`` leaves out lacks its events. Each piece is
        rendered for all rows at once. While every row stands at one event number, the entries that every row
        holds at one width go into a ``_block_rows`` block; every other entry is ``_ragged`` columns.
        """
        count = len(self)
        if not count:
            return []
        columns, parts = [], []  # the parts of the block being laid out
        seq = 0  # events before the block in each row: an int while every row has as many
        done = 0  # events in the block

        def close() -> None:
            nonlocal seq, done
            if parts:
                columns.append(_block_rows(parts, count))
                parts.clear()
            seq, done = seq + done, 0

        if self.seeds is None:
            parts.append(head(self.config).encode())
        else:
            before, after = head({**self.config, "seed": "\0"}).split("\0")
            columns += [[before.encode()] * count, "\n".join(map(str, self.seeds)).encode().split(b"\n")]
            parts.append(after.encode())
        for events, rows, payloads in self._records:
            level = rows is None and isinstance(seq, int)  # every row holds the entry at one number
            fixed = _fixed(payloads, len(events), count) if level else None
            if fixed is None:
                close()
                columns += _ragged(events, rows, payloads, seq, count)
                seq = seq + len(events) * (1 if rows is None else rows)
                continue
            for (kind, party), payload in zip(events, fixed):
                done += 1
                parts += [f"\nevent {seq + done} {kind} {party} ".encode(), payload]
        if self.adversary is not None:
            close()
            columns += self.adversary.sections(self.adversary_bounds)
        parts.append(b"\n")
        close()
        return columns

    def field(self, name: str, t: int):
        """Row ``t``'s value of the ``Transcript`` attribute ``name``; ``UNSET[name]`` if never reached."""
        if name == "config":
            return dict(self.config) if self.seeds is None else {**self.config, "seed": str(self.seeds[t])}
        if name == "announced_bases":
            return {i: plane[t] for i, plane in self.announced_bases.items()}
        if name == "_secrets" and self.secrets:
            return [s.trial(t) for s in self.secrets]
        if name == "abort_reason" and self.aborted[t]:
            threshold = float(self.config["qber_abort_threshold"])
            return self.abort_reason or f"error rate {self.qber[t]:.6f} above threshold {threshold:.6f}"
        column = getattr(self, name) if name in _COLUMNS else None
        if column is not None:
            return column[t].item()
        if name == "check_blocks" and self.checked is not None:
            return tuple(np.flatnonzero(self.checked[t]).tolist())
        keyed = self.key_bounds is not None and not self.aborted[t]
        if name in ("key_blocks", "raw_key", "reference_key") and keyed:
            return tuple(getattr(self, name)[self.key_bounds[t]:self.key_bounds[t + 1]].tolist())
        if name in ("outcomes", "usable") and self.outcome is not None:  # receiver-major lists
            lists = (self.outcome if name == "outcomes" else self.usable)[t].T.tolist()
            if name == "outcomes":  # None where lost
                for j, c in np.argwhere(self.lost[t]).tolist():
                    lists[c][j] = None
            return dict(enumerate(lists, start=1))
        if name == "adversary" and self.adversary is not None:
            rec, (a, b) = self.adversary, self.adversary_bounds[t:t + 2]
            planes = (rec.positions, rec.bases, rec.bits, rec.certain)
            return AdversaryRecord(rec.kind, *(plane[a:b] for plane in planes))
        if name not in UNSET:
            raise AttributeError(name)
        return copy.copy(UNSET[name])


class Transcript:
    """Everything one run announced, measured, checked and derived: a read-only row of a ``Chunk``.

    Each attribute is read from the chunk on first use (``Chunk.field``) and
    then kept, so reading one twice gives the same object. ``Transcript(config)``
    is the one row of a fresh hand-built ``Chunk(config)``, with nothing recorded.
    """

    def __init__(self, config: Mapping[str, str]):
        self._chunk, self._row = Chunk(config), 0

    def __getattr__(self, name: str):
        # Reached only for an attribute not read yet. An object whose chunk was
        # never set (as ``copy`` makes one) has nothing to read.
        chunk = self.__dict__.get("_chunk")
        if chunk is None:
            raise AttributeError(name)
        value = self.__dict__[name] = chunk.field(name, self._row)
        return value

    @property
    def events(self) -> list[Event]:
        """The recorded events, read back from the text; parsed again only once the text changes."""
        raw, kept = self._chunk.texts[self._row], self.__dict__.get("_parsed")
        if kept is None or kept[0] is not raw:
            kept = self.__dict__["_parsed"] = raw, parse(raw.decode()).events
        return list(kept[1])

    def serialize(self) -> str:
        return self._chunk.texts[self._row].decode()

    def digest(self) -> str:
        return hashlib.sha256(self._chunk.texts[self._row]).hexdigest()

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self._chunk.texts[self._row])


@dataclass
class ParsedTranscript:
    """Structural parse of the text format; semantic checks live in the harness."""

    config: dict[str, str]
    events: list[Event] = field(default_factory=list)
    adversary: dict[str, str] = field(default_factory=dict)


# The line boundaries of ``str.splitlines`` other than a newline.
_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _lines(text: str) -> Iterator[tuple[str, int, int]]:
    """The lines of ``text.splitlines()`` in order, each as (s, a, b) with the line s[a:b].

    A text holding any other line boundary than a newline is split by
    ``splitlines``; any other text is cut at each newline, its lines not copied.
    """
    if any(c in text for c in _BREAKS):
        yield from ((line, 0, len(line)) for line in text.splitlines())
        return
    size, start = len(text), 0
    while start < size:
        end = text.find("\n", start)
        end = size if end < 0 else end
        yield text, start, end
        start = end + 1


def parse(text: str) -> ParsedTranscript:
    """The records of ``text``, each payload sliced once out of the text.

    A line is read as ``str.splitlines`` cuts it and stripped of surrounding
    whitespace; an event line is five fields cut at single spaces.
    """
    lines = _lines(text)
    s, a, b = next(lines, ("", 0, 0))
    if s[a:b].strip() != FORMAT_HEADER:
        raise TranscriptParseError(1, f"expected header {FORMAT_HEADER!r}")
    s, a, b = next(lines, ("", 0, 0))
    if not s.startswith("config ", a, b):
        raise TranscriptParseError(2, "expected a config record")
    config: dict[str, str] = {}
    for item in s[a + len("config "):b].split():
        if "=" not in item:
            raise TranscriptParseError(2, f"malformed config item {item!r}")
        key, _, value = item.partition("=")
        config[key] = value
    parsed = ParsedTranscript(config=config)
    last_seq = 0
    for no, (s, a, b) in enumerate(lines, start=3):
        if a < b and (s[a].isspace() or s[b - 1].isspace()):
            s = s[a:b].strip()
            a, b = 0, len(s)
        if a == b:
            continue
        if not s.startswith("event ", a, b):
            if not s.startswith("adversary ", a, b):
                raise TranscriptParseError(no, f"unknown record {s[a:b].split()[0]!r}")
            a += len("adversary ")
            eq = s.find("=", a, b)
            if eq < 0:
                raise TranscriptParseError(no, f"malformed adversary item {s[a:b]!r}")
            parsed.adversary[s[a:eq]] = s[eq + 1:b]
            continue
        # Where each field starts, 0 once a space is missing.
        kind_at = s.find(" ", a + len("event "), b) + 1
        party_at = kind_at and s.find(" ", kind_at, b) + 1
        payload_at = party_at and s.find(" ", party_at, b) + 1
        if not payload_at or s.find(" ", payload_at, b) >= 0:
            raise TranscriptParseError(no, "event records need: seq kind party payload")
        seq_text = s[a + len("event "):kind_at - 1]
        try:
            seq = int(seq_text)
        except ValueError:
            raise TranscriptParseError(no, f"bad sequence number {seq_text!r}") from None
        if seq <= last_seq:
            raise TranscriptParseError(no, f"sequence numbers must increase ({seq} after {last_seq})")
        last_seq = seq
        parsed.events.append(Event(seq, s[kind_at:party_at - 1], s[party_at:payload_at - 1], s[payload_at:b]))
    return parsed
