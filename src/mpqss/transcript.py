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
KIND_ABORT = "abort"


# Codes 0, 1 and 2 render '0', '1' and '?', and code 3 a newline.
_BIT_CHARS = bytes.maketrans(b"\x00\x01\x02\x03", b"01?\n")
# Its inverse: '0', '1' and '?' to codes 0, 1 and 2, every other byte to 255.
_BIT_CODES = bytearray(b"\xff" * 256)
_BIT_CODES[ord("0")], _BIT_CODES[ord("1")], _BIT_CODES[ord("?")] = 0, 1, 2
_TENS = 10 ** np.arange(1, 19, dtype=np.int64)  # an integer has one digit more than it reaches


def bits_to_str(bits) -> str:
    """Payload of a plane, bytes or ints holding codes 0, 1 and 2 (rendered '?').

    A plane is read through ``tobytes``: on a strided column, 20x faster than ``bytes``.
    """
    raw = bits.tobytes() if isinstance(bits, np.ndarray) else bytes(bits)
    return raw.translate(_BIT_CHARS).decode("ascii")


def _cut(codes: np.ndarray, ends: np.ndarray) -> list[str]:
    """The text of ``codes`` cut at each of ``ends`` into rows, '-' for an empty one.

    Codes 0 to 2 render as ``bits_to_str`` renders them, code 4 is dropped and
    ASCII text such as digits and commas passes as it is. Each copy of the
    text is dropped once the next exists, so at most two are alive at a time.
    """
    ends = ends + np.arange(len(ends))  # each row closes after the closes before it
    coded = np.full(len(codes) + len(ends), 3, dtype=np.uint8)
    data = np.ones(len(coded), dtype=bool)
    data[ends] = False
    coded[data] = codes
    del data
    raw = coded.tobytes()
    del coded
    raw = raw.translate(_BIT_CHARS, b"\x04")
    text = raw.decode("ascii")
    del raw
    rows = text.split("\n")[:-1]
    return rows if "" not in rows else [row or "-" for row in rows]


def row_payloads(plane: np.ndarray, bounds=None) -> list[str]:
    """The payload of every row of a uint8 or bool plane, rendered in one pass.

    Rows are the last axis or, with ``bounds`` (from 0 to its length), its
    slices ``[bounds[t]:bounds[t + 1]]``, taken along every leading index in turn.
    """
    width = plane.shape[-1]
    ends = np.asarray([width] if bounds is None else bounds[1:], dtype=np.intp)
    return _cut(plane.reshape(-1), (np.arange(math.prod(plane.shape[:-1]))[:, None] * width + ends).ravel())


def index_payloads(indices, bounds) -> list[str]:
    """Comma lists of non-negative integers, rendered in one vectorised pass; '-' when empty.

    Row t is ``indices[bounds[t]:bounds[t + 1]]``. Each integer is its digits
    and a comma, so each digit place is one array assignment, and the last
    comma of a row is dropped.
    """
    values, edges = np.asarray(indices, dtype=np.int64).reshape(-1), np.asarray(bounds)
    digits = np.searchsorted(_TENS, values, side="right") + 1
    starts = np.concatenate([[0], np.cumsum(digits + 1)])  # of each integer's text, then the end
    chars = np.full(starts[-1], ord(","), dtype=np.uint8)
    for k in range(int(digits.max(initial=0))):
        has = digits > k
        chars[starts[1:][has] - 2 - k] = ord("0") + values[has] // 10**k % 10
    chars[starts[edges[1:][edges[1:] > edges[:-1]]] - 1] = 4
    return _cut(chars, starts[edges[1:]])


def str_to_plane(s: str) -> np.ndarray:
    """A payload as a uint8 plane of codes, the inverse of ``bits_to_str``.

    '0', '1' and '?' decode to 0, 1 and 2 and '-' to the empty plane. Any other
    character decodes to 255 (a non-ASCII one to one 255 per UTF-8 byte), so
    ``plane.max()`` tells whether a payload kept to the alphabet.
    """
    if s == "-":
        return np.zeros(0, dtype=np.uint8)
    return np.frombuffer(s.encode("utf-8", "surrogatepass").translate(_BIT_CODES), dtype=np.uint8)


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

    def sections(self, bounds) -> list[str]:
        """The serialized adversary section, each line led by a newline, of every row.

        Row t holds entries ``bounds[t]:bounds[t + 1]``.
        """
        count = len(bounds) - 1
        columns = [[f"\nadversary kind={self.kind}\nadversary positions="] * count,
                   index_payloads(self.positions, bounds)]
        for key in ("bases", "bits", "certain"):
            columns += [[f"\nadversary {key}="] * count, row_payloads(getattr(self, key), bounds)]
        return list(map("".join, zip(*columns)))


def head(config: Mapping[str, str]) -> str:
    """The format header and the config record."""
    return f"{FORMAT_HEADER}\nconfig " + " ".join(f"{k}={v}" for k, v in config.items())


# The per-row columns of a chunk that a row reads as ``column[t]``.
_COLUMNS = ("check_blocks", "compared", "disagreements", "qber", "efficiency", "sift_rate")

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


class Chunk(Sequence["Transcript"]):
    """The record table of a stack of runs, held by column; item t is row t, a ``Transcript``.

    Each phase of a run stores its results for every row at once: the record,
    one entry per ``record`` or ``record_planes`` call; the readout planes; and
    arrays with an entry or a row per trial for the check tallies and rates,
    the key bits (row t's are ``key_bounds[t]:key_bounds[t + 1]``), the attack
    and the secrets. A row reads its fields on first use (``field``), and
    ``texts`` renders every row's serialized text in one pass, the one place
    an entry's payloads are rendered.

    ``config`` is a config snapshot. With ``seeds``, row t runs with
    ``seeds[t]`` as its seed; without, the chunk is one hand-built row, whose
    config renders exactly as given and whose record is what ``record`` adds.
    """

    def __init__(self, config: Mapping[str, str], seeds: Sequence[int] | None = None):
        self.config, self.seeds = dict(config), seeds
        self._records: list = []  # (events, rows, payloads), one entry per record call
        self.announced_bases: dict[int, np.ndarray] = {}  # sender -> (rows, length) plane
        self.secrets: list = []  # each sender's ``PartySecrets``, a row per trial
        self.aborted = np.zeros(len(self), dtype=bool)
        self.abort_reason: str | None = None  # set when one cause stopped every trial
        self.readout = None  # the ``Readout`` of every row, once measured
        self.check_blocks = self.compared = self.disagreements = self.qber = None  # run_check
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

        ``payloads`` is one payload for all of them, a list with one per marked
        row, or a ``functools.partial`` of ``row_payloads`` or ``index_payloads``
        that renders that list when the text is read. Texts rendered before are
        dropped.
        """
        if isinstance(payloads, str):
            payloads = [payloads] * (len(self) if rows is None else int(np.count_nonzero(rows)))
        self._enter([(kind, party)], rows, payloads)

    def record_planes(self, events: list[tuple[str, str]], planes: np.ndarray, bounds=None, rows=None):
        """One event per (kind, party), its payloads ``row_payloads(planes[k], bounds)`` once rendered."""
        self._enter(events, rows, functools.partial(row_payloads, planes, bounds))

    def _enter(self, events: list[tuple[str, str]], rows, payloads) -> None:
        """Add one entry. A renderer's plane is held, not copied, so it is made read-only."""
        words = {word for event in events for word in event}
        if not callable(payloads):
            words.update(payloads)
        bad = [word for word in words if word.split() != [word]]
        if bad:
            raise ValueError(f"cannot record {bad[0]!r}: a line holds non-empty words with no whitespace")
        if callable(payloads):
            payloads.args[0].flags.writeable = False
        self._records.append((events, rows, payloads))
        self.__dict__.pop("texts", None)

    @functools.cached_property
    def texts(self) -> list[str]:
        """Every row's serialized transcript; each entry's payloads are rendered once, for every row.

        Events are numbered per row, and a row that an entry's ``rows`` leaves out lacks its events.
        """
        if self.seeds is None:
            columns = [[head(self.config)]]
        else:
            before, after = head({**self.config, "seed": "\0"}).split("\0")
            columns = [[before + str(seed) + after for seed in self.seeds]]
        seq = np.zeros(len(self), dtype=np.intp)  # events so far in each row
        for events, rows, payloads in self._records:
            given = payloads() if callable(payloads) else payloads
            per = len(given) // len(events)
            held = 1 if rows is None else rows
            for k, (kind, party) in enumerate(events):
                seq = seq + held
                shown = (seq * held).tolist()  # 0 where the row lacks it
                names = {s: f"\nevent {s} {kind} {party} " for s in set(shown)} | {0: ""}
                mine = given[k * per:(k + 1) * per]
                if rows is not None:
                    marked = iter(mine)
                    mine = [next(marked) if r else "" for r in rows.tolist()]
                columns += [list(map(names.__getitem__, shown)), mine]
        rec = self.adversary
        tails = [""] * len(self) if rec is None else rec.sections(self.adversary_bounds)
        return list(map("".join, zip(*columns, tails, ["\n"] * len(self))))

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
            return tuple(column[t].tolist()) if name == "check_blocks" else column[t].item()
        keyed = self.key_bounds is not None and not self.aborted[t]
        if name in ("key_blocks", "raw_key", "reference_key") and keyed:
            return tuple(getattr(self, name)[self.key_bounds[t]:self.key_bounds[t + 1]].tolist())
        if name in ("outcomes", "usable") and self.readout is not None:  # receiver-major lists
            lists = (self.readout.outcome if name == "outcomes" else self.readout.usable)[t].T.tolist()
            if name == "outcomes":  # None where lost
                for j, c in np.argwhere(self.readout.lost[t]).tolist():
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
        """The recorded events, read back from the text."""
        return parse(self.serialize()).events

    def serialize(self) -> str:
        return self._chunk.texts[self._row]

    def digest(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.serialize())


@dataclass
class ParsedTranscript:
    """Structural parse of the text format; semantic checks live in the harness."""

    config: dict[str, str]
    events: list[Event] = field(default_factory=list)
    adversary: dict[str, str] = field(default_factory=dict)

    def events_of(self, kind: str) -> list[Event]:
        return [ev for ev in self.events if ev.kind == kind]


def parse(text: str) -> ParsedTranscript:
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise TranscriptParseError(1, f"expected header {FORMAT_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("config "):
        raise TranscriptParseError(2, "expected a config record")
    config: dict[str, str] = {}
    for item in lines[1][len("config "):].split():
        if "=" not in item:
            raise TranscriptParseError(2, f"malformed config item {item!r}")
        key, _, value = item.partition("=")
        config[key] = value
    parsed = ParsedTranscript(config=config)
    last_seq = 0
    for no, raw in enumerate(lines[2:], start=3):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("adversary "):
            item = line[len("adversary "):]
            if "=" not in item:
                raise TranscriptParseError(no, f"malformed adversary item {item!r}")
            key, _, value = item.partition("=")
            parsed.adversary[key] = value
            continue
        if not line.startswith("event "):
            raise TranscriptParseError(no, f"unknown record {line.split()[0]!r}")
        parts = line.split(" ")
        if len(parts) != 5:
            raise TranscriptParseError(no, "event records need: seq kind party payload")
        try:
            seq = int(parts[1])
        except ValueError:
            raise TranscriptParseError(no, f"bad sequence number {parts[1]!r}") from None
        if seq <= last_seq:
            raise TranscriptParseError(no, f"sequence numbers must increase ({seq} after {last_seq})")
        last_seq = seq
        parsed.events.append(Event(seq, parts[2], parts[3], parts[4]))
    return parsed
