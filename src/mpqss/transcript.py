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

import hashlib
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

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
    ASCII text such as digits and commas passes as it is.
    """
    ends = ends + np.arange(len(ends))  # each row closes after the closes before it
    text = np.full(len(codes) + len(ends), 3, dtype=np.uint8)
    data = np.ones(len(text), dtype=bool)
    data[ends] = False
    text[data] = codes
    rows = text.tobytes().translate(_BIT_CHARS, b"\x04").decode("ascii").split("\n")[:-1]
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

    def sections(self, bounds=None) -> list[str]:
        """The serialized adversary section, each line led by a newline, of every row.

        Row t holds entries ``bounds[t]:bounds[t + 1]``; without ``bounds`` the record is one row.
        """
        bounds = [0, len(self.positions)] if bounds is None else bounds
        count = len(bounds) - 1
        columns = [[f"\nadversary kind={self.kind}\nadversary positions="] * count,
                   index_payloads(self.positions, bounds)]
        for key in ("bases", "bits", "certain"):
            columns += [[f"\nadversary {key}="] * count, row_payloads(getattr(self, key), bounds)]
        return list(map("".join, zip(*columns)))


def head(config: Mapping[str, str]) -> str:
    """The format header and the config record."""
    return f"{FORMAT_HEADER}\nconfig " + " ".join(f"{k}={v}" for k, v in config.items())


def render(heads: Sequence[str], records, tails: Sequence[str]) -> list[str]:
    """The serialized text of every row of a table of records.

    ``heads`` holds each row's ``head``, ``tails`` its adversary section or ''.
    A record is ``(kind, party, rows, payloads)``: ``rows`` is None when every
    row holds it, else a bool mask, and ``payloads`` one per row ('' where the
    row lacks it). Events are numbered per row. Each row is joined at once, in ``zip``.
    """
    columns = [heads]
    seq = np.zeros(len(heads), dtype=np.intp)  # events so far in each row
    for kind, party, rows, payloads in records:
        held = 1 if rows is None else rows
        seq = seq + held
        shown = (seq * held).tolist()  # 0 where the row lacks it
        names = {s: f"\nevent {s} {kind} {party} " for s in set(shown)} | {0: ""}
        columns += [list(map(names.__getitem__, shown)), payloads]
    return list(map("".join, zip(*columns, tails, ["\n"] * len(heads))))


class Transcript:
    """Everything one run announced, measured, checked, and derived.

    A transcript of ``run_protocol`` or ``run_trials`` is a view of one row of
    its chunk (``protocol.Chunk``): each attribute below is read from the
    chunk's planes on first use and then kept, so reading one twice gives the
    same object.
    """

    def __init__(self, config: Mapping[str, str]):
        self.config = dict(config)
        self._records: list[tuple[str, str, str]] = []  # (kind, party, payload) per event
        self._text: str | None = None  # the serialized text, while no event was added to it

        # Derived by the protocol driver while it records events: announced_bases
        # holds uint8 planes, outcomes lists with None where a qubit was lost.
        self.announced_bases: dict[int, np.ndarray] = {}
        self.outcomes: dict[int, list] = {}
        self.usable: dict[int, list] = {}
        self.check_blocks: tuple[int, ...] = ()
        self.compared: int = 0
        self.disagreements: int = 0
        self.qber: float | None = None
        self.key_blocks: tuple[int, ...] = ()
        self.raw_key: tuple[int, ...] | None = None
        self.reference_key: tuple[int, ...] | None = None
        self.efficiency: float | None = None
        self.sift_rate: float | None = None  # both rates stay None if nothing was measured
        self.abort_reason: str | None = None
        self.adversary: AdversaryRecord | None = None
        self._secrets = None  # simulator-side introspection, never serialized

    @classmethod
    def view(cls, chunk, row: int) -> "Transcript":
        """Row ``row`` of ``chunk``, whose ``field(name, row)`` gives each attribute."""
        tr = object.__new__(cls)
        tr._chunk, tr._row = chunk, row
        return tr

    def __getattr__(self, name: str):
        # Reached only for an attribute not set yet, so only on a view.
        chunk = self.__dict__.get("_chunk")
        if chunk is None:
            raise AttributeError(name)
        value = self.__dict__[name] = chunk.field(name, self._row)
        return value

    def record(self, kind: str, party: str, payload: str = "-") -> int:
        """Append an event; returns its sequence number."""
        self._records.append((kind, party, payload or "-"))
        self._text = None
        return len(self._records)

    @property
    def events(self) -> list[Event]:
        """The recorded events."""
        return [Event(seq, *rec) for seq, rec in enumerate(self._records, start=1)]

    @property
    def detected(self) -> bool:
        """At least one revealed check position disagreed."""
        return self.disagreements > 0

    def serialize(self) -> str:
        if self._text is not None:
            return self._text
        tail = "" if self.adversary is None else self.adversary.sections()[0]
        records = [(kind, party, None, [payload]) for kind, party, payload in self._records]
        return render([head(self.config)], records, [tail])[0]

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
