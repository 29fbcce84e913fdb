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


_BIT_CHARS = bytes.maketrans(b"\x00\x01\x02", b"01?")
# Its inverse: '0', '1' and '?' to codes 0, 1 and 2, every other byte to 255.
_BIT_CODES = bytearray(b"\xff" * 256)
_BIT_CODES[ord("0")], _BIT_CODES[ord("1")], _BIT_CODES[ord("?")] = 0, 1, 2


def bits_to_str(bits) -> str:
    """Payload of bytes, or of a sequence of ints, holding codes 0, 1 and 2 (rendered '?')."""
    return bytes(bits).translate(_BIT_CHARS).decode("ascii")


def row_payloads(plane: np.ndarray) -> list[str]:
    """The payload of every row (last axis) of a uint8 or bool plane, rendered in one pass."""
    width = plane.shape[-1]
    text = bits_to_str(plane.tobytes())
    return [text[k * width:(k + 1) * width] for k in range(math.prod(plane.shape[:-1]))]


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

    def line(self) -> str:
        return f"event {self.seq} {self.kind} {self.party} {self.payload}"


@dataclass
class AdversaryRecord:
    """What an attached adversary measured and inferred, for post-hoc analysis."""

    kind: str
    positions: tuple[int, ...]      # 0-based qubit positions it touched
    bases: tuple[int, ...]          # basis it measured each position in
    bits: tuple[int, ...]           # best-guess inferred bit per position
    certain: tuple[bool, ...]       # True where the measurement basis provably matched

    def lines(self) -> list[str]:
        return [
            f"adversary kind={self.kind}",
            f"adversary positions={','.join(str(p) for p in self.positions) or '-'}",
            f"adversary bases={bits_to_str(self.bases) or '-'}",
            f"adversary bits={bits_to_str(self.bits) or '-'}",
            f"adversary certain={''.join('1' if c else '0' for c in self.certain) or '-'}",
        ]


class Transcript:
    """Everything one run announced, measured, checked, and derived."""

    def __init__(self, config: Mapping[str, str]):
        self.config = dict(config)
        self.events: list[Event] = []
        self._seq = 0

        # Derived by the protocol driver while it records events: announced_bases
        # holds uint8 planes, outcomes lists with None where a qubit was lost.
        self.announced_bases: dict[int, np.ndarray] = {}
        self.ack_seqs: dict[int, int] = {}
        self.bases_seqs: dict[int, int] = {}
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
        self.sift_rate: float | None = None
        self.abort_reason: str | None = None
        self.adversary: AdversaryRecord | None = None
        self._secrets = None  # simulator-side introspection, never serialized

    def record(self, kind: str, party: str, payload: str = "-") -> Event:
        self._seq += 1
        ev = Event(self._seq, kind, party, payload if payload else "-")
        self.events.append(ev)
        return ev

    @property
    def detected(self) -> bool:
        """At least one revealed check position disagreed."""
        return self.disagreements > 0

    def ordering_respected(self) -> bool:
        """Every basis announcement came after every reception acknowledgment."""
        if not self.bases_seqs:
            return True
        if not self.ack_seqs:
            return False
        return min(self.bases_seqs.values()) > max(self.ack_seqs.values())

    def serialize(self) -> str:
        lines = [FORMAT_HEADER]
        cfg = " ".join(f"{k}={v}" for k, v in self.config.items())
        lines.append(f"config {cfg}")
        lines.extend(ev.line() for ev in self.events)
        if self.adversary is not None:
            lines.extend(self.adversary.lines())
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.serialize())


def record_rows(transcripts: Sequence[Transcript], kind: str, party: str, plane: np.ndarray) -> list[Event]:
    """Record row t of ``plane`` as ``party``'s ``kind`` payload in transcript t."""
    return [tr.record(kind, party, payload) for tr, payload in zip(transcripts, row_payloads(plane))]


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
