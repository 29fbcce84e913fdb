"""Bit-plane engine: blocks of four-state qubits as whole arrays.

Every operation of the protocol maps |0>, |1>, |+>, |-> onto themselves (see
``qubits``), so a block of qubits is exactly two uint8 planes, value and
basis, plus a mask of lost positions. Each kernel below is one array
expression doing at every position what the named ``qubits`` function does to
one qubit. Kernels take their randomness as arrays (masks, bases, coins), so
they are pure functions; the tests compare them with ``qubits`` position by
position. The engine draws those arrays from a run's keyed ``Substream``.
The protocol's public rules (combined basis, sift mask, check tally, key
blocks, key bits) are stated here too, once: the engine applies them to its
own planes and replay to those it decodes, so replay still checks a run
independently.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qubits import Qubit

# Plane code of a position that carries no usable outcome; payloads show '?'.
UNUSABLE = 2

# The random stream's version: it keys every draw, so a stream change is a new version.
STREAM_VERSION = "0.4.0"

# Positions (units of a draw) per digest: a draw's chunk c covers its units
# [c * STREAM_CHUNK, (c + 1) * STREAM_CHUNK). A multiple of 8, so a chunk of
# bits is whole bytes.
STREAM_CHUNK = 1 << 16


def tie_margin(units: int) -> int:
    """Tie bytes asked for with a chunk's first stage, for a decision over ``units`` positions.

    At most four thresholds tie at most 1 position in 64; the margin adds four
    standard deviations and a few positions. It sets only how often a row is
    digested again, never a byte that is read.
    """
    return 3 * (units // 64 + math.isqrt(units) // 2 + 8)


def tie_positions(top: np.ndarray, thresholds: Sequence[int]) -> np.ndarray:
    """Flat indices of the positions whose top byte ties a threshold's, ascending.

    A threshold ties its top byte when its low 24 bits are not all zero; the
    others are decided by the top byte alone.
    """
    tied = np.zeros(top.shape, dtype=bool)
    for byte in {t >> 24 for t in thresholds if t & 0xFFFFFF}:
        tied |= top == byte
    return np.flatnonzero(tied)


def decide(top: np.ndarray, ties: np.ndarray, low: np.ndarray, thresholds: Sequence[int]) -> np.ndarray:
    """Each position's bin: how many of the sorted ``thresholds`` are at most its word.

    The word is w = top * 2**24 + l, where ``top`` is a byte per position and
    ``low`` holds l, below 2**24, at the flat ``ties`` that ``tie_positions``
    gives, in that order; elsewhere l decides nothing. So w < thresholds[i]
    exactly when the bin is at most i: a threshold of 0 is at most every word,
    and one of 2**32 at none. Comparing bytes is about ten times faster than
    looking each one up in a table.
    """
    bins = np.zeros(top.shape, dtype=np.uint8)
    for t in thresholds:
        byte = -(-t >> 24)  # the least top byte whose every word is at least t
        if byte < 256:
            bins += top >= byte
    words = (np.ravel(top)[ties].astype(np.int64) << 24) | low
    bins.flat[ties] = np.searchsorted(np.asarray(thresholds, dtype=np.int64), words, side="right")
    return bins


class Substream:
    """The keyed random draws of one phase of a run, or of a batch of runs.

    ``seeds`` is one trial seed, or a sequence with one per trial; a sequence
    draws one row per seed, each exactly what that seed alone would give.
    Chunk c of ``phase`` is the SHAKE-128 digest of the key
    ``"<STREAM_VERSION>:<seed>:<phase>:<c>"``, which holds the first stage of
    every draw of the call for that chunk, one after another in the order they
    are asked for, then the tie bytes of its decision (``draw``). A chunk's
    bytes thus depend on neither the run's size nor any other phase. Bytes are
    read little-endian, so the planes are the same on every platform, and no
    ``numpy.random`` is loaded.
    """

    def __init__(self, seeds: int | Sequence[int], phase: str = ""):
        self.seeds, self.phase = seeds, phase
        rows = [seeds] if isinstance(seeds, int) else seeds
        # Each row's key up to the phase.
        self._heads = [f"{STREAM_VERSION}:{seed}:".encode() for seed in rows]

    def __len__(self) -> int:
        """How many trials draw: one for a single seed."""
        return len(self._heads)

    def at(self, phase: str) -> "Substream":
        """The same trials' draws in ``phase``."""
        sub = copy.copy(self)
        sub.phase = phase
        return sub

    def draw(self, *draws: tuple[int | Sequence[int], int]) -> list[np.ndarray]:
        """One plane per (kind, units) draw.

        A kind of 1 gives 0/1 uint8 bits, 32 and 64 unsigned words. A sorted
        sequence of thresholds in [0, 2**32] is a decision: each unit's uint8
        bin, as ``decide`` gives it for a uniform 32-bit word w, so that
        w < thresholds[i] exactly when the bin is at most i. A decision draws
        w's top byte with the first stage and its 3 low bytes (little-endian)
        only where that byte ties a threshold's: after the first stage of
        every draw, 3 bytes per tied position, in position order. A call holds
        at most one decision.

        Each plane has shape (units,), or (trials, units) for a sequence of seeds.
        """
        rows, kinds = len(self._heads), [kind for kind, _ in draws]
        decisions = [not isinstance(kind, int) for kind in kinds]
        if sum(decisions) > 1:
            raise ValueError("a draw holds at most one decision")
        dtypes = [np.uint8 if decision or kind == 1 else f"<u{kind // 8}"
                  for kind, decision in zip(kinds, decisions)]
        out = [np.empty((rows, units), dtype) for dtype, (_, units) in zip(dtypes, draws)]
        for c in range(max([1] + [-(-units // STREAM_CHUNK) for _, units in draws])):
            # Each draw's units in chunk c, and their first-stage bytes: a byte per decision.
            lo = c * STREAM_CHUNK
            held = [min(STREAM_CHUNK, max(0, units - lo)) for _, units in draws]
            sizes = [count if decision else -(-kind * count // 8)
                     for kind, decision, count in zip(kinds, decisions, held)]
            first = sum(sizes)
            margin = sum(tie_margin(count) for decision, count in zip(decisions, held) if decision)
            tail = f"{self.phase}:{c}".encode()
            raw = b"".join([hashlib.shake_128(head + tail).digest(first + margin) for head in self._heads])
            table = np.frombuffer(raw, dtype=np.uint8).reshape(rows, first + margin)
            starts = itertools.accumulate(sizes, initial=0)
            for plane, kind, decision, count, start, size in zip(out, kinds, decisions, held, starts, sizes):
                data = table[:, start:start + size]
                if decision:
                    plane[:, lo:lo + count] = self._decide(data, kind, table, first, tail)
                elif kind == 1:
                    plane[:, lo:lo + count] = np.unpackbits(data, axis=1, count=count, bitorder="little")
                else:
                    plane[:, lo:lo + count] = data.view(plane.dtype)
        return [plane[0] for plane in out] if isinstance(self.seeds, int) else out

    def _decide(
        self, top: np.ndarray, thresholds: Sequence[int], table: np.ndarray, first: int, tail: bytes
    ) -> np.ndarray:
        """The bins of a chunk's decision from its (rows, units) top bytes.

        Each row of ``table`` holds its tie bytes after its ``first`` bytes. A
        row with more ties than that is digested again at the length it needs.
        """
        rows, units = top.shape
        ties = tie_positions(top, thresholds)
        # Each tie's row, and its rank among its row's ties.
        bounds = np.searchsorted(ties, np.arange(rows + 1) * units)
        row = np.repeat(np.arange(rows), np.diff(bounds))
        rank = np.arange(len(ties)) - bounds[row]
        spare = table[:, first:]
        need, held = 3 * np.diff(bounds), spare.shape[1]
        if len(ties) and need.max() > held:
            spare = np.pad(spare, ((0, 0), (0, need.max() - held)))
            for r in np.flatnonzero(need > held).tolist():
                redo = hashlib.shake_128(self._heads[r] + tail).digest(first + int(need[r]))
                spare[r, :need[r]] = np.frombuffer(redo, dtype=np.uint8, offset=first)
        # Each tie's 3 bytes, little-endian.
        low = spare[row[:, None], 3 * rank[:, None] + np.arange(3)].astype(np.int64) @ [1, 1 << 8, 1 << 16]
        return decide(top, ties, low, thresholds)


def random_bits(stream: Substream, count: int) -> np.ndarray:
    """``count`` independent fair bits as a uint8 plane: the phase's one draw."""
    return stream.draw((1, count))[0]


def as_plane(bits) -> np.ndarray:
    """A sequence of 0/1 (tuple, list, bytes or array) as a uint8 plane."""
    if isinstance(bits, np.ndarray):
        plane = bits.astype(np.uint8)
    else:
        plane = np.frombuffer(bytes(bits), dtype=np.uint8)
    if plane.size and plane.max() > 1:
        raise ValueError("bits must be 0 or 1")
    return plane


def _choose(mask: np.ndarray, a, b):
    """``np.where(mask, a, b)`` for bits, as bit arithmetic.

    ``np.where`` branches at every position, and on a random mask it is about
    30x slower than this.
    """
    return b ^ ((a ^ b) & mask)


@dataclass(eq=False)
class QubitBlock:
    """Position k holds the state with value[k] in basis[k], unless lost[k].

    Basis 0 is Z and 1 is X, as in ``qubits``. Planes are never written in
    place, so blocks may share them (``split_for_receivers`` hands out views).
    A batch of trials stacks their planes on a leading axis; every kernel works
    position by position, so it runs on the stack as it does on one block.
    """

    value: np.ndarray  # uint8
    basis: np.ndarray  # uint8
    lost: np.ndarray  # bool: deleted in transit

    @classmethod
    def encode(cls, values: np.ndarray, bases: np.ndarray) -> "QubitBlock":
        """Fresh states carrying ``values`` in ``bases`` (``qubits.encode``)."""
        return cls(values, bases, np.zeros(values.shape, dtype=bool))

    @property
    def qubits(self) -> list[Qubit | None]:
        """The block in the symbolic algebra, one entry per position."""
        return [
            None if gone else Qubit(v, b)
            for v, b, gone in zip(self.value.tolist(), self.basis.tolist(), self.lost.tolist())
        ]

    def __len__(self) -> int:
        """Positions per trial."""
        return self.value.shape[-1]

    def __iter__(self):
        """The block read as a sequence of ``Qubit | None``, as 0.1.0 blocks were."""
        return iter(self.qubits)

    def xor(self, values: np.ndarray, bases: np.ndarray) -> "QubitBlock":
        """``apply_value_flip`` where ``values`` is 1, then ``apply_hadamard`` where ``bases`` is 1."""
        return QubitBlock(self.value ^ values, self.basis ^ bases, self.lost)

    def pauli(self, x: np.ndarray, z: np.ndarray) -> "QubitBlock":
        """``apply_pauli`` with the Pauli whose (x, z) bits are given per position."""
        return QubitBlock(self.value ^ _choose(self.basis == 0, x, z), self.basis, self.lost)

    def drop(self, mask: np.ndarray) -> "QubitBlock":
        """Delete the masked positions."""
        return QubitBlock(self.value, self.basis, self.lost | mask)

    def substitute(self, mask: np.ndarray, values: np.ndarray, bases: np.ndarray) -> "QubitBlock":
        """Replace the masked positions by the states (values, bases)."""
        return QubitBlock(_choose(mask, values, self.value), _choose(mask, bases, self.basis), self.lost)

    def measure(self, bases: np.ndarray, coins: np.ndarray) -> np.ndarray:
        """``qubits.measure`` everywhere: the value where ``bases`` matches, else the coin."""
        return _choose(self.basis == bases, self.value, coins)

    def collapse(
        self, mask: np.ndarray, bases: np.ndarray, coins: np.ndarray
    ) -> tuple[np.ndarray, "QubitBlock"]:
        """Measure in ``bases`` and leave the masked positions in the collapsed states.

        Returns the outcome at every position and the block with each masked
        position re-encoded as ``encode(outcome, basis)``.
        """
        outcome = self.measure(bases, coins)
        return outcome, self.substitute(mask, outcome, bases)


def combined_basis(strings: Sequence[np.ndarray], blocks: int) -> np.ndarray:
    """The decoding basis: the XOR of every sender's announced basis string.

    A string (with any leading batch axes) holds one basis per position n*j + l-1
    or one per block j. The result is (..., blocks, n), or (..., blocks, 1) while
    every string is per block: nothing is sized by n until a string has n per block.
    """
    planes = [s.reshape(*s.shape[:-1], blocks, -1) for s in strings]
    return functools.reduce(np.bitwise_xor, planes)


def check_tally(revealed: np.ndarray, expected: np.ndarray, axis=None):
    """(compared, disagreements) of a check, counted over ``axis``.

    Compared are the revealed outcomes that are not UNUSABLE; a disagreement
    is a compared outcome that differs from ``expected``, the senders' XOR.
    """
    shown = revealed != UNUSABLE
    return np.count_nonzero(shown, axis=axis), np.count_nonzero(shown & (revealed != expected), axis=axis)


def key_block_mask(usable_by_receiver: Sequence[np.ndarray], checked: np.ndarray) -> np.ndarray:
    """Blocks giving one key bit each: unchecked, and usable in every receiver's (..., blocks) mask.

    A list, not one (..., blocks, n) plane: ``.all`` over that short last axis is 20x slower.
    """
    return np.logical_and.reduce(usable_by_receiver) & ~checked


def sift_mask(arrived: np.ndarray, guessed: np.ndarray | None = None, combined=None) -> np.ndarray:
    """Outcomes that count: arrived and, when ``guessed`` is given, measured in the ``combined`` basis.

    Without quantum memory a receiver measures in guessed bases; with it, every arrival counts.
    """
    return arrived if guessed is None else arrived & (guessed == combined)


def receivers_xor(bits: np.ndarray) -> np.ndarray:
    """Each block's key bit: the XOR of its receivers' bits, which lie along the last axis.

    Reduced over a leading axis of a copy: over that short last axis it is 10x slower.
    """
    return np.bitwise_xor.reduce(np.moveaxis(bits, -1, 0).copy(), axis=0)
