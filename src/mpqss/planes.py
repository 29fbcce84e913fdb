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

import collections
import functools
import hashlib
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .qubits import Qubit

# Plane code of a position that carries no usable outcome; payloads show '?'.
UNUSABLE = 2

# The random stream's version: it keys every draw, so a stream change is a new version.
STREAM_VERSION = "0.5.0"

# The increment of SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the odd
# integer nearest 2**64 over the golden ratio.
GAMMA = 0x9E3779B97F4A7C15

# Words per row that a draw makes at a time, so that its temporaries stay in
# the cache and the heap; no unit depends on it.
_PASS_WORDS = 1 << 15


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, a bijection of 64-bit words, on each uint64 of ``z`` in place."""
    t = np.empty_like(z)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= np.right_shift(z, shift, out=t)
        z *= factor
    z ^= np.right_shift(z, 31, out=t)
    return z


def stream_words(keys: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Words ``start`` to ``stop - 1`` of each uint64 key's stream, a row per key.

    Word i of key K is ``mix64(K + (i + 1) * GAMMA)``, counter-based (Salmon et al., SC 2011).
    """
    z = np.arange(start + 1, stop + 1, dtype=np.uint64)
    z *= GAMMA
    return mix64(keys[:, None] + z)


def stream_keys(seeds: np.ndarray, phase: str, draws: int) -> np.ndarray:
    """Each uint64 seed's key of draw d of a call in ``phase``: ``mix64(mix64(seed ^ code) + d)``.

    The phase's code is the first 8 bytes of SHA-256 of "<STREAM_VERSION>:<phase>", little-endian.
    """
    code = int.from_bytes(hashlib.sha256(f"{STREAM_VERSION}:{phase}".encode()).digest()[:8], "little")
    return mix64(mix64(seeds ^ code)[:, None] + np.arange(draws, dtype=np.uint64))


class Substream:
    """The keyed random draws of one phase of a run, or of a batch of runs.

    ``seeds`` is one trial seed in [0, 2**64), or a sequence with one per
    trial, which draws a row per seed: what that seed alone gives. Any other
    seed is a ``ConfigError``. A unit depends on its seed, phase, draw in the
    call and index alone. Words are read little-endian, so planes are the
    same on every platform.
    """

    def __init__(self, seeds: int | Sequence[int], phase: str = ""):
        self.seeds, self.phase = seeds, phase
        given = [seeds] if isinstance(seeds, int) else seeds
        try:  # through index(), as a uint64 array would take 2.5 as 2 and "3" as 3; index() takes True as 1
            if bool in map(type, given):
                raise TypeError
            self._seeds = np.fromiter(map(operator.index, given), np.uint64, len(given))
        except (TypeError, OverflowError):
            raise ConfigError("seed", "must be in [0, 2**64) and an int") from None

    def __len__(self) -> int:
        """How many trials draw: one for a single seed."""
        return len(self._seeds)

    def at(self, phase: str) -> "Substream":
        """The same trials' draws in ``phase``."""
        sub = object.__new__(Substream)
        sub.seeds, sub.phase, sub._seeds = self.seeds, phase, self._seeds
        return sub

    def draw(self, *draws: tuple[int | Sequence[int], int]) -> list[np.ndarray]:
        """One plane per (kind, units) draw, read from the stream of its key (``stream_keys``).

        A kind of 1 gives 0/1 uint8 bits, bit k being bit k mod 64 of word k // 64.
        A kind of 64 gives the words, and 32 each word's low then high half. A
        sorted sequence of thresholds in [0, 2**32] is a decision over those
        32-bit words w: each unit's uint8 bin, the count of thresholds at most
        w, so w < thresholds[i] exactly when the bin is at most i.

        Each plane has shape (units,), or (trials, units) for a sequence of seeds.
        """
        out = []
        for key, (kind, units) in zip(stream_keys(self._seeds, self.phase, len(draws)).T, draws):
            width = kind if isinstance(kind, int) else 32
            plane = np.empty((len(key), units), np.uint8 if kind == 1 or kind != width else f"<u{width // 8}")
            step = _PASS_WORDS * 64 // width  # units per pass
            for lo in range(0, units, step):
                part, hi = plane[:, lo:lo + step], min(lo + step, units)
                words = stream_words(key, lo * width // 64, -(-hi * width // 64)).astype("<u8", copy=False)
                if kind == 1:
                    part[:] = np.unpackbits(words.view(np.uint8), axis=1, count=hi - lo, bitorder="little")
                elif kind == width:
                    part[:] = words.view(part.dtype)[:, :hi - lo]
                else:
                    w = words.view("<u4")[:, :hi - lo]
                    # A threshold of 0 is at most every word and one of 2**32 at most none, so
                    # neither is compared; a repeated one is compared once.
                    thresholds = collections.Counter(kind)
                    part[:] = thresholds.pop(0, 0)
                    thresholds.pop(2**32, None)
                    for t, copies in thresholds.items():
                        above = w >= t
                        part += above if copies == 1 else above.view(np.uint8) * np.uint8(copies)
            out.append(plane)
        return [plane[0] for plane in out] if isinstance(self.seeds, int) else out


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

    numpy branches at every position of ``np.where`` and of a masked gather
    ``x[mask]``, so on a random mask both are slow: this is about 30x faster
    than ``np.where``, ``reveal`` is its form for a constant, and the engine
    selects sparse positions as ``x.take(np.flatnonzero(mask))``.
    """
    return b ^ ((a ^ b) & mask)


def reveal(bits: np.ndarray, usable: np.ndarray) -> np.ndarray:
    """``np.where(usable, bits, UNUSABLE)`` for 0/1 ``bits``, as bit arithmetic.

    Where unusable, ``bits | 1`` is 1, and adding 1 makes it UNUSABLE.
    """
    unusable = (~usable).view(np.uint8)
    return (bits | unusable) + unusable


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
