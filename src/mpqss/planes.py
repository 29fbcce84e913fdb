"""Bit-plane engine: blocks of four-state qubits as whole arrays.

Every operation of the protocol maps |0>, |1>, |+>, |-> onto themselves (see
``qubits``), so a block of qubits is exactly two uint8 planes, value and
basis, plus a mask of lost positions. Each kernel below is one array
expression doing at every position what the named ``qubits`` function does to
one qubit. Kernels take their randomness as arrays (masks, bases, coins), so
they are pure functions; the tests compare them with ``qubits`` position by
position. The protocol's public rules (combined basis, sift mask, check
tally, key blocks, key bits) are stated here too, once: the engine applies
them to its own planes and replay to those it decodes, so replay still checks
a run independently.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .qubits import Qubit

# Plane code of a position that carries no usable outcome; payloads show '?'.
UNUSABLE = 2

# Each whole-array draw unpacks one ``getrandbits`` call of the run's
# ``random.Random``, so numpy.random, which ``import numpy`` leaves unloaded,
# is never loaded. Bytes are read little-endian, so the planes are the same on
# every platform. ``rng`` is either one generator or a sequence of them, one
# per trial; a sequence draws one row per generator, each exactly what that
# generator alone would give, so a batch of trials leaves every trial's
# stream as it is.
Rng = Union[random.Random, Sequence[random.Random]]


def _random_bytes(rng: Rng, count: int) -> np.ndarray:
    """``count`` random bytes per generator: shape (count,), or (trials, count) for a sequence."""
    if isinstance(rng, random.Random):
        return np.frombuffer(rng.getrandbits(8 * count).to_bytes(count, "little"), dtype=np.uint8)
    raw = b"".join([r.getrandbits(8 * count).to_bytes(count, "little") for r in rng])
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(rng), count)


def random_bits(rng: Rng, count: int) -> np.ndarray:
    """``count`` independent fair bits as a uint8 plane."""
    raw = _random_bytes(rng, -(-count // 8))
    return np.unpackbits(raw, axis=-1, count=count, bitorder="little")


def random_words(rng: Rng, count: int) -> np.ndarray:
    """``count`` independent uniform 64-bit integers."""
    return _random_bytes(rng, 8 * count).view("<u8")


def random_coins(rngs: Sequence[random.Random], counts: Sequence[int]) -> np.ndarray:
    """``counts[r]`` successive ``rngs[r].getrandbits(1)`` bits for every r, one call per generator.

    CPython answers ``getrandbits(1)`` with the top bit of one 32-bit output and
    ``getrandbits(32 * count)`` with ``count`` whole outputs, the first one
    lowest, so both give the same bits and leave the generator in the same
    state. The rows may differ in length and come back concatenated in order.
    """
    raw = b"".join([r.getrandbits(32 * c).to_bytes(4 * c, "little") for r, c in zip(rngs, counts)])
    return (np.frombuffer(raw, dtype="<u4") >> 31).astype(np.uint8)


def random_floats(rng: Rng, count: int) -> np.ndarray:
    """``count`` uniform draws from [0, 1) with the 53-bit resolution of ``random()``."""
    return (random_words(rng, count) >> 11) * 2.0**-53


def as_plane(bits) -> np.ndarray:
    """A sequence of 0/1 (tuple, list, bytes or array) as a uint8 plane."""
    if isinstance(bits, np.ndarray):
        plane = bits.astype(np.uint8)
    else:
        plane = np.frombuffer(bytes(bits), dtype=np.uint8)
    if plane.size and plane.max() > 1:
        raise ValueError("bits must be 0 or 1")
    return plane


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
        return QubitBlock(self.value ^ np.where(self.basis == 0, x, z), self.basis, self.lost)

    def drop(self, mask: np.ndarray) -> "QubitBlock":
        """Delete the masked positions."""
        return QubitBlock(self.value, self.basis, self.lost | mask)

    def substitute(self, mask: np.ndarray, values: np.ndarray, bases: np.ndarray) -> "QubitBlock":
        """Replace the masked positions by the states (values, bases)."""
        return QubitBlock(
            np.where(mask, values, self.value), np.where(mask, bases, self.basis), self.lost
        )

    def measure(self, bases: np.ndarray, coins: np.ndarray) -> np.ndarray:
        """``qubits.measure`` everywhere: the value where ``bases`` matches, else the coin."""
        return np.where(self.basis == bases, self.value, coins)

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
