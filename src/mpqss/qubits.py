"""Exact symbolic algebra for the four conjugate-basis single-qubit states.

A qubit is a (value, basis) bit pair: basis 0 is the Z basis {|0>, |1>},
basis 1 the X basis {|+>, |->}, and value selects the state within the basis.
The protocol's whole operation set maps this four-state family onto itself,
so tracking the two index bits is an exact simulation, not an approximation.
Global phase is dropped everywhere; no measurement statistic depends on it.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

Z_BASIS = 0
X_BASIS = 1

_KETS = {(0, 0): "|0>", (1, 0): "|1>", (0, 1): "|+>", (1, 1): "|->"}


@dataclass(frozen=True, slots=True)
class Qubit:
    """One of |0>, |1>, |+>, |-> up to global phase."""

    value: int
    basis: int

    def __post_init__(self):
        if self.value not in (0, 1) or self.basis not in (0, 1):
            raise ValueError(f"qubit bits must be 0 or 1, got {(self.value, self.basis)}")

    def ket(self) -> str:
        return _KETS[(self.value, self.basis)]


def encode(value: int, basis: int) -> Qubit:
    """Prepare the state carrying ``value`` in the given basis."""
    return Qubit(value, basis)


def apply_value_flip(q: Qubit) -> Qubit:
    """i*sigma_y flip: inverts the encoded value in either basis.

    The sign picked up on |0> and |-> is a global phase and is dropped.
    """
    return Qubit(q.value ^ 1, q.basis)


def apply_hadamard(q: Qubit) -> Qubit:
    """Exchange the Z and X bases, preserving the encoded value."""
    return Qubit(q.value, q.basis ^ 1)


class Pauli(enum.Enum):
    I = (0, 0)
    X = (1, 0)
    Z = (0, 1)
    Y = (1, 1)

    def compose(self, other: "Pauli") -> "Pauli":
        """Product modulo global phase (the group is Klein-four on (x, z) bits)."""
        return Pauli((self.value[0] ^ other.value[0], self.value[1] ^ other.value[1]))


def apply_pauli(q: Qubit, p: Pauli) -> Qubit:
    """Pauli action on the four-state family, phases dropped.

    X flips the value only in the Z basis (|+>, |-> are X eigenstates);
    Z flips it only in the X basis; Y flips it in both.
    """
    x_bit, z_bit = p.value
    flip = x_bit if q.basis == Z_BASIS else z_bit
    return Qubit(q.value ^ flip, q.basis)


def measure(q: Qubit, basis: int, rng: random.Random) -> int:
    """Projective measurement in the Z (0) or X (1) basis.

    Matched basis returns the encoded value deterministically; a mismatched
    basis returns a fair bit. Measurement consumes the state: a caller that
    forwards the qubit (an interceptor resending, say) must re-encode the
    collapsed state as ``encode(outcome, basis)``.
    """
    if basis not in (0, 1):
        raise ValueError(f"basis must be 0 or 1, got {basis}")
    if basis == q.basis:
        return q.value
    return rng.getrandbits(1)
