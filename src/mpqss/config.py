"""Run configuration: protocol variants, validated parameters and position arithmetic."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ConfigError


class Variant(enum.Enum):
    """How value and basis bits are laid out across the block.

    MAIN: every sender draws n*N value bits and n*N basis bits, one of each
    per qubit. BLOCK_BASIS: n*N value bits but only N basis bits, one basis
    per n-qubit block. BLOCK_SHARED: N bits of each kind per sender; the
    first sender splits each value bit into n single-qubit shares whose XOR
    reproduces it (receivers must be odd in number or later senders' bits
    cancel out of the key).
    """

    MAIN = "main"
    BLOCK_BASIS = "block_basis"
    BLOCK_SHARED = "block_shared"

    @classmethod
    def parse(cls, text: str) -> "Variant":
        """A value, in any case and with '-' for '_', or the short names 'a' and 'b'."""
        aliases = {v.value: v for v in cls} | {v.value.replace("_", "-"): v for v in cls}
        aliases.update(a=cls.BLOCK_BASIS, b=cls.BLOCK_SHARED)
        try:
            return aliases[text.strip().lower()]
        except KeyError:
            raise ConfigError("variant", f"unknown variant {text!r}") from None


@dataclass(frozen=True)
class ProtocolConfig:
    senders: int
    receivers: int
    blocks: int
    variant: Variant = Variant.MAIN
    check_fraction: float = 0.5
    qber_abort_threshold: float = 0.11
    quantum_memory: bool = True
    seed: int = 0
    enforce_ordering: bool = True
    omit_hadamard: frozenset[int] = frozenset()
    unsafe_skip_validation: bool = False  # diagnostics only; documented failure modes apply

    def __post_init__(self):
        if not self.unsafe_skip_validation:
            self.validate()

    def validate(self, path: str = "") -> None:
        p = f"{path}." if path else ""
        for name in ("senders", "receivers", "blocks"):
            # Not a float, which would fail deep in the run with a TypeError, nor a bool.
            if type(getattr(self, name)) is not int:
                raise ConfigError(f"{p}{name}", "must be an int")
        if self.senders < 2:
            raise ConfigError(f"{p}senders", "need at least two senders")
        if self.receivers < 2:
            raise ConfigError(f"{p}receivers", "need at least two receivers")
        if self.blocks < 1:
            raise ConfigError(f"{p}blocks", "need at least one block")
        # Not a float, nor a bool, which reports would show as True over seed 1's draws.
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise ConfigError(f"{p}seed", "must be in [0, 2**64) and an int")
        if not 0.0 < self.check_fraction < 1.0:
            raise ConfigError(f"{p}check_fraction", "must be in (0, 1)")
        if not 0.0 < self.qber_abort_threshold < 1.0:
            raise ConfigError(f"{p}qber_abort_threshold", "must be in (0, 1)")
        if self.variant is Variant.BLOCK_SHARED and self.receivers % 2 == 0:
            raise ConfigError(
                f"{p}receivers",
                "the shared-block variant needs an odd receiver count or the key "
                "collapses to the first sender's bits",
            )
        if self.checked_block_count >= self.blocks:
            raise ConfigError(
                f"{p}check_fraction",
                f"checking ceil({self.check_fraction} * {self.blocks}) blocks leaves "
                "no unchecked block to carry key bits",
            )
        for i in self.omit_hadamard:
            if not 2 <= i <= self.senders:
                raise ConfigError(f"{p}omit_hadamard", f"sender {i} cannot skip basis mixing")

    @property
    def total_qubits(self) -> int:
        return self.receivers * self.blocks

    @property
    def checked_block_count(self) -> int:
        return checked_block_count(self.check_fraction, self.blocks)

    def snapshot(self) -> dict[str, str]:
        omit = ",".join(str(i) for i in sorted(self.omit_hadamard)) or "-"
        return {
            "senders": str(self.senders),
            "receivers": str(self.receivers),
            "blocks": str(self.blocks),
            "variant": self.variant.value,
            "check_fraction": repr(self.check_fraction),
            "qber_abort_threshold": repr(self.qber_abort_threshold),
            "quantum_memory": "1" if self.quantum_memory else "0",
            "seed": str(self.seed),
            "enforce_ordering": "1" if self.enforce_ordering else "0",
            "omit_hadamard": omit,
        }


def checked_block_count(check_fraction: float, blocks: int) -> int:
    """How many of ``blocks`` blocks the check reveals: ceil(check_fraction * blocks)."""
    # round() guards against 0.3 * 10 = 3.0000000000000004 style float dust
    return math.ceil(round(check_fraction * blocks, 9))


def position(block: int, receiver: int, receivers: int) -> int:
    """0-based qubit index of 0-based ``block`` and 1-based ``receiver``."""
    return block * receivers + (receiver - 1)
