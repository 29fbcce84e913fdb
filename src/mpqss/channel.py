"""Channel imperfections and adversary behaviours.

Covers per-qubit loss with the two loss-handling policies (publicly deleting
the position, or substituting a random state), Pauli noise, intercept-resend
eavesdropping, insider interception of a partially encoded block, and the
interception enabled by announcing basis strings too early.

Attack records carry two honest accuracy notions per touched position:

* best guess   -- fraction of inferred bits that happen to equal the truth,
* certain      -- fraction measured in a provably matching basis (knowable
                  once basis strings become public), which is the fraction
                  recovered with certainty rather than by coin flips.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import ClassVar, Collection, Union

import numpy as np

from .config import is_real
from .errors import ConfigError
from .planes import QubitBlock, Substream
from .transcript import AdversaryRecord

# The per-qubit algebra that the plane kernels vectorise; perfbench/tracing.py
# counts calls at these names.
from .qubits import apply_pauli, encode, measure  # noqa: F401


@dataclass(frozen=True)
class InterceptResend:
    """Measure each transiting qubit in a fresh random basis and forward the collapse."""

    fraction: float = 1.0  # per-qubit interception probability

    def validate(self, path: str = "adversary") -> None:
        if not is_real(self.fraction) or not 0.0 < self.fraction <= 1.0:
            raise ConfigError(f"{path}.fraction", "must be in (0, 1] and a real number")


@dataclass(frozen=True)
class OrderingAttack:
    """Intercept the distributed block after basis strings went public too early.

    With ``use_announced_bases`` the interceptor measures every position in
    the combined announced basis and reads the whole encoding; without it she
    is reduced to random guessing.
    """

    use_announced_bases: bool = True

    def validate(self, path: str = "adversary") -> None:  # nothing to check
        return


@dataclass(frozen=True)
class PreparerInsider:
    """The first sender intercepts the block leaving the second sender.

    She is a pool of one: she measures each qubit in the basis she prepared it
    in and strips her own value bits, which reads the second sender's bits
    exactly whenever the second sender skipped the basis-mixing step.
    """

    target: ClassVar[int] = 2  # the sender whose block is intercepted
    pool: ClassVar[tuple[int, ...]] = (1,)
    withheld_bases: ClassVar[frozenset[int]] = frozenset()
    kind: ClassVar[str] = "preparer-insider"  # the attack record's kind

    def validate(self, path: str = "adversary") -> None:
        return


@dataclass(frozen=True)
class ColluderInsider:
    """Senders below ``target`` pool their strings and intercept the block leaving it.

    ``colluders`` defaults to everyone below the target. Colluders listed in
    ``withheld_bases`` contributed their value strings but not their basis
    strings, degrading the interceptor's basis knowledge.
    """

    target: int
    colluders: frozenset[int] | None = None
    withheld_bases: frozenset[int] = frozenset()
    kind: ClassVar[str] = "colluder-insider"  # the attack record's kind

    @property
    def pool(self) -> Collection[int]:
        """The senders pooling their strings: ``colluders``, or the range of those below the target."""
        return range(1, self.target) if self.colluders is None else self.colluders

    def validate(self, path: str = "adversary") -> None:
        if type(self.target) is not int or self.target < 3:
            raise ConfigError(f"{path}.target", "collusion targets the third sender or later, an int")
        bad = [c for c in self.colluders or () if type(c) is not int or not 1 <= c < self.target]
        if bad:
            raise ConfigError(f"{path}.colluders", f"must be ints below the target, got {sorted(bad)}")
        if any(type(i) is not int or i not in self.pool for i in self.withheld_bases):
            raise ConfigError(f"{path}.withheld_bases", "must be a subset of the colluders")


Insider = Union[PreparerInsider, ColluderInsider]
Adversary = Union[InterceptResend, OrderingAttack, Insider]


class LossStrategy(enum.Enum):
    REMOVE = "remove"          # lost positions are announced and publicly deleted
    SUBSTITUTE = "substitute"  # a random four-state qubit stands in for a lost one


@dataclass(frozen=True)
class ChannelModel:
    """Per-qubit loss and Pauli noise, with an optional attached adversary."""

    loss_prob: float = 0.0
    p_x: float = 0.0
    p_y: float = 0.0
    p_z: float = 0.0
    loss_strategy: LossStrategy = LossStrategy.REMOVE
    adversary: Adversary | None = None

    def validate(self, path: str = "channel") -> None:
        for name in ("loss_prob", "p_x", "p_y", "p_z"):
            v = getattr(self, name)
            if not is_real(v) or not 0.0 <= v <= 1.0:
                raise ConfigError(f"{path}.{name}", "must be in [0, 1] and a real number")
        if self.p_x + self.p_y + self.p_z > 1.0 + 1e-12:
            raise ConfigError(f"{path}.p_x", "p_x + p_y + p_z must not exceed 1")
        if self.adversary is not None:
            self.adversary.validate(f"{path}.adversary")


IDEAL = ChannelModel()


@dataclass
class TransmitResult:
    block: QubitBlock
    lost_mask: np.ndarray  # bool: lost on this hop
    intercept: AdversaryRecord | None = None

    @functools.cached_property
    def lost(self) -> np.ndarray:
        """Positions lost on this hop, indexed as ``AdversaryRecord.positions``."""
        return np.flatnonzero(self.lost_mask)


def _thresholds(*probabilities: float) -> list[int]:
    """Each cumulative probability c as ``floor(c * 2**32)``.

    A uniform 32-bit word lies below it with probability ``floor(c * 2**32) / 2**32``,
    so a probability of 1.0 (2**32) holds at every word. A ``Substream`` decision
    compares the words with these thresholds exactly, in integers.
    """
    return [math.floor(c * 2.0**32) for c in probabilities]


def transmit(block: QubitBlock, ch: ChannelModel, stream: Substream) -> TransmitResult:
    """Push a block, or a batch of them with one seed each, through one hop.

    Each position independently: lost with ``loss_prob`` (then deleted or
    substituted per the loss strategy); survivors suffer X/Y/Z noise with the
    configured probabilities and are finally exposed to an attached
    intercept-resend adversary. Positions lost on an earlier hop stay lost.
    The hop draws from ``stream`` and the adversary from its "attack" phase.
    """
    size = len(block)
    fresh = ~block.lost
    lost = np.zeros_like(fresh)
    if ch.loss_prob > 0.0 or ch.p_x + ch.p_y + ch.p_z > 0.0:
        # One decision over a uniform 32-bit word per position: below the loss
        # threshold the qubit is lost; the rest of the range splits into X, Y,
        # Z and no error in the ratio p_x : p_y : p_z : rest. X and Y carry an
        # x bit, Y and Z a z bit. The word lies below threshold i exactly when
        # its bin is at most i.
        kept = 1.0 - ch.loss_prob
        to_x = ch.loss_prob + kept * ch.p_x
        to_y = to_x + kept * ch.p_y
        to_z = to_y + kept * ch.p_z
        # A substituted position takes a fresh value bit and basis bit.
        substitute = ch.loss_strategy is LossStrategy.SUBSTITUTE
        thresholds = _thresholds(ch.loss_prob, to_x, to_y, to_z)
        bins, *fill = stream.draw((thresholds, size), *[(1, size)] * (2 if substitute else 0))
        lost = fresh & (bins == 0)
        block = block.substitute(lost, *fill) if substitute else block.drop(lost)
        # Bins 1-2 (X, Y) and 2-3 (Y, Z) of the fresh positions; the uint8
        # subtraction wraps the lower bins past 255.
        block = block.pauli(fresh & (bins - 1 <= 1), fresh & (bins - 2 <= 1))
    intercept = None
    if isinstance(ch.adversary, InterceptResend):
        intercept, block = intercept_resend(block, stream.at("attack"), fraction=ch.adversary.fraction)
    return TransmitResult(block, lost, intercept)


def _intercept(
    kind: str,
    block: QubitBlock,
    hit: np.ndarray,
    plan: np.ndarray,
    strip,
    coins: np.ndarray,
) -> tuple[AdversaryRecord, QubitBlock]:
    """Measure the ``hit`` positions in the planned bases, with ``coins`` where
    the basis mismatches, resend the collapsed states, and XOR a known
    ``strip`` off the readings.

    The record gathers each plane at the hit positions by index, not through
    the mask: on a sparse random ``hit`` that is several times faster.
    """
    plan = np.broadcast_to(np.asarray(plan, dtype=np.uint8), hit.shape)
    outcome, resent = block.collapse(hit, plan, coins)
    at = np.flatnonzero(hit)

    def gather(plane):
        return plane.reshape(-1).take(at)

    planned = gather(plan)
    bits = gather(outcome) ^ (strip if np.ndim(strip) == 0 else gather(strip))
    return AdversaryRecord(kind, at, planned, bits, planned == gather(block.basis)), resent


def intercept_resend(
    block: QubitBlock, stream: Substream, fraction: float = 1.0
) -> tuple[AdversaryRecord, QubitBlock]:
    """Standard intercept-resend: random basis per qubit, forward the collapsed state.

    Draws, per position, a decision that picks the intercepted positions
    (only when ``fraction`` is below 1), then a basis bit and a coin.
    """
    size = len(block)
    hit = ~block.lost
    if fraction < 1.0:
        bins, plan, coins = stream.draw((_thresholds(fraction), size), (1, size), (1, size))
        hit &= bins == 0
    else:
        plan, coins = stream.draw((1, size), (1, size))
    return _intercept("intercept-resend", block, hit, plan, 0, coins)


def insider_attack(
    insider: Insider,
    values: np.ndarray,
    bases: np.ndarray,
    block: QubitBlock,
    stream: Substream,
) -> tuple[AdversaryRecord, QubitBlock]:
    """Pooled-knowledge interception of the block leaving the insider's target.

    ``values`` and ``bases`` hold one per-position row for each sender the
    block has passed, sender i at row i-1. The pool measures each position in
    the XOR of the basis rows it shared and XORs off its value rows; a withheld
    basis row counts as all zeros (the pool's best standing guess), which
    degrades accuracy exactly as the missing randomness dictates.
    """
    shown = [i - 1 for i in insider.pool if i not in insider.withheld_bases]
    plan = np.bitwise_xor.reduce(bases[shown], axis=0, initial=0)
    strip = np.bitwise_xor.reduce(values[[i - 1 for i in insider.pool]], axis=0, initial=0)
    [coins] = stream.draw((1, len(block)))
    return _intercept(insider.kind, block, ~block.lost, plan, strip, coins)


def ordering_attack(
    combined: np.ndarray | None,
    block: QubitBlock,
    stream: Substream,
) -> tuple[AdversaryRecord, QubitBlock]:
    """Read the fully encoded block once every basis string is public.

    With the ``combined`` announced basis in hand the interceptor measures each
    position in it and recovers the joint encoding bit everywhere, hence the
    whole raw key; with the strings withheld (``None``) she can only guess bases.
    Either way she draws a basis bit, used only when blind, then a coin per position.
    """
    guessed, coins = stream.draw((1, len(block)), (1, len(block)))
    if combined is None:
        return _intercept("ordering-violation-blind", block, ~block.lost, guessed, 0, coins)
    return _intercept("ordering-violation", block, ~block.lost, combined, 0, coins)
