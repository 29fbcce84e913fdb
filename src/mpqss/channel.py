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
from dataclasses import dataclass
from typing import ClassVar, Collection, Sequence, Union

import numpy as np

from .errors import ConfigError
from .planes import QubitBlock, Rng, as_plane, random_bits, random_floats
from .transcript import AdversaryRecord

# The per-qubit algebra that the plane kernels vectorise; perfbench/tracing.py
# counts calls at these names.
from .qubits import apply_pauli, encode, measure  # noqa: F401


@dataclass(frozen=True)
class InterceptResend:
    """Measure each transiting qubit in a fresh random basis and forward the collapse."""

    fraction: float = 1.0  # per-qubit interception probability

    def validate(self, path: str = "adversary") -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigError(f"{path}.fraction", "must be in (0, 1]")


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

    She measures each qubit in the basis she prepared it in and strips her own
    value bits, which reads the second sender's bits exactly whenever the
    second sender skipped the basis-mixing step.
    """

    target: ClassVar[int] = 2  # the sender whose block is intercepted

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

    @property
    def pool(self) -> Collection[int]:
        """The senders pooling their strings: ``colluders``, or the range of those below the target."""
        return range(1, self.target) if self.colluders is None else self.colluders

    def validate(self, path: str = "adversary") -> None:
        if self.target < 3:
            raise ConfigError(f"{path}.target", "collusion targets the third sender or later")
        bad = [c for c in self.colluders or () if not 1 <= c < self.target]
        if bad:
            raise ConfigError(f"{path}.colluders", f"must lie below the target, got {sorted(bad)}")
        if any(i not in self.pool for i in self.withheld_bases):
            raise ConfigError(f"{path}.withheld_bases", "must be a subset of the colluders")


Adversary = Union[InterceptResend, OrderingAttack, PreparerInsider, ColluderInsider]


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
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{path}.{name}", "must be in [0, 1]")
        if self.p_x + self.p_y + self.p_z > 1.0 + 1e-12:
            raise ConfigError(f"{path}.p_x", "p_x + p_y + p_z must not exceed 1")
        if self.adversary is not None:
            self.adversary.validate(f"{path}.adversary")


IDEAL = ChannelModel()


@dataclass
class TransmitResult:
    block: QubitBlock
    lost: np.ndarray  # positions lost on this hop, indexed as AdversaryRecord.positions
    intercept: AdversaryRecord | None = None


def transmit(block: QubitBlock, ch: ChannelModel, rng: Rng) -> TransmitResult:
    """Push a block, or a batch of them with one generator each, through one hop.

    Each position independently: lost with ``loss_prob`` (then deleted or
    substituted per the loss strategy); survivors suffer X/Y/Z noise with the
    configured probabilities and are finally exposed to an attached
    intercept-resend adversary. Positions lost on an earlier hop stay lost.
    """
    size = len(block)
    fresh = ~block.lost
    lost = np.zeros_like(fresh)
    if ch.loss_prob > 0.0 or ch.p_x + ch.p_y + ch.p_z > 0.0:
        # One uniform draw per position: below loss_prob the qubit is lost;
        # the rest of [0, 1) splits into X, Y, Z and no error in the ratio
        # p_x : p_y : p_z : rest. X and Y carry an x bit, Y and Z a z bit.
        u = random_floats(rng, size)
        kept = 1.0 - ch.loss_prob
        to_x = ch.loss_prob + kept * ch.p_x
        to_y = to_x + kept * ch.p_y
        to_z = to_y + kept * ch.p_z
        lost = fresh & (u < ch.loss_prob)
        if ch.loss_strategy is LossStrategy.SUBSTITUTE:
            block = block.substitute(lost, random_bits(rng, size), random_bits(rng, size))
        else:
            block = block.drop(lost)
        survived = fresh & ~lost
        block = block.pauli(survived & (u < to_y), survived & (u >= to_x) & (u < to_z))
    intercept = None
    if isinstance(ch.adversary, InterceptResend):
        block, intercept = intercept_resend(block, rng, fraction=ch.adversary.fraction)
    return TransmitResult(block, np.flatnonzero(lost), intercept)


def _intercept(
    kind: str,
    block: QubitBlock,
    hit: np.ndarray,
    plan: np.ndarray,
    strip,
    rng: Rng,
) -> tuple[AdversaryRecord, QubitBlock]:
    """Measure the ``hit`` positions in the planned bases, resend the collapsed
    states, and XOR a known ``strip`` off the readings."""
    plan = np.broadcast_to(np.asarray(plan, dtype=np.uint8), hit.shape)
    outcome, resent = block.collapse(hit, plan, random_bits(rng, len(block)))
    result = AdversaryRecord(
        kind,
        np.flatnonzero(hit),
        plan[hit],
        (outcome ^ strip)[hit],
        (plan == block.basis)[hit],
    )
    return result, resent


def _xor_all(planes):
    """XOR of the planes; 0 when there are none."""
    out = 0
    for bits in planes:
        out = out ^ as_plane(bits)
    return out


def intercept_resend(
    block: QubitBlock, rng: Rng, fraction: float = 1.0
) -> tuple[QubitBlock, AdversaryRecord]:
    """Standard intercept-resend: random basis per qubit, forward the collapsed state."""
    size = len(block)
    hit = ~block.lost
    if fraction < 1.0:
        hit &= random_floats(rng, size) < fraction
    result, resent = _intercept("intercept-resend", block, hit, random_bits(rng, size), 0, rng)
    return resent, result


def preparer_attack(
    prep_values: Sequence[int],
    prep_bases: Sequence[int],
    block: QubitBlock,
    rng: Rng,
) -> tuple[AdversaryRecord, QubitBlock]:
    """First sender reads the second sender's bits out of the intercepted block.

    She measures position k in the basis she prepared it in and XORs off her
    own value bit. Exact whenever the second sender applied no basis mixing;
    otherwise only the half of the positions left in her basis decode.
    """
    return _intercept(
        "preparer-insider", block, ~block.lost, as_plane(prep_bases), as_plane(prep_values), rng
    )


def collusion_attack(
    known_values: dict[int, Sequence[int]],
    known_bases: dict[int, Sequence[int]],
    block: QubitBlock,
    rng: Rng,
) -> tuple[AdversaryRecord, QubitBlock]:
    """Pooled-knowledge interception of the block leaving the targeted sender.

    ``known_values``/``known_bases`` map sender index to that sender's
    per-position bit vector as shared with the interceptor. Missing strings
    are treated as all zeros (the interceptor's best standing guess), which
    degrades accuracy exactly as the missing randomness dictates.
    """
    plan = _xor_all(known_bases.values())
    strip = _xor_all(known_values.values())
    return _intercept("colluder-insider", block, ~block.lost, plan, strip, rng)


def ordering_attack(
    announced_bases: Sequence[Sequence[int]] | None,
    block: QubitBlock,
    rng: Rng,
) -> tuple[AdversaryRecord, QubitBlock]:
    """Read the fully encoded block once every basis string is public.

    With all announcements in hand the interceptor measures each position in
    the combined basis and recovers the joint encoding bit everywhere, hence
    the whole raw key; with the strings withheld she can only guess bases.
    """
    if announced_bases is not None:
        plan = _xor_all(announced_bases)
        kind = "ordering-violation"
    else:
        plan = random_bits(rng, len(block))
        kind = "ordering-violation-blind"
    return _intercept(kind, block, ~block.lost, plan, 0, rng)
