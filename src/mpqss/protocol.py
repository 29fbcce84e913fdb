"""Multi-sender, multi-receiver secret-sharing protocol over single qubits.

One run: the first sender prepares a block of n*N qubits from her two random
strings; each later sender chains value flips and basis swaps driven by her
own strings; the last sender deals one qubit per block to each of the n
receivers; receivers acknowledge, senders publish their basis strings (never
earlier), receivers measure in the combined basis, everyone compares a random
subset of blocks, and the surviving blocks' XOR-across-receivers becomes the
raw key. Every inter-party hop goes through a channel model that may lose
qubits, add Pauli noise, or host an adversary.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .channel import (
    IDEAL,
    AttackResult,
    ChannelModel,
    ColluderInsider,
    InterceptResend,
    LossStrategy,
    OrderingAttack,
    PreparerInsider,
    collusion_attack,
    ordering_attack,
    preparer_attack,
    transmit,
)
from .errors import ConfigError, OrderingError, ProtocolStateError
from .planes import UNUSABLE, QubitBlock, as_plane, random_bits, random_words

# The per-qubit algebra that the plane kernels vectorise; perfbench/tracing.py
# counts calls at these names.
from .qubits import apply_hadamard, apply_value_flip, encode, measure  # noqa: F401
from .transcript import (
    KIND_ABORT,
    KIND_ACK,
    KIND_BASES,
    KIND_CHECK_RECV,
    KIND_CHECK_RESULT,
    KIND_CHECK_SELECT,
    KIND_CHECK_SENDER,
    KIND_EARLY_MEASURE,
    KIND_GUESS,
    KIND_KEY_CONTRIB,
    KIND_LOSS,
    KIND_MEASURED,
    KIND_RAW_KEY,
    KIND_SIFT,
    AdversaryRecord,
    Transcript,
    bits_to_str,
)


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
        aliases = {
            "main": cls.MAIN,
            "block_basis": cls.BLOCK_BASIS,
            "block-basis": cls.BLOCK_BASIS,
            "a": cls.BLOCK_BASIS,
            "block_shared": cls.BLOCK_SHARED,
            "block-shared": cls.BLOCK_SHARED,
            "b": cls.BLOCK_SHARED,
        }
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
        if self.senders < 2:
            raise ConfigError(f"{p}senders", "need at least two senders")
        if self.receivers < 2:
            raise ConfigError(f"{p}receivers", "need at least two receivers")
        if self.blocks < 1:
            raise ConfigError(f"{p}blocks", "need at least one block")
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


def block_of(k: int, receivers: int) -> int:
    return k // receivers


def receiver_of(k: int, receivers: int) -> int:
    return k % receivers + 1


@dataclass(frozen=True)
class PartySecrets:
    """One sender's random strings for a run; sizes depend on the variant."""

    party: str
    value_bits: tuple[int, ...]
    basis_bits: tuple[int, ...]
    value_shares: tuple[int, ...] | None = None  # first sender, shared-block variant

    @classmethod
    def from_planes(
        cls, party: str, value: np.ndarray, basis: np.ndarray, shares: np.ndarray | None = None
    ) -> "PartySecrets":
        """Secrets drawn as planes; the planes are kept rather than rebuilt from the tuples."""
        secrets = cls(
            party,
            _bits_tuple(value),
            _bits_tuple(basis),
            None if shares is None else _bits_tuple(shares),
        )
        secrets.__dict__["planes"] = (value, basis, shares)  # seeds the cached property
        return secrets

    @cached_property
    def planes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(value, basis, shares) strings as uint8 planes, converted once."""
        shares = None if self.value_shares is None else as_plane(self.value_shares)
        return as_plane(self.value_bits), as_plane(self.basis_bits), shares


def _bits_tuple(plane: np.ndarray) -> tuple[int, ...]:
    """A uint8 plane as the tuple of ints the public records hold."""
    return tuple(plane.tobytes())


def _payload(plane: np.ndarray) -> str:
    """Transcript payload of a uint8 or bool plane (UNUSABLE renders as '?')."""
    return bits_to_str(plane.tobytes())


def _expand_shares(value_bits: np.ndarray, receivers: int, rng: random.Random) -> np.ndarray:
    """Split each bit into ``receivers`` single-qubit shares with matching XOR.

    Uniform over the 2^(n-1) satisfying assignments per block: the first n-1
    shares are free and the last absorbs the parity.
    """
    free = random_bits(rng, len(value_bits) * (receivers - 1)).reshape(-1, receivers - 1)
    parity = value_bits ^ np.bitwise_xor.reduce(free, axis=1)
    return np.column_stack([free, parity]).ravel()


def secret_lengths(cfg: ProtocolConfig) -> tuple[int, int]:
    """(value string length, basis string length) for one sender."""
    if cfg.variant is Variant.MAIN:
        return cfg.total_qubits, cfg.total_qubits
    if cfg.variant is Variant.BLOCK_BASIS:
        return cfg.total_qubits, cfg.blocks
    return cfg.blocks, cfg.blocks


def generate_secrets(cfg: ProtocolConfig, rng: random.Random) -> list[PartySecrets]:
    """Fresh random strings for every sender, never reused across runs.

    A sender listed in ``omit_hadamard`` skips the basis-mixing step, which is
    the same as using (and later publishing) an all-zero basis string.
    """
    out = []
    n_value, n_basis = secret_lengths(cfg)
    for i in range(1, cfg.senders + 1):
        value_bits = random_bits(rng, n_value)
        if i in cfg.omit_hadamard:
            basis_bits = np.zeros(n_basis, dtype=np.uint8)
        else:
            basis_bits = random_bits(rng, n_basis)
        shares = None
        if cfg.variant is Variant.BLOCK_SHARED and i == 1:
            shares = _expand_shares(value_bits, cfg.receivers, rng)
        out.append(PartySecrets.from_planes(f"alice{i}", value_bits, basis_bits, shares))
    return out


def _check_secret_sizes(secrets: PartySecrets, cfg: ProtocolConfig, first: bool) -> None:
    n_value, n_basis = secret_lengths(cfg)
    if len(secrets.value_bits) != n_value or len(secrets.basis_bits) != n_basis:
        raise ConfigError(
            "secrets",
            f"{secrets.party}: expected {n_value} value bits and {n_basis} basis bits, "
            f"got {len(secrets.value_bits)} and {len(secrets.basis_bits)}",
        )
    if cfg.variant is Variant.BLOCK_SHARED and first:
        if secrets.value_shares is None or len(secrets.value_shares) != cfg.total_qubits:
            raise ConfigError("secrets", f"{secrets.party}: needs {cfg.total_qubits} value shares")


def expanded_bit_vectors(
    secrets: Sequence[PartySecrets], cfg: ProtocolConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-position value and basis planes for every sender, shape (senders, n*N).

    Expands block-granular strings so position arithmetic is uniform across
    variants: the bit governing qubit k of sender i lands at [i-1][k].
    """
    n = cfg.receivers
    values = []
    bases = []
    for s in secrets:
        v, b, shares = s.planes
        if cfg.variant is Variant.BLOCK_BASIS:
            b = np.repeat(b, n)
        elif cfg.variant is Variant.BLOCK_SHARED:
            # Only the first sender carries per-position shares of her bits.
            v = shares if shares is not None else np.repeat(v, n)
            b = np.repeat(b, n)
        values.append(v)
        bases.append(b)
    return np.array(values), np.array(bases)


def prepare_block(secrets: PartySecrets, cfg: ProtocolConfig) -> QubitBlock:
    """First sender turns her strings into the initial qubit block."""
    _check_secret_sizes(secrets, cfg, first=True)
    values, bases = expanded_bit_vectors([secrets], cfg)
    return QubitBlock.encode(values[0], bases[0])


def encode_block(
    block: QubitBlock, secrets: PartySecrets, sender_index: int, cfg: ProtocolConfig
) -> QubitBlock:
    """Sender ``sender_index`` chains her value flips, then her basis swaps.

    The net effect on position k is to XOR her governing bits into the state's
    (value, basis) pair, so the final block carries the running XOR of every
    sender's bits.
    """
    if sender_index < 2 or sender_index > cfg.senders:
        raise ConfigError("secrets", f"sender index {sender_index} out of range")
    if len(block) != cfg.total_qubits:
        raise ConfigError("secrets", f"block has {len(block)} qubits, expected {cfg.total_qubits}")
    _check_secret_sizes(secrets, cfg, first=False)
    values, bases = expanded_bit_vectors([secrets], cfg)
    return block.xor(values[0], bases[0])


def split_for_receivers(block: QubitBlock, cfg: ProtocolConfig) -> list[QubitBlock]:
    """Round-robin deal: receiver l takes positions n*j + l, order preserved."""
    if len(block) != cfg.total_qubits:
        raise ConfigError("secrets", f"block has {len(block)} qubits, expected {cfg.total_qubits}")
    n = cfg.receivers
    return [QubitBlock(block.value[l::n], block.basis[l::n], block.lost[l::n]) for l in range(n)]


def announce_bases(
    tr: Transcript, sender_index: int, basis_bits: Sequence[int], cfg: ProtocolConfig
) -> None:
    """Publish one sender's basis string.

    With ordering enforcement on, this refuses to run until every receiver has
    acknowledged reception; announcing earlier hands the whole encoding to
    anyone holding the transiting qubits.
    """
    if cfg.enforce_ordering and len(tr.ack_seqs) < cfg.receivers:
        missing = [l for l in range(1, cfg.receivers + 1) if l not in tr.ack_seqs]
        raise OrderingError(
            f"sender {sender_index} tried to announce bases before receivers "
            f"{missing} acknowledged reception"
        )
    plane = as_plane(basis_bits)
    ev = tr.record(KIND_BASES, f"alice{sender_index}", _payload(plane))
    tr.announced_bases[sender_index] = _bits_tuple(plane)
    tr.bases_seqs[sender_index] = ev.seq


def combined_bases(tr: Transcript, cfg: ProtocolConfig) -> np.ndarray:
    """Per-position XOR of all announced basis strings (the decoding basis)."""
    if len(tr.announced_bases) < cfg.senders:
        raise ProtocolStateError("not every sender has announced a basis string")
    combined = np.zeros(cfg.total_qubits, dtype=np.uint8)
    for bits in tr.announced_bases.values():
        plane = as_plane(bits)
        if len(plane) != cfg.total_qubits:
            plane = np.repeat(plane, cfg.receivers)
        combined ^= plane
    return combined


@dataclass(eq=False)
class Readout:
    """Every receiver's record as (N, n) planes: row j is block j, column l-1 receiver l."""

    outcome: np.ndarray  # uint8 measurement outcome; meaningless where lost
    lost: np.ndarray  # bool: no qubit arrived
    usable: np.ndarray  # bool: arrived and measured in the combined basis


def _unchecked_blocks(tr: Transcript, cfg: ProtocolConfig) -> np.ndarray:
    unchecked = np.ones(cfg.blocks, dtype=bool)
    unchecked[np.array(tr.check_blocks, dtype=np.intp)] = False
    return unchecked


def run_check(
    tr: Transcript,
    cfg: ProtocolConfig,
    values: np.ndarray,
    readout: Readout,
    rng: random.Random,
    check_blocks: Sequence[int] | None = None,
) -> bool:
    """Reveal a random subset of blocks and compare outcomes against the XOR.

    ``values`` holds every sender's per-position value plane. Aborts the run
    when the disagreement rate among comparable revealed positions exceeds
    the configured threshold. Returns True on pass.
    """
    want = cfg.checked_block_count
    if check_blocks is None:
        # The blocks holding the ``want`` smallest of N independent uniform
        # keys form a uniformly random subset.
        keys = random_words(rng, cfg.blocks)
        checked = np.zeros(cfg.blocks, dtype=bool)
        checked[np.argpartition(keys, want - 1)[:want]] = True
        rows = np.flatnonzero(checked)
        blocks = tuple(rows.tolist())
    else:
        blocks = tuple(sorted(int(j) for j in check_blocks))
        if len(set(blocks)) != want or any(not 0 <= j < cfg.blocks for j in blocks):
            raise ConfigError("check_blocks", f"need {want} distinct block indices in [0, {cfg.blocks})")
        rows = np.array(blocks, dtype=np.intp)
    tr.check_blocks = blocks
    tr.record(KIND_CHECK_SELECT, "all", ",".join(map(str, blocks)) or "-")

    # Reveal order: checked blocks ascending, receivers ascending within each.
    sent = values.reshape(len(values), cfg.blocks, cfg.receivers)[:, rows]
    for i, bits in enumerate(sent, start=1):
        tr.record(KIND_CHECK_SENDER, f"alice{i}", _payload(bits))
    usable = readout.usable[rows]
    outcome = readout.outcome[rows]
    revealed = np.where(usable, outcome, UNUSABLE)
    for l in range(1, cfg.receivers + 1):
        tr.record(KIND_CHECK_RECV, f"bob{l}", _payload(revealed[:, l - 1]))
    expected = np.bitwise_xor.reduce(sent, axis=0)
    compared = int(np.count_nonzero(usable))
    disagree = int(np.count_nonzero(usable & (outcome != expected)))
    rate = disagree / compared if compared else 0.0
    tr.compared = compared
    tr.disagreements = disagree
    tr.qber = rate
    passed = rate <= cfg.qber_abort_threshold
    tr.record(
        KIND_CHECK_RESULT,
        "all",
        f"compared={compared};disagree={disagree};rate={rate:.6f};"
        f"threshold={cfg.qber_abort_threshold:.6f};pass={1 if passed else 0}",
    )
    if not passed:
        tr.abort_reason = f"error rate {rate:.6f} above threshold {cfg.qber_abort_threshold:.6f}"
        tr.record(KIND_ABORT, "all", "error-rate")
    return passed


def extract_raw_key(
    tr: Transcript, cfg: ProtocolConfig, values: np.ndarray, readout: Readout
) -> None:
    """XOR each surviving unchecked block across receivers into one key bit.

    A block survives when every receiver holds a usable outcome for it. Each
    receiver's contribution and the combined key are both recorded; combining
    them is a joint computation, with no aggregation mechanism prescribed.
    """
    if tr.qber is None:
        raise ProtocolStateError("raw key requested before the check ran")
    if tr.abort_reason is not None:
        raise ProtocolStateError("raw key requested after an abort")
    key_blocks = np.flatnonzero(_unchecked_blocks(tr, cfg) & readout.usable.all(axis=1))
    tr.key_blocks = tuple(key_blocks.tolist())
    contrib = readout.outcome[key_blocks]
    for l in range(1, cfg.receivers + 1):
        tr.record(KIND_KEY_CONTRIB, f"bob{l}", _payload(contrib[:, l - 1]))
    key = np.bitwise_xor.reduce(contrib, axis=1)
    tr.raw_key = _bits_tuple(key)
    tr.record(KIND_RAW_KEY, "all", _payload(key))

    truth = np.bitwise_xor.reduce(values, axis=0).reshape(cfg.blocks, cfg.receivers)
    tr.reference_key = _bits_tuple(np.bitwise_xor.reduce(truth[key_blocks], axis=1))


def _finalize_rates(tr: Transcript, cfg: ProtocolConfig, readout: Readout | None) -> None:
    if readout is None:  # aborted before any qubit was measured
        tr.sift_rate = tr.efficiency = 0.0
        return
    received = readout.lost.size - int(np.count_nonzero(readout.lost))
    usable = int(np.count_nonzero(readout.usable))
    tr.sift_rate = usable / received if received else 0.0
    unchecked = _unchecked_blocks(tr, cfg)
    total = int(np.count_nonzero(unchecked)) * cfg.receivers
    tr.efficiency = int(np.count_nonzero(readout.usable[unchecked])) / total if total else 0.0


def _attack_record(result: AttackResult) -> AdversaryRecord:
    return AdversaryRecord(
        result.kind,
        tuple(result.positions.tolist()),
        _bits_tuple(result.bases),
        _bits_tuple(result.bits),
        tuple(result.certain.tolist()),
    )


def _record_readout(
    tr: Transcript, cfg: ProtocolConfig, readout: Readout, chosen: np.ndarray
) -> None:
    """Publish each receiver's records and fill the transcript's typed mirrors."""
    shown = np.where(readout.lost, UNUSABLE, readout.outcome)
    outcomes = readout.outcome.T.tolist()
    rows, columns = np.nonzero(readout.lost)
    for j, c in zip(rows.tolist(), columns.tolist()):
        outcomes[c][j] = None
    usable = readout.usable.T.tolist()
    chosen_bases = chosen.T.tolist()
    for l in range(1, cfg.receivers + 1):
        c = l - 1
        tr.outcomes[l] = outcomes[c]
        tr.usable[l] = usable[c]
        tr.chosen_bases[l] = tuple(chosen_bases[c])
        if not cfg.quantum_memory:
            tr.guesses[l] = tr.chosen_bases[l]
            tr.record(KIND_GUESS, f"bob{l}", _payload(chosen[:, c]))
            tr.record(KIND_SIFT, f"bob{l}", _payload(readout.usable[:, c]))
        tr.record(KIND_MEASURED, f"bob{l}", _payload(shown[:, c]))


def run_protocol(
    cfg: ProtocolConfig,
    channel: ChannelModel | None = None,
    *,
    secrets: Sequence[PartySecrets] | None = None,
    check_blocks: Sequence[int] | None = None,
) -> Transcript:
    """Execute one full run and return its transcript.

    Deterministic given (cfg.seed, channel): every draw comes from one
    ``random.Random`` seeded with cfg.seed, a whole array at a time. ``secrets`` and
    ``check_blocks`` inject fixed strings and a fixed check selection for
    reproducing known vectors; normally both are drawn from that generator.
    """
    channel = channel if channel is not None else IDEAL
    channel.validate()
    if isinstance(channel.adversary, ColluderInsider) and channel.adversary.target > cfg.senders:
        raise ConfigError(
            "channel.adversary.target",
            f"sender {channel.adversary.target} does not exist in a {cfg.senders}-sender run",
        )
    rng = random.Random(cfg.seed)
    tr = Transcript(cfg.snapshot())
    m, n, size = cfg.senders, cfg.receivers, cfg.total_qubits

    alices = list(secrets) if secrets is not None else generate_secrets(cfg, rng)
    if len(alices) != m:
        raise ConfigError("secrets", f"need {m} senders' secrets, got {len(alices)}")
    for i, s in enumerate(alices):
        _check_secret_sizes(s, cfg, first=i == 0)
    tr._secrets = alices
    values, basis_vectors = expanded_bit_vectors(alices, cfg)
    basis_strings = [s.planes[1] for s in alices]  # as announced, not expanded per position
    adv = channel.adversary
    # An intercept-resend adversary sits on the last hop only.
    inner_hop = channel if adv is None else replace(channel, adversary=None)
    last_hop = channel if isinstance(adv, InterceptResend) else inner_hop

    def hop(block: QubitBlock, leaving: int) -> QubitBlock:
        res = transmit(block, last_hop if leaving == m else inner_hop, rng)
        block = res.block
        if len(res.lost) and channel.loss_strategy is LossStrategy.REMOVE and leaving < m:
            bitmap = np.zeros(size, dtype=np.uint8)
            bitmap[res.lost] = 1
            tr.record(KIND_LOSS, f"alice{leaving + 1}", _payload(bitmap))
        if res.intercept is not None:
            tr.adversary = _attack_record(res.intercept)
        if isinstance(adv, PreparerInsider) and leaving == 2:
            result, block = preparer_attack(values[0], basis_vectors[0], block, rng)
            tr.adversary = _attack_record(result)
        elif isinstance(adv, ColluderInsider) and leaving == adv.target:
            colluders = adv.colluders if adv.colluders is not None else frozenset(range(1, adv.target))
            known_values = {i: values[i - 1] for i in colluders}
            known_bases = {
                i: basis_vectors[i - 1] for i in colluders if i not in adv.withheld_bases
            }
            result, block = collusion_attack(known_values, known_bases, block, rng)
            tr.adversary = _attack_record(result)
        elif isinstance(adv, OrderingAttack) and leaving == m:
            if adv.use_announced_bases and len(tr.announced_bases) == m:
                announced = basis_vectors  # announced strings, expanded per position
                result, block = ordering_attack(announced, block, rng)
            else:
                result, block = ordering_attack(None, block, rng)
            tr.adversary = _attack_record(result)
        return block

    block = prepare_block(alices[0], cfg)
    for i in range(2, m + 1):
        block = encode_block(hop(block, leaving=i - 1), alices[i - 1], i, cfg)

    # An ordering attack relies on the senders broadcasting before reception.
    announce_early = isinstance(adv, OrderingAttack) and adv.use_announced_bases
    if announce_early:
        try:
            for i in range(1, m + 1):
                announce_bases(tr, i, basis_strings[i - 1], cfg)
        except OrderingError as err:
            tr.abort_reason = f"ordering violation: {err}"
            tr.record(KIND_ABORT, "all", "ordering-violation")
            _finalize_rates(tr, cfg, None)
            return tr

    block = hop(block, leaving=m)
    for l, received in enumerate(split_for_receivers(block, cfg), start=1):
        if channel.loss_strategy is LossStrategy.REMOVE and received.lost.any():
            tr.record(KIND_LOSS, f"bob{l}", _payload(received.lost))
        ev = tr.record(KIND_ACK, f"bob{l}")
        tr.ack_seqs[l] = ev.seq

    if not cfg.quantum_memory:
        # No storage: measure in guessed bases before any announcement.
        guesses = random_bits(rng, size)
        outcome = block.measure(guesses, random_bits(rng, size))
        for l in range(1, n + 1):
            tr.record(KIND_EARLY_MEASURE, f"bob{l}")

    if not announce_early:
        for i in range(1, m + 1):
            announce_bases(tr, i, basis_strings[i - 1], cfg)

    required = combined_bases(tr, cfg)
    if cfg.quantum_memory:
        chosen = required
        outcome = block.measure(required, random_bits(rng, size))
        usable = ~block.lost
    else:
        chosen = guesses
        usable = ~block.lost & (guesses == required)
    shape = (cfg.blocks, n)
    readout = Readout(outcome.reshape(shape), block.lost.reshape(shape), usable.reshape(shape))
    _record_readout(tr, cfg, readout, chosen.reshape(shape))

    if run_check(tr, cfg, values, readout, rng, check_blocks=check_blocks):
        extract_raw_key(tr, cfg, values, readout)
    _finalize_rates(tr, cfg, readout)
    return tr
