"""Multi-sender, multi-receiver secret-sharing protocol over single qubits.

One run: the first sender prepares a block of n*N qubits from her two random
strings; each later sender chains value flips and basis swaps driven by her
own strings; the last sender deals one qubit per block to each of the n
receivers; receivers acknowledge, senders publish their basis strings (never
earlier), receivers measure in the combined basis, everyone compares a random
subset of blocks, and the surviving blocks' XOR-across-receivers becomes the
raw key. Every inter-party hop goes through a channel model that may lose
qubits, add Pauli noise, or host an adversary.

``run_trials`` runs many seeded runs as chunks of trials whose planes are
stacked on a leading axis, each phase once per chunk; ``run_protocol`` is its
one-trial case.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

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
from .config import ProtocolConfig, Variant
from .errors import ConfigError, OrderingError, ProtocolStateError
from .planes import UNUSABLE, QubitBlock, Rng, as_plane, random_bits, random_words

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
    record_rows,
)


_STRINGS = ("value_bits", "basis_bits", "value_shares")  # the planes of PartySecrets


@dataclass(frozen=True, eq=False)
class PartySecrets:
    """One sender's random strings as uint8 planes; sizes depend on the variant.

    A batch of trials holds one row per trial. Strings given as sequences of
    0/1 (tuples, lists, bytes or arrays) are converted once, by ``as_plane``,
    when the object is built.
    """

    party: str
    value_bits: np.ndarray
    basis_bits: np.ndarray
    value_shares: np.ndarray | None = None  # first sender, shared-block variant

    def __post_init__(self):
        for name in _STRINGS:
            bits = getattr(self, name)
            if bits is not None:
                object.__setattr__(self, name, as_plane(bits))

    def trial(self, t: int) -> "PartySecrets":
        """Trial ``t``'s row of a batch, as views of planes that were checked when built."""
        row = object.__new__(PartySecrets)
        object.__setattr__(row, "party", self.party)
        for name in _STRINGS:
            plane = getattr(self, name)
            object.__setattr__(row, name, None if plane is None else plane[t])
        return row


def _payload(plane: np.ndarray) -> str:
    """Transcript payload of a uint8 or bool plane (UNUSABLE renders as '?')."""
    return bits_to_str(plane.tobytes())


def _trials(tr: Transcript | Sequence[Transcript]) -> list[Transcript]:
    """The transcripts of a batch; one transcript is a batch of one."""
    return [tr] if isinstance(tr, Transcript) else list(tr)


def _expand_shares(value_bits: np.ndarray, receivers: int, rng: Rng) -> np.ndarray:
    """Split each bit into ``receivers`` single-qubit shares with matching XOR.

    Uniform over the 2^(n-1) satisfying assignments per block: the first n-1
    shares are free and the last absorbs the parity.
    """
    shape = value_bits.shape
    free = random_bits(rng, shape[-1] * (receivers - 1)).reshape(*shape, receivers - 1)
    parity = value_bits ^ np.bitwise_xor.reduce(free, axis=-1)
    return np.concatenate([free, parity[..., None]], axis=-1).reshape(*shape[:-1], -1)


def secret_lengths(cfg: ProtocolConfig) -> tuple[int, int]:
    """(value string length, basis string length) for one sender."""
    if cfg.variant is Variant.MAIN:
        return cfg.total_qubits, cfg.total_qubits
    if cfg.variant is Variant.BLOCK_BASIS:
        return cfg.total_qubits, cfg.blocks
    return cfg.blocks, cfg.blocks


def generate_secrets(cfg: ProtocolConfig, rng: Rng) -> list[PartySecrets]:
    """Fresh random strings for every sender, never reused across runs.

    A sender listed in ``omit_hadamard`` skips the basis-mixing step, which is
    the same as using (and later publishing) an all-zero basis string. One
    generator gives one trial's planes; a sequence of generators, one per
    trial, gives planes with one row per trial.
    """
    single = isinstance(rng, random.Random)
    rngs = [rng] if single else rng
    out = []
    n_value, n_basis = secret_lengths(cfg)
    for i in range(1, cfg.senders + 1):
        value_bits = random_bits(rngs, n_value)
        if i in cfg.omit_hadamard:
            basis_bits = np.zeros((len(rngs), n_basis), dtype=np.uint8)
        else:
            basis_bits = random_bits(rngs, n_basis)
        shares = None
        if cfg.variant is Variant.BLOCK_SHARED and i == 1:
            shares = _expand_shares(value_bits, cfg.receivers, rngs)
        out.append(PartySecrets(f"alice{i}", value_bits, basis_bits, shares))
    return [s.trial(0) for s in out] if single else out


def _check_secret_sizes(secrets: PartySecrets, cfg: ProtocolConfig, first: bool) -> None:
    n_value, n_basis = secret_lengths(cfg)
    value, basis, shares = secrets.value_bits, secrets.basis_bits, secrets.value_shares
    if value.shape[-1] != n_value or basis.shape[-1] != n_basis:
        raise ConfigError(
            "secrets",
            f"{secrets.party}: expected {n_value} value bits and {n_basis} basis bits, "
            f"got {value.shape[-1]} and {basis.shape[-1]}",
        )
    if cfg.variant is Variant.BLOCK_SHARED and first:
        if shares is None or shares.shape[-1] != cfg.total_qubits:
            raise ConfigError("secrets", f"{secrets.party}: needs {cfg.total_qubits} value shares")


def expanded_bit_vectors(
    secrets: Sequence[PartySecrets], cfg: ProtocolConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-position value and basis planes for every sender, shape (senders, n*N).

    Expands block-granular strings so position arithmetic is uniform across
    variants: the bit governing qubit k of sender i lands at [i-1][k]. Batched
    strings give shape (senders, trials, n*N).
    """
    n = cfg.receivers
    values = []
    bases = []
    for s in secrets:
        v, b, shares = s.value_bits, s.basis_bits, s.value_shares
        if cfg.variant is Variant.BLOCK_BASIS:
            b = np.repeat(b, n, axis=-1)
        elif cfg.variant is Variant.BLOCK_SHARED:
            # Only the first sender carries per-position shares of her bits.
            v = shares if shares is not None else np.repeat(v, n, axis=-1)
            b = np.repeat(b, n, axis=-1)
        values.append(v)
        bases.append(b)
    return np.array(values), np.array(bases)


def prepare_block(secrets: PartySecrets, cfg: ProtocolConfig) -> QubitBlock:
    """First sender turns her strings into the initial qubit block (one per trial for a batch)."""
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
    return [
        QubitBlock(block.value[..., l::n], block.basis[..., l::n], block.lost[..., l::n])
        for l in range(n)
    ]


def announce_bases(
    tr: Transcript | Sequence[Transcript],
    sender_index: int,
    basis_bits: Sequence[int] | np.ndarray,
    cfg: ProtocolConfig,
) -> None:
    """Publish one sender's basis string (for a batch, one row per transcript).

    With ordering enforcement on, this refuses to run until every receiver has
    acknowledged reception; announcing earlier hands the whole encoding to
    anyone holding the transiting qubits.
    """
    trs = _trials(tr)
    acks = trs[0].ack_seqs
    if cfg.enforce_ordering and len(acks) < cfg.receivers:
        missing = [l for l in range(1, cfg.receivers + 1) if l not in acks]
        raise OrderingError(
            f"sender {sender_index} tried to announce bases before receivers "
            f"{missing} acknowledged reception"
        )
    planes = as_plane(basis_bits).reshape(len(trs), -1)
    for t, ev, bits in zip(trs, record_rows(trs, KIND_BASES, f"alice{sender_index}", planes), planes):
        t.announced_bases[sender_index] = bits
        t.bases_seqs[sender_index] = ev.seq


def combined_bases(trs: Sequence[Transcript], cfg: ProtocolConfig) -> np.ndarray:
    """Per-position XOR of all announced basis strings (the decoding basis), one row per transcript."""
    if any(len(t.announced_bases) < cfg.senders for t in trs):
        raise ProtocolStateError("not every sender has announced a basis string")
    # As (trials, N, n): a string of one basis per block is a (trials, N, 1)
    # plane, which the XOR broadcasts over the block's n positions.
    combined = np.zeros((len(trs), cfg.blocks, cfg.receivers), dtype=np.uint8)
    for i in trs[0].announced_bases:
        combined ^= np.array([t.announced_bases[i] for t in trs]).reshape(len(trs), cfg.blocks, -1)
    return combined.reshape(len(trs), -1)


@dataclass(eq=False)
class Readout:
    """Every receiver's record as (N, n) planes: row j is block j, column l-1 receiver l.

    A batch of trials stacks them as (trials, N, n).
    """

    outcome: np.ndarray  # uint8 measurement outcome; meaningless where lost
    lost: np.ndarray  # bool: no qubit arrived
    usable: np.ndarray  # bool: arrived and measured in the combined basis


def _unchecked_blocks(trs: list[Transcript], cfg: ProtocolConfig) -> np.ndarray:
    """(trials, N) mask of the blocks each trial's check left unrevealed."""
    unchecked = np.ones((len(trs), cfg.blocks), dtype=bool)
    rows = np.array([t.check_blocks for t in trs], dtype=np.intp).reshape(len(trs), -1)
    np.put_along_axis(unchecked, rows, False, axis=1)
    return unchecked


def run_check(
    trs: Sequence[Transcript],
    cfg: ProtocolConfig,
    values: np.ndarray,
    readout: Readout,
    rng: Rng,
    check_blocks: Sequence[int] | None = None,
) -> np.ndarray:
    """Reveal a random subset of blocks and compare outcomes against the XOR.

    Takes one transcript and generator per trial, every sender's per-position
    value plane as (senders, trials, n*N) and the readout as (trials, N, n).
    Aborts a trial when the disagreement rate among its comparable revealed
    positions exceeds the configured threshold. Returns a bool per trial,
    True on pass.
    """
    count, blocks, n = len(trs), cfg.blocks, cfg.receivers
    want = cfg.checked_block_count
    checked = np.zeros((count, blocks), dtype=bool)
    if check_blocks is None:
        # The blocks holding the ``want`` smallest of N independent uniform
        # keys form a uniformly random subset.
        keys = random_words(rng, blocks).reshape(count, blocks)
        np.put_along_axis(checked, np.argpartition(keys, want - 1, axis=1)[:, :want], True, axis=1)
    else:
        chosen = sorted(int(j) for j in check_blocks)
        if len(set(chosen)) != want or any(not 0 <= j < blocks for j in chosen):
            raise ConfigError("check_blocks", f"need {want} distinct block indices in [0, {blocks})")
        checked[:, chosen] = True
    flat = np.flatnonzero(checked)  # trial t's block j is row t*N + j
    for t, selected in zip(trs, (flat.reshape(count, want) % blocks).tolist()):
        t.check_blocks = tuple(selected)
        t.record(KIND_CHECK_SELECT, "all", ",".join(map(str, selected)) or "-")

    # Reveal order: checked blocks ascending, receivers ascending within each.
    shape = (count, want, n)
    sent = values.reshape(len(values), count * blocks, n)[:, flat].reshape(len(values), *shape)
    for i, bits in enumerate(sent, start=1):
        record_rows(trs, KIND_CHECK_SENDER, f"alice{i}", bits.reshape(count, -1))
    usable = readout.usable.reshape(-1, n)[flat].reshape(shape)
    outcome = readout.outcome.reshape(-1, n)[flat].reshape(shape)
    revealed = np.where(usable, outcome, UNUSABLE)
    for l in range(1, n + 1):
        record_rows(trs, KIND_CHECK_RECV, f"bob{l}", revealed[:, :, l - 1])
    expected = np.bitwise_xor.reduce(sent, axis=0)
    compared = np.count_nonzero(usable, axis=(1, 2)).tolist()
    disagree = np.count_nonzero(usable & (outcome != expected), axis=(1, 2)).tolist()
    threshold = cfg.qber_abort_threshold
    passed = []
    for t, compared_t, disagree_t in zip(trs, compared, disagree):
        rate = disagree_t / compared_t if compared_t else 0.0
        t.compared = compared_t
        t.disagreements = disagree_t
        t.qber = rate
        passed.append(rate <= threshold)
        t.record(
            KIND_CHECK_RESULT,
            "all",
            f"compared={compared_t};disagree={disagree_t};rate={rate:.6f};"
            f"threshold={threshold:.6f};pass={1 if passed[-1] else 0}",
        )
        if not passed[-1]:
            t.abort_reason = f"error rate {rate:.6f} above threshold {threshold:.6f}"
            t.record(KIND_ABORT, "all", "error-rate")
    return np.array(passed)


def extract_raw_key(
    tr: Transcript | Sequence[Transcript], cfg: ProtocolConfig, values: np.ndarray, readout: Readout
) -> None:
    """XOR each surviving unchecked block across receivers into one key bit.

    A block survives when every receiver holds a usable outcome for it. Each
    receiver's contribution and the combined key are both recorded; combining
    them is a joint computation, with no aggregation mechanism prescribed.
    Takes a batch as ``run_check`` does.
    """
    trs = _trials(tr)
    for t in trs:
        if t.qber is None:
            raise ProtocolStateError("raw key requested before the check ran")
        if t.abort_reason is not None:
            raise ProtocolStateError("raw key requested after an abort")
    count, blocks, n = len(trs), cfg.blocks, cfg.receivers
    usable = readout.usable.reshape(count, blocks, n).all(axis=2)
    flat = np.flatnonzero(_unchecked_blocks(trs, cfg) & usable)  # trial t's block j is t*N + j
    bounds = np.searchsorted(flat, np.arange(count + 1) * blocks).tolist()
    contrib = readout.outcome.reshape(-1, n)[flat]  # (key bits of every trial, n)
    key = np.bitwise_xor.reduce(contrib, axis=1)
    truth = np.bitwise_xor.reduce(values, axis=0).reshape(-1, n)
    reference = np.bitwise_xor.reduce(truth[flat], axis=1)
    shares = [_payload(contrib[:, c]) for c in range(n)]
    key_text = _payload(key)
    key_blocks = (flat % blocks).tolist()
    key_bits, reference_bits = key.tobytes(), reference.tobytes()
    for t, a, b in zip(trs, bounds, bounds[1:]):
        t.key_blocks = tuple(key_blocks[a:b])
        for c in range(n):
            t.record(KIND_KEY_CONTRIB, f"bob{c + 1}", shares[c][a:b])
        t.raw_key = tuple(key_bits[a:b])
        t.record(KIND_RAW_KEY, "all", key_text[a:b])
        t.reference_key = tuple(reference_bits[a:b])


def _finalize_rates(trs: list[Transcript], cfg: ProtocolConfig, readout: Readout | None) -> None:
    if readout is None:  # aborted before any qubit was measured
        for t in trs:
            t.sift_rate = t.efficiency = 0.0
        return
    received = (cfg.total_qubits - np.count_nonzero(readout.lost, axis=(1, 2))).tolist()
    usable = np.count_nonzero(readout.usable, axis=(1, 2)).tolist()
    unchecked = _unchecked_blocks(trs, cfg)
    total = (np.count_nonzero(unchecked, axis=1) * cfg.receivers).tolist()
    kept = np.count_nonzero(readout.usable & unchecked[:, :, None], axis=(1, 2)).tolist()
    for t, r, u, k, all_ in zip(trs, received, usable, kept, total):
        t.sift_rate = u / r if r else 0.0
        t.efficiency = k / all_ if all_ else 0.0


def _record_attack(trs: list[Transcript], result: AttackResult, size: int) -> None:
    """Each trial's share of a batch's attack, as its transcript's adversary record."""
    trial, positions = np.divmod(result.positions, size)
    bounds = np.searchsorted(trial, np.arange(len(trs) + 1)).tolist()
    positions, bases = positions.tolist(), result.bases.tobytes()
    bits, certain = result.bits.tobytes(), result.certain.tolist()
    for t, a, b in zip(trs, bounds, bounds[1:]):
        t.adversary = AdversaryRecord(
            result.kind, tuple(positions[a:b]), tuple(bases[a:b]), tuple(bits[a:b]), tuple(certain[a:b])
        )


def _record_readout(
    trs: list[Transcript], cfg: ProtocolConfig, readout: Readout, guesses: np.ndarray | None
) -> None:
    """Publish the receivers' records and fill ``outcomes``/``usable``; ``guesses`` is None with memory."""
    shown = np.where(readout.lost, UNUSABLE, readout.outcome)
    for l in range(1, cfg.receivers + 1):
        if guesses is not None:
            record_rows(trs, KIND_GUESS, f"bob{l}", guesses[:, :, l - 1])
            record_rows(trs, KIND_SIFT, f"bob{l}", readout.usable[:, :, l - 1])
        record_rows(trs, KIND_MEASURED, f"bob{l}", shown[:, :, l - 1])
    # Receiver-major lists: [t][l-1] is receiver l's record in trial t.
    outcomes = readout.outcome.transpose(0, 2, 1).tolist()
    for t, j, c in zip(*(axis.tolist() for axis in np.nonzero(readout.lost))):
        outcomes[t][c][j] = None
    usable = readout.usable.transpose(0, 2, 1).tolist()
    for tr, outs, use in zip(trs, outcomes, usable):
        tr.outcomes.update(enumerate(outs, start=1))
        tr.usable.update(enumerate(use, start=1))


def _record_losses(trs: list[Transcript], party: str, lost: np.ndarray) -> None:
    """A loss bitmap (one row per trial) in every transcript whose row marks a loss."""
    marked = lost.any(axis=1)
    record_rows([t for t, x in zip(trs, marked.tolist()) if x], KIND_LOSS, party, lost[marked])


# Trials run together as one stack of planes: as many as fit in this many
# qubit positions, and at least one. Each numpy call then covers thousands of
# positions, which amortises its fixed cost. Every transcript of a chunk is
# alive at its end, about 16 KiB each for a 120-position run, so the budget
# also bounds that memory: 34 such trials per chunk ran a 1000-trial sweep
# about 5% slower than 68, with half the added peak.
CHUNK_POSITIONS = 1 << 12


def _validated(cfg: ProtocolConfig, channel: ChannelModel | None) -> ChannelModel:
    channel = channel if channel is not None else IDEAL
    channel.validate()
    if isinstance(channel.adversary, ColluderInsider) and channel.adversary.target > cfg.senders:
        raise ConfigError(
            "channel.adversary.target",
            f"sender {channel.adversary.target} does not exist in a {cfg.senders}-sender run",
        )
    return channel


def run_protocol(
    cfg: ProtocolConfig,
    channel: ChannelModel | None = None,
    *,
    secrets: Sequence[PartySecrets] | None = None,
    check_blocks: Sequence[int] | None = None,
) -> Transcript:
    """Execute one full run and return its transcript: ``run_trials`` for one seed.

    Deterministic given (cfg.seed, channel): every draw comes from one
    ``random.Random`` seeded with cfg.seed, a whole array at a time. ``secrets`` and
    ``check_blocks`` inject fixed strings and a fixed check selection for
    reproducing known vectors; normally both are drawn from that generator.
    """
    channel = _validated(cfg, channel)
    if secrets is not None:
        secrets = list(secrets)
        if len(secrets) != cfg.senders:
            raise ConfigError("secrets", f"need {cfg.senders} senders' secrets, got {len(secrets)}")
        for i, s in enumerate(secrets):
            _check_secret_sizes(s, cfg, first=i == 0)
        # One trial's strings as a batch of one row.
        secrets = [
            replace(s, value_bits=s.value_bits[None], basis_bits=s.basis_bits[None],
                    value_shares=None if s.value_shares is None else s.value_shares[None])
            for s in secrets
        ]
    return _run_chunk(cfg, channel, [cfg.seed], secrets, check_blocks)[0]


def run_trials(
    cfg: ProtocolConfig, channel: ChannelModel | None, seeds: Iterable[int]
) -> Iterator[Transcript]:
    """One transcript per seed, in order; each is what ``run_protocol`` gives for that seed.

    ``cfg.seed`` is ignored. Trials run in chunks of ``CHUNK_POSITIONS``
    positions: every phase runs once per chunk on a stack of planes with a
    row per trial, each row drawing from its trial's own generator.
    """
    channel = _validated(cfg, channel)
    per_chunk = max(1, CHUNK_POSITIONS // cfg.total_qubits)
    seeds = iter(seeds)
    # Lists of up to per_chunk seeds, until the seeds run out.
    chunks = iter(lambda: list(itertools.islice(seeds, per_chunk)), [])
    return (tr for chunk in chunks for tr in _run_chunk(cfg, channel, chunk))


def _run_chunk(
    cfg: ProtocolConfig,
    channel: ChannelModel,
    seeds: list[int],
    secrets: list[PartySecrets] | None = None,
    check_blocks: Sequence[int] | None = None,
) -> list[Transcript]:
    """Run one trial per seed as a stack of planes; injected ``secrets`` hold a row per seed."""
    rngs = [random.Random(seed) for seed in seeds]
    config = cfg.snapshot()
    trs = [Transcript({**config, "seed": str(seed)}) for seed in seeds]
    m, size = cfg.senders, cfg.total_qubits

    senders = generate_secrets(cfg, rngs) if secrets is None else secrets
    for t, tr in enumerate(trs):
        tr._secrets = [s.trial(t) for s in senders]
    values, basis_vectors = expanded_bit_vectors(senders, cfg)
    adv = channel.adversary
    # An intercept-resend adversary sits on the last hop only.
    inner_hop = channel if adv is None else replace(channel, adversary=None)
    last_hop = channel if isinstance(adv, InterceptResend) else inner_hop

    def hop(block: QubitBlock, leaving: int) -> QubitBlock:
        res = transmit(block, last_hop if leaving == m else inner_hop, rngs)
        block = res.block
        if len(res.lost) and channel.loss_strategy is LossStrategy.REMOVE and leaving < m:
            bitmap = np.zeros(block.lost.shape, dtype=np.uint8)
            bitmap.flat[res.lost] = 1
            _record_losses(trs, f"alice{leaving + 1}", bitmap)
        attack = res.intercept
        if isinstance(adv, PreparerInsider) and leaving == 2:
            attack, block = preparer_attack(values[0], basis_vectors[0], block, rngs)
        elif isinstance(adv, ColluderInsider) and leaving == adv.target:
            colluders = adv.colluders if adv.colluders is not None else frozenset(range(1, adv.target))
            known_values = {i: values[i - 1] for i in colluders}
            known_bases = {
                i: basis_vectors[i - 1] for i in colluders if i not in adv.withheld_bases
            }
            attack, block = collusion_attack(known_values, known_bases, block, rngs)
        elif isinstance(adv, OrderingAttack) and leaving == m:
            if adv.use_announced_bases and len(trs[0].announced_bases) == m:
                announced = basis_vectors  # announced strings, expanded per position
                attack, block = ordering_attack(announced, block, rngs)
            else:
                attack, block = ordering_attack(None, block, rngs)
        if attack is not None:
            _record_attack(trs, attack, size)
        return block

    block = prepare_block(senders[0], cfg)
    for i in range(2, m + 1):
        block = encode_block(hop(block, leaving=i - 1), senders[i - 1], i, cfg)

    # An ordering attack relies on the senders broadcasting before reception.
    announce_early = isinstance(adv, OrderingAttack) and adv.use_announced_bases
    if announce_early:
        try:
            for i in range(1, m + 1):
                announce_bases(trs, i, senders[i - 1].basis_bits, cfg)
        except OrderingError as err:
            for tr in trs:
                tr.abort_reason = f"ordering violation: {err}"
                tr.record(KIND_ABORT, "all", "ordering-violation")
            _finalize_rates(trs, cfg, None)
            return trs

    block = hop(block, leaving=m)
    for l, received in enumerate(split_for_receivers(block, cfg), start=1):
        if channel.loss_strategy is LossStrategy.REMOVE:
            _record_losses(trs, f"bob{l}", received.lost)
        for tr in trs:
            tr.ack_seqs[l] = tr.record(KIND_ACK, f"bob{l}").seq

    if not cfg.quantum_memory:
        # No storage: measure in guessed bases before any announcement.
        guesses = random_bits(rngs, size)
        outcome = block.measure(guesses, random_bits(rngs, size))
        for tr in trs:
            for l in range(1, cfg.receivers + 1):
                tr.record(KIND_EARLY_MEASURE, f"bob{l}")

    if not announce_early:
        for i in range(1, m + 1):
            announce_bases(trs, i, senders[i - 1].basis_bits, cfg)

    required = combined_bases(trs, cfg)
    if cfg.quantum_memory:
        outcome = block.measure(required, random_bits(rngs, size))
        usable = ~block.lost
    else:
        usable = ~block.lost & (guesses == required)
    shape = (len(trs), cfg.blocks, cfg.receivers)
    readout = Readout(outcome.reshape(shape), block.lost.reshape(shape), usable.reshape(shape))
    _record_readout(trs, cfg, readout, None if cfg.quantum_memory else guesses.reshape(shape))

    passed = run_check(trs, cfg, values, readout, rngs, check_blocks=check_blocks)
    if passed.all():
        extract_raw_key(trs, cfg, values, readout)
    elif passed.any():
        keep = np.flatnonzero(passed)
        subset = Readout(readout.outcome[keep], readout.lost[keep], readout.usable[keep])
        extract_raw_key([trs[t] for t in keep.tolist()], cfg, values[:, keep], subset)
    _finalize_rates(trs, cfg, readout)
    return trs
