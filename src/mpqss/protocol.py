"""Multi-sender, multi-receiver secret-sharing protocol over single qubits.

One run: the first sender prepares a block of n*N qubits from her two random
strings; each later sender chains value flips and basis swaps driven by her
own strings; the last sender deals one qubit per block to each of the n
receivers; receivers acknowledge, senders publish their basis strings (never
earlier), receivers measure in the combined basis, everyone compares a random
subset of blocks, and the surviving blocks' XOR-across-receivers becomes the
raw key. Every inter-party hop goes through a channel model that may lose
qubits, add Pauli noise, or host an adversary.

``run_chunks`` runs many seeded runs as chunks of trials whose planes are
stacked on a leading axis, each phase once per chunk. A ``Chunk`` (the record
table of ``mpqss.transcript``) holds every result by column, and each trial's
``Transcript`` is its row. ``run_trials`` yields those rows and
``run_protocol`` is the one-trial case.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .channel import (
    IDEAL,
    ChannelModel,
    ColluderInsider,
    InterceptResend,
    OrderingAttack,
    PreparerInsider,
    collusion_attack,
    ordering_attack,
    preparer_attack,
    transmit,
)
from .config import ProtocolConfig, Variant
from .errors import ConfigError, OrderingError, ProtocolStateError
from .planes import UNUSABLE, QubitBlock, Substream, as_plane, random_bits
from .planes import check_tally, combined_basis, key_block_mask, receivers_xor, sift_mask

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
    Chunk,
    Transcript,
    index_payloads,
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


def _expand_shares(value_bits: np.ndarray, receivers: int, free: np.ndarray) -> np.ndarray:
    """Split each bit into ``receivers`` single-qubit shares with matching XOR.

    Uniform over the 2^(n-1) satisfying assignments per block: the first n-1
    shares are the ``free`` bits, n-1 per block, and the last absorbs the parity.
    """
    shape = value_bits.shape
    free = free.reshape(*shape, receivers - 1)
    parity = value_bits ^ receivers_xor(free)
    return np.concatenate([free, parity[..., None]], axis=-1).reshape(*shape[:-1], -1)


def secret_lengths(cfg: ProtocolConfig) -> tuple[int, int]:
    """(value string length, basis string length) for one sender."""
    if cfg.variant is Variant.MAIN:
        return cfg.total_qubits, cfg.total_qubits
    if cfg.variant is Variant.BLOCK_BASIS:
        return cfg.total_qubits, cfg.blocks
    return cfg.blocks, cfg.blocks


def generate_secrets(cfg: ProtocolConfig, stream: Substream) -> list[PartySecrets]:
    """Fresh random strings for every sender, never reused across runs.

    Drawn in the "secrets" phase: each sender's value string and basis
    string in turn, then, in the shared-block variant, the first sender's free
    shares. A sender listed in ``omit_hadamard`` skips the basis-mixing step,
    which is the same as using (and later publishing) an all-zero basis
    string. One seed gives one trial's planes; a sequence of seeds gives planes
    with one row per trial.
    """
    n_value, n_basis = secret_lengths(cfg)
    shared = cfg.variant is Variant.BLOCK_SHARED
    draws = [(1, n_value), (1, n_basis)] * cfg.senders + [(1, cfg.blocks * (cfg.receivers - 1))] * shared
    planes = stream.at("secrets").draw(*draws)
    out = []
    for i in range(1, cfg.senders + 1):
        value_bits, basis_bits = planes[2 * i - 2], planes[2 * i - 1]
        if i in cfg.omit_hadamard:
            basis_bits = np.zeros_like(basis_bits)
        shares = _expand_shares(value_bits, cfg.receivers, planes[-1]) if shared and i == 1 else None
        out.append(PartySecrets(f"alice{i}", value_bits, basis_bits, shares))
    return out


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

    A string of N bits holds one bit per block and is repeated over the block's
    n positions, so the bit governing qubit k of sender i lands at [i-1][k].
    Batched strings give shape (senders, trials, n*N).
    """

    def per_position(bits: np.ndarray) -> np.ndarray:
        return np.repeat(bits, cfg.receivers, axis=-1) if bits.shape[-1] == cfg.blocks else bits

    values = []
    for s in secrets:
        # Only the first sender of the shared-block variant carries per-position shares.
        shared = cfg.variant is Variant.BLOCK_SHARED and s.value_shares is not None
        values.append(per_position(s.value_shares if shared else s.value_bits))
    return np.array(values), np.array([per_position(s.basis_bits) for s in secrets])


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
    run: Chunk, sender_index: int, basis_bits: Sequence[int] | np.ndarray, cfg: ProtocolConfig
) -> None:
    """Publish one sender's basis string, one row per trial of the chunk.

    With ordering enforcement on, this refuses to run until the record holds
    every receiver's ``ack`` event; announcing earlier hands the whole
    encoding to anyone holding the transiting qubits. A transcript is checked
    through its chunk.
    """
    if cfg.enforce_ordering:
        entries = getattr(run, "_chunk", run)._records
        acked = {party for events, _, _ in entries for kind, party in events if kind == KIND_ACK}
        missing = [l for l in range(1, cfg.receivers + 1) if f"bob{l}" not in acked]
        if missing:
            raise OrderingError(
                f"sender {sender_index} tried to announce bases before receivers "
                f"{missing} acknowledged reception"
            )
    plane = as_plane(basis_bits).reshape(len(run), -1)  # a copy, so the caller's array stays theirs
    run.record_planes([(KIND_BASES, f"alice{sender_index}")], plane)
    run.announced_bases[sender_index] = plane


def combined_bases(run: Chunk, cfg: ProtocolConfig) -> np.ndarray:
    """Per-position XOR of all announced basis strings (the decoding basis), one row per trial."""
    if len(run.announced_bases) < cfg.senders:
        raise ProtocolStateError("not every sender has announced a basis string")
    strings = list(run.announced_bases.values())
    shape = (len(run), cfg.blocks, cfg.receivers)
    return np.broadcast_to(combined_basis(strings, cfg.blocks), shape).reshape(len(run), -1)


@dataclass(eq=False)
class Readout:
    """Every receiver's record as (N, n) planes: row j is block j, column l-1 receiver l.

    A batch of trials stacks them as (trials, N, n).
    """

    outcome: np.ndarray  # uint8 measurement outcome; meaningless where lost
    lost: np.ndarray  # bool: no qubit arrived
    usable: np.ndarray  # bool: arrived and measured in the combined basis
    checked: np.ndarray | None = None  # bool (trials, N): revealed by the check, set by run_check


def _ratio(part: np.ndarray, whole: np.ndarray) -> np.ndarray:
    """part / whole per trial, 0.0 where whole is 0."""
    return np.divide(part, whole, out=np.zeros(len(whole)), where=whole > 0)


def run_check(
    run: Chunk,
    cfg: ProtocolConfig,
    values: np.ndarray,
    stream: Substream,
    check_blocks: Sequence[int] | None = None,
) -> np.ndarray:
    """Reveal a random subset of blocks and compare outcomes against the XOR.

    Takes a chunk and its trials' stream and every sender's per-position
    value plane as (senders, trials, n*N), and reads the chunk's readout,
    whose ``checked`` mask it sets. Aborts a trial when the disagreement rate
    among its comparable revealed positions exceeds the configured threshold.
    Returns a bool per trial, True on pass.
    """
    count, blocks, n, readout = len(run), cfg.blocks, cfg.receivers, run.readout
    if readout is None:
        raise ProtocolStateError("check requested before the receivers measured")
    want = cfg.checked_block_count
    checked = np.zeros((count, blocks), dtype=bool)
    if check_blocks is None:
        # The blocks holding the ``want`` smallest of N independent uniform
        # 64-bit keys, drawn in the "check" phase, form a uniformly random subset.
        [keys] = stream.at("check").draw((64, blocks))
        keys = keys.reshape(count, blocks)
        np.put_along_axis(checked, np.argpartition(keys, want - 1, axis=1)[:, :want], True, axis=1)
    else:
        chosen = sorted(int(j) for j in check_blocks)
        if len(set(chosen)) != want or any(not 0 <= j < blocks for j in chosen):
            raise ConfigError("check_blocks", f"need {want} distinct block indices in [0, {blocks})")
        checked[:, chosen] = True
    readout.checked = checked
    flat = np.flatnonzero(checked)  # trial t's block j is row t*N + j
    run.check_blocks = flat.reshape(count, want) % blocks
    bounds = np.arange(count + 1) * want
    run.record(KIND_CHECK_SELECT, "all", functools.partial(index_payloads, run.check_blocks, bounds))

    # Reveal order: checked blocks ascending, receivers ascending within each.
    # ``take`` gathers into a fresh contiguous array, which the XOR below reduces fast.
    shape = (count, want, n)
    sent = values.reshape(len(values), count * blocks, n).take(flat, axis=1).reshape(len(values), *shape)
    run.record_planes([(KIND_CHECK_SENDER, f"alice{i}") for i in range(1, len(sent) + 1)],
                      sent.reshape(len(sent), count, -1))
    usable = readout.usable.reshape(-1, n)[flat].reshape(shape)
    outcome = readout.outcome.reshape(-1, n)[flat].reshape(shape)
    revealed = np.where(usable, outcome, UNUSABLE)
    run.record_planes([(KIND_CHECK_RECV, f"bob{l}") for l in range(1, n + 1)], revealed.transpose(2, 0, 1))
    run.compared, run.disagreements = check_tally(revealed, np.bitwise_xor.reduce(sent, axis=0), axis=(1, 2))
    run.qber = _ratio(run.disagreements, run.compared)
    threshold = cfg.qber_abort_threshold
    passed = run.qber <= threshold
    # One payload per distinct tally: a chunk has far fewer of them than trials.
    tallies = list(zip(run.compared.tolist(), run.disagreements.tolist()))
    results = {}
    for compared, disagree in set(tallies):
        rate = disagree / compared if compared else 0.0
        results[compared, disagree] = (
            f"compared={compared};disagree={disagree};rate={rate:.6f};"
            f"threshold={threshold:.6f};pass={1 if rate <= threshold else 0}"
        )
    run.record(KIND_CHECK_RESULT, "all", list(map(results.__getitem__, tallies)))
    if not passed.all():
        run.aborted |= ~passed
        run.record(KIND_ABORT, "all", "error-rate", ~passed)
    return passed


def extract_raw_key(run: Chunk | Transcript, cfg: ProtocolConfig, values: np.ndarray) -> None:
    """XOR each surviving unchecked block across receivers into one key bit.

    A block survives when every receiver holds a usable outcome for it. Each
    receiver's contribution and the combined key are both recorded; combining
    them is a joint computation, with no aggregation mechanism prescribed.
    Takes a chunk as ``run_check`` does, reads its readout and keys its
    trials that passed the check. A transcript is keyed by its chunk, so
    given one this only raises.
    """
    if run.qber is None:
        raise ProtocolStateError("raw key requested before the check ran")
    if isinstance(run, Transcript):
        state = "after an abort" if run.abort_reason is not None else "of a transcript, not of its chunk"
        raise ProtocolStateError(f"raw key requested {state}")
    count, blocks, n, readout = len(run), cfg.blocks, cfg.receivers, run.readout
    usable = readout.usable.reshape(count, blocks, n)
    keyed = ~run.aborted
    # Trial t's block j is t*N + j.
    mask = key_block_mask([usable[..., c] for c in range(n)], readout.checked)
    flat = np.flatnonzero(mask & keyed[:, None])
    run.key_bounds = np.searchsorted(flat, np.arange(count + 1) * blocks)
    contrib = readout.outcome.reshape(-1, n)[flat]  # (key bits of every trial, n)
    run.raw_key = receivers_xor(contrib)
    run.reference_key = receivers_xor(np.bitwise_xor.reduce(values, axis=0).reshape(-1, n)[flat])
    run.key_blocks = flat % blocks
    bounds = np.append(run.key_bounds[:-1][keyed], len(flat))  # a failed trial has no key bits
    events = [(KIND_KEY_CONTRIB, f"bob{c}") for c in range(1, n + 1)] + [(KIND_RAW_KEY, "all")]
    run.record_planes(events, np.column_stack([contrib, run.raw_key]).T, bounds, keyed)


def _finalize_rates(run: Chunk, cfg: ProtocolConfig) -> None:
    readout = run.readout
    received = cfg.total_qubits - np.count_nonzero(readout.lost, axis=(1, 2))
    unchecked = ~readout.checked
    kept = np.count_nonzero(readout.usable & unchecked[:, :, None], axis=(1, 2))
    run.sift_rate = _ratio(np.count_nonzero(readout.usable, axis=(1, 2)), received)
    run.efficiency = _ratio(kept, np.count_nonzero(unchecked, axis=1) * cfg.receivers)


def _record_readout(
    run: Chunk, cfg: ProtocolConfig, readout: Readout, guesses: np.ndarray | None
) -> None:
    """Publish the receivers' records and keep the readout; ``guesses`` is None with memory."""
    shown = np.where(readout.lost, UNUSABLE, readout.outcome)
    kinds, planes = [KIND_MEASURED], [shown]
    if guesses is not None:
        kinds, planes = [KIND_GUESS, KIND_SIFT, KIND_MEASURED], [guesses, readout.usable, shown]
    # (receivers, kinds, trials, N): each receiver's records in turn.
    stacked = np.stack(planes).transpose(3, 0, 1, 2)
    run.record_planes([(kind, f"bob{l}") for l in range(1, cfg.receivers + 1) for kind in kinds], stacked)
    run.readout = readout


def _record_losses(run: Chunk, party: str, lost: np.ndarray) -> None:
    """A loss bitmap (one row per trial) in every trial whose row marks a loss."""
    marked = lost.any(axis=1)
    if marked.any():
        run.record_planes([(KIND_LOSS, party)], lost[marked], rows=marked)  # a copy of the marked rows


# Trials run together as one stack of planes: as many as fit in this many
# qubit positions, and at least one. Each numpy call then covers thousands of
# positions, which amortises its fixed cost: about 1 ms of numpy and Python
# calls per chunk. A chunk and its records are alive until its last row
# goes, so the budget also bounds that memory.
CHUNK_POSITIONS = 1 << 14


def trials_per_chunk(cfg: ProtocolConfig) -> int:
    """How many of ``cfg``'s trials ``run_chunks`` stacks into one chunk."""
    return max(1, CHUNK_POSITIONS // cfg.total_qubits)


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

    Deterministic given (cfg.seed, channel): every draw is a whole array from
    the keyed substream of one phase of cfg.seed (``planes.Substream``).
    ``secrets`` and ``check_blocks`` inject fixed strings and a fixed check
    selection for reproducing known vectors; normally both are drawn.
    """
    channel = _validated(cfg, channel)
    if secrets is not None:
        secrets = list(secrets)
        if len(secrets) != cfg.senders:
            raise ConfigError("secrets", f"need {cfg.senders} senders' secrets, got {len(secrets)}")
        for i, s in enumerate(secrets):
            if any(getattr(s, name) is not None and getattr(s, name).ndim != 1 for name in _STRINGS):
                raise ConfigError("secrets", f"{s.party}: expected one trial's strings, got a batch")
            _check_secret_sizes(s, cfg, first=i == 0)
        # One trial's strings as a batch of one row.
        secrets = [
            replace(s, value_bits=s.value_bits[None], basis_bits=s.basis_bits[None],
                    value_shares=None if s.value_shares is None else s.value_shares[None])
            for s in secrets
        ]
    return _run_chunk(cfg, channel, [cfg.seed], secrets, check_blocks)[0]


def run_chunks(cfg: ProtocolConfig, channel: ChannelModel | None, seeds: Iterable[int]) -> Iterator[Chunk]:
    """The trials of ``seeds``, in order, as chunks of ``CHUNK_POSITIONS`` positions.

    ``cfg.seed`` is ignored. Every phase runs once per chunk on a stack of
    planes with a row per trial, each row drawing from its trial's own substreams.
    """
    channel = _validated(cfg, channel)
    per_chunk = trials_per_chunk(cfg)
    seeds = iter(seeds)
    # Lists of up to per_chunk seeds, until the seeds run out.
    chunks = iter(lambda: list(itertools.islice(seeds, per_chunk)), [])
    return (_run_chunk(cfg, channel, chunk) for chunk in chunks)


def run_trials(
    cfg: ProtocolConfig, channel: ChannelModel | None, seeds: Iterable[int]
) -> Iterator[Transcript]:
    """One transcript per seed, in order; each is what ``run_protocol`` gives for that seed."""
    return (tr for chunk in run_chunks(cfg, channel, seeds) for tr in chunk)


def _run_chunk(
    cfg: ProtocolConfig,
    channel: ChannelModel,
    seeds: list[int],
    secrets: list[PartySecrets] | None = None,
    check_blocks: Sequence[int] | None = None,
) -> Chunk:
    """Run one trial per seed as a stack of planes; injected ``secrets`` hold a row per seed.

    Each phase draws from its own substream of the trials' seeds: "secrets",
    "hop<i>" for the hop leaving sender i, "attack", "measure" and "check".
    A measurement coin does not depend on whether a guessed basis follows it.
    """
    stream = Substream(seeds)
    run = Chunk(cfg.snapshot(), seeds)
    m, size = cfg.senders, cfg.total_qubits

    senders = run.secrets = generate_secrets(cfg, stream) if secrets is None else secrets
    values, basis_vectors = expanded_bit_vectors(senders, cfg)
    adv = channel.adversary
    # An intercept-resend adversary sits on the last hop only.
    inner_hop = replace(channel, adversary=None) if isinstance(adv, InterceptResend) else channel

    def hop(block: QubitBlock, leaving: int) -> QubitBlock:
        res = transmit(block, channel if leaving == m else inner_hop, stream.at(f"hop{leaving}"))
        if len(res.lost) and leaving < m:
            _record_losses(run, f"alice{leaving + 1}", res.block.lost & ~block.lost)
        block = res.block
        attack = res.intercept
        if isinstance(adv, PreparerInsider) and leaving == adv.target:
            attack, block = preparer_attack(values[0], basis_vectors[0], block, stream.at("attack"))
        elif isinstance(adv, ColluderInsider) and leaving == adv.target:
            known_values = {i: values[i - 1] for i in adv.pool}
            known_bases = {i: basis_vectors[i - 1] for i in adv.pool if i not in adv.withheld_bases}
            attack, block = collusion_attack(known_values, known_bases, block, stream.at("attack"))
        elif isinstance(adv, OrderingAttack) and leaving == m:
            # Using announced bases, hop m follows a successful early announcement.
            announced = basis_vectors if adv.use_announced_bases else None  # expanded per position
            attack, block = ordering_attack(announced, block, stream.at("attack"))
        if attack is not None:  # positions index the stacked planes: trial t's k is t*size + k
            trial, positions = np.divmod(attack.positions, size)
            run.adversary = replace(attack, positions=positions)
            run.adversary_bounds = np.searchsorted(trial, np.arange(len(run) + 1))
        return block

    block = prepare_block(senders[0], cfg)
    for i in range(2, m + 1):
        block = encode_block(hop(block, leaving=i - 1), senders[i - 1], i, cfg)

    # An ordering attack relies on the senders broadcasting before reception.
    announce_early = isinstance(adv, OrderingAttack) and adv.use_announced_bases
    if announce_early:
        try:
            for i in range(1, m + 1):
                announce_bases(run, i, senders[i - 1].basis_bits, cfg)
        except OrderingError as err:
            run.abort_reason = f"ordering violation: {err}"
            run.aborted[:] = True
            run.record(KIND_ABORT, "all", "ordering-violation")
            return run

    block = hop(block, leaving=m)
    for l, received in enumerate(split_for_receivers(block, cfg), start=1):
        _record_losses(run, f"bob{l}", received.lost)
        run.record(KIND_ACK, f"bob{l}")

    # A coin per position, then, for receivers without quantum memory, a guessed basis.
    measuring = stream.at("measure")
    if not cfg.quantum_memory:
        # No storage: measure in guessed bases before any announcement.
        coins, guesses = measuring.draw((1, size), (1, size))
        outcome = block.measure(guesses, coins)
        for l in range(1, cfg.receivers + 1):
            run.record(KIND_EARLY_MEASURE, f"bob{l}")

    if not announce_early:
        for i in range(1, m + 1):
            announce_bases(run, i, senders[i - 1].basis_bits, cfg)

    required = combined_bases(run, cfg)
    if cfg.quantum_memory:
        guesses = None
        outcome = block.measure(required, random_bits(measuring, size))
    usable = sift_mask(~block.lost, guesses, required)
    shape = (len(run), cfg.blocks, cfg.receivers)
    readout = Readout(outcome.reshape(shape), block.lost.reshape(shape), usable.reshape(shape))
    _record_readout(run, cfg, readout, None if guesses is None else guesses.reshape(shape))

    passed = run_check(run, cfg, values, stream, check_blocks=check_blocks)
    if passed.any():
        extract_raw_key(run, cfg, values)
    _finalize_rates(run, cfg)
    return run
