"""Seeded Monte Carlo experiment runner, report formats, and transcript replay.

Per-trial seeds come from a documented counter scheme (SHA-256 of
``"<master>:<trial>"``, top eight bytes), so any single trial can be re-run in
isolation and identical experiment specs produce byte-identical reports.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import math
import operator
import random
import re
import statistics
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import IDEAL, ChannelModel, InterceptResend, OrderingAttack
from .errors import ConfigError, KeyMaterialError
from .config import ProtocolConfig, checked_block_count
from .postprocessing import CssPair, StreamResult, bits_to_hex, build_canonical_css, key_rate, otp_send
from .postprocessing import reconcile_streams
from .planes import UNUSABLE, check_tally, combined_basis, key_block_mask, receivers_xor, sift_mask
from .protocol import expanded_bit_vectors, run_chunks

# The one-trial forms, which run_experiment no longer calls; perfbench/tracing.py
# spans calls at these names.
from .postprocessing import reconcile_stream  # noqa: F401
from .protocol import run_protocol  # noqa: F401
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
    Event,
    parse,
    str_to_plane,
)

# Every metric's sampler: the list of a chunk's samples, in trial order, from
# the chunk's columns. A column is None when no trial of the chunk got that far.
# block_yield maps to None, as it is sampled as each chunk's keyed trials are reconciled.
METRICS = {
    "qber": lambda chunk, spec: _column(chunk.qber),
    "detection_prob": lambda chunk, spec: _column(None if chunk.qber is None else chunk.disagreements > 0),
    "key_rate": lambda chunk, spec: list(map(key_rate, _column(chunk.qber))),
    "efficiency": lambda chunk, spec: _column(chunk.efficiency),
    "sift_rate": lambda chunk, spec: _column(chunk.sift_rate),
    "adversary_accuracy": lambda chunk, spec: _adversary_accuracy(chunk, spec),
    "block_yield": None,
}


def _column(values: np.ndarray | None) -> list[float]:
    return [] if values is None else values.astype(float).tolist()


def derive_trial_seed(master_seed: int, trial: int) -> int:
    """64-bit seed for one trial; stable across platforms and runs."""
    digest = hashlib.sha256(f"{master_seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ExperimentSpec:
    protocol: ProtocolConfig
    channel: ChannelModel = IDEAL
    trials: int = 1
    metrics: tuple[str, ...] = ("qber", "efficiency")
    seed: int = 0

    def validate(self) -> None:
        self.protocol.validate(path="protocol")
        self.channel.validate(path="channel")
        if self.trials < 1:
            raise ConfigError("trials", "need at least one trial")
        for k, name in enumerate(self.metrics):
            if name not in METRICS:
                raise ConfigError("metrics", f"unknown metric {name!r}; known: {', '.join(METRICS)}")
            if name in self.metrics[:k]:
                raise ConfigError("metrics", f"metric {name!r} is named more than once")

    def describe(self) -> dict:
        adv = self.channel.adversary
        adversary = None
        if adv is not None:
            adversary = {"kind": type(adv).__name__}
            for f in fields(adv):  # not ClassVars such as PreparerInsider.target
                value = getattr(adv, f.name)
                adversary[f.name] = sorted(value) if isinstance(value, frozenset) else value
        return {
            "protocol": self.protocol.snapshot(),
            "channel": {
                "loss_prob": self.channel.loss_prob,
                "p_x": self.channel.p_x,
                "p_y": self.channel.p_y,
                "p_z": self.channel.p_z,
                "loss_strategy": self.channel.loss_strategy.value,
                "adversary": adversary,
            },
            "trials": self.trials,
            "metrics": list(self.metrics),
            "seed": self.seed,
        }


@dataclass
class MetricSummary:
    mean: float
    stderr: float
    samples: int


@dataclass
class RunReport:
    spec: dict
    trials: int
    abort_rate: float
    metrics: dict[str, MetricSummary]
    transcript_digest: str
    combined_digest: str
    extras: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "spec": self.spec,
            "trials": self.trials,
            "abort_rate": self.abort_rate,
            "metrics": {
                name: {"mean": s.mean, "stderr": s.stderr, "samples": s.samples}
                for name, s in self.metrics.items()
            },
            "transcript_digest": self.transcript_digest,
            "combined_digest": self.combined_digest,
            "extras": self.extras,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        # Fixed column order: metric,mean,stderr,samples; one row per metric
        # (sorted by name), then the abort_rate pseudo-metric.
        lines = ["metric,mean,stderr,samples"]
        for name in sorted(self.metrics):
            s = self.metrics[name]
            lines.append(f"{name},{s.mean:.10g},{s.stderr:.10g},{s.samples}")
        lines.append(f"abort_rate,{self.abort_rate:.10g},,{self.trials}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [
            f"trials: {self.trials}",
            f"abort rate: {self.abort_rate:.4f}",
        ]
        for name in sorted(self.metrics):
            s = self.metrics[name]
            lines.append(f"{name}: {s.mean:.6f} +/- {s.stderr:.6f} ({s.samples} samples)")
        for k in sorted(self.extras):
            lines.append(f"{k}: {self.extras[k]}")
        lines.append(f"first transcript sha256: {self.transcript_digest}")
        lines.append(f"combined sha256: {self.combined_digest}")
        return "\n".join(lines) + "\n"

    def render(self, output: str) -> str:
        return {"json": self.to_json, "csv": self.to_csv, "text": self.to_text}[output]()


def _summary(samples: list[float]) -> MetricSummary:
    if not samples:
        return MetricSummary(0.0, 0.0, 0)
    count = len(samples)
    stderr = _stdev(samples) / count**0.5 if count > 1 else 0.0
    return MetricSummary(statistics.fmean(samples), stderr, count)


def _stdev(samples: list[float]) -> float:
    """``statistics.stdev`` of floats, from exact integer sums instead of ``Fraction`` ones.

    Over the largest denominator, a power of two, the samples are integers and
    the variance is num / den exactly; each distinct value, of the few a
    metric takes, is summed once with its count. The square root is rounded
    as ``statistics`` rounds it: to an integer root of 55 bits or more,
    rounded to odd, then once to a float.
    """
    counts = collections.Counter(samples)
    nums, dens = zip(*map(float.as_integer_ratio, counts))
    scale, count = max(dens), len(samples)
    ints = list(map(operator.mul, nums, map(scale.__floordiv__, dens)))
    weighted = list(map(operator.mul, ints, counts.values()))
    num = count * sum(map(operator.mul, ints, weighted)) - sum(weighted) ** 2
    den = count * (count - 1) * scale * scale
    q = (num.bit_length() - den.bit_length() - 109) // 2
    num, den = (num, den << 2 * q) if q >= 0 else (num << -2 * q, den)
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return (root << q) / 1 if q >= 0 else root / (1 << -q)


def _adversary_accuracy(chunk: Chunk, spec: ExperimentSpec) -> list[float]:
    """Strategy-appropriate accuracy of each trial's recorded attack, against its truth.

    A trial is sampled when its attack touched a position and, for an ordering
    attack, when it has key bits.
    """
    cfg, adversary = spec.protocol, spec.channel.adversary
    rec, count = chunk.adversary, len(chunk)
    if rec is None or not chunk.secrets:
        return []
    touched = np.diff(chunk.adversary_bounds)
    trial = np.repeat(np.arange(count), touched)  # the trial of each touched position
    if isinstance(adversary, OrderingAttack):
        if chunk.key_bounds is None:
            return []
        # Each key bit's trial, and the interceptor's reading of its block.
        read = np.zeros((count, cfg.total_qubits), dtype=np.uint8)
        read[trial, rec.positions] = rec.bits
        scored = np.diff(chunk.key_bounds)
        key_trial = np.repeat(np.arange(count), scored)
        key = receivers_xor(read.reshape(count, cfg.blocks, cfg.receivers))
        recovered = key[key_trial, chunk.key_blocks]
        hits = np.bincount(key_trial[recovered == chunk.raw_key], minlength=count)
        sampled = (touched > 0) & (scored > 0)
    else:
        # Each attack's target bit per position; insiders score only where their basis provably matched.
        values, _ = expanded_bit_vectors(chunk.secrets, cfg)
        if isinstance(adversary, InterceptResend):
            truth, certain = np.bitwise_xor.reduce(values, axis=0), True
        else:  # an insider: the preparer or a colluder
            truth, certain = values[adversary.target - 1], rec.certain
        hits = np.bincount(trial[certain & (truth[trial, rec.positions] == rec.bits)], minlength=count)
        scored, sampled = touched, touched > 0
    return (hits[sampled] / scored[sampled]).tolist()


def recovered_raw_key(bits, positions, key_blocks, cfg: ProtocolConfig) -> tuple[int, ...]:
    """Key-block bits of an interceptor's readings: their XOR across receivers, 0 where unread."""
    read = np.zeros(cfg.total_qubits, dtype=np.uint8)
    read[list(positions)] = bits
    key = receivers_xor(read.reshape(cfg.blocks, cfg.receivers))
    return tuple(key[list(key_blocks)].tolist())


def _reconcile_keyed(pair: CssPair, chunk: Chunk, seed: int, first: int) -> list[StreamResult]:
    """The ``StreamResult`` of each trial of ``chunk`` with a key bit, in one pass.

    Row t is trial ``first + t`` and draws from the generator seeded from
    ``"<seed>:<trial>:pp"``. The generators, about 2.5 KiB each, go when this
    returns, so none is alive while the next chunk runs.
    """
    bounds = chunk.key_bounds.tolist()
    reference, raw = chunk.reference_key.tobytes(), chunk.raw_key.tobytes()
    keyed = np.flatnonzero(np.diff(chunk.key_bounds)).tolist()
    rngs = []
    for t in keyed:
        pp_seed = hashlib.sha256(f"{seed}:{first + t}:pp".encode()).digest()
        rngs.append(random.Random(int.from_bytes(pp_seed[:8], "big")))
    held = [reference[bounds[t]:bounds[t + 1]] for t in keyed]
    noisy = [raw[bounds[t]:bounds[t + 1]] for t in keyed]
    return reconcile_streams(pair, held, noisy, rngs)


def run_experiment(spec: ExperimentSpec, otp_message: list | None = None) -> RunReport:
    """Run ``spec.trials`` independent seeded runs and aggregate the requested metrics.

    ``otp_message`` (bits) is encrypted against the first keyed trial's
    distilled key and reported as ciphertext_hex; it needs the block_yield
    metric and refuses when the key runs short or no trial yields key bits.
    For block_yield the raw keys of each chunk's keyed trials are reconciled
    in one pass, each with the generator seeded from ``"<seed>:<trial>:pp"``.
    """
    spec.validate()
    samples: dict[str, list[float]] = {name: [] for name in spec.metrics}
    aborted = 0
    digests: list[str] = []
    pair = build_canonical_css() if "block_yield" in spec.metrics else None
    extras: dict = {}
    if otp_message is not None and pair is None:
        raise ConfigError("metrics", "an outgoing message needs the block_yield metric")
    seeds = (derive_trial_seed(spec.seed, trial) for trial in range(spec.trials))
    first = 0  # the trial number of the chunk's first trial
    for chunk in run_chunks(spec.protocol, spec.channel, seeds):
        digests.extend(tr.digest() for tr in chunk)
        aborted += int(np.count_nonzero(chunk.aborted))
        for name in spec.metrics:
            if METRICS[name] is not None:
                samples[name].extend(METRICS[name](chunk, spec))
        if pair is not None and chunk.key_bounds is not None:
            for stream in _reconcile_keyed(pair, chunk, spec.seed, first):
                samples["block_yield"].append(stream.block_yield)
                if "final_key_hex" not in extras:
                    extras["final_key_hex"] = bits_to_hex(stream.final_alice)
                    extras["final_key_bits"] = len(stream.final_alice)
                    if otp_message is not None:
                        ciphertext = otp_send(otp_message, [stream.final_alice])
                        extras["ciphertext_hex"] = bits_to_hex(ciphertext)
                        extras["message_bits"] = len(otp_message)
        first += len(chunk)
        del chunk  # before the next chunk is run
    if otp_message is not None and "ciphertext_hex" not in extras:
        raise KeyMaterialError(f"need {len(otp_message)} key bits but no trial yielded key bits")

    combined = hashlib.sha256("".join(digests).encode()).hexdigest()
    return RunReport(
        spec=spec.describe(),
        trials=spec.trials,
        abort_rate=aborted / spec.trials,
        metrics={name: _summary(samples[name]) for name in spec.metrics},
        transcript_digest=digests[0] if digests else "",
        combined_digest=combined,
        extras=extras,
    )


# ---------------------------------------------------------------------------
# Transcript replay verification


@dataclass
class Verdict:
    ok: bool
    issues: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


# A check-select payload: 0-based block indices, comma separated. Compiled on
# first use (re caches it): compiling it at import raised the peak memory of
# runs that never replay by about 0.2 MiB.
_INDEX_LIST = r"[0-9]{1,18}(?:,[0-9]{1,18})*"


def _party_index(party: str, prefix: str, count: int) -> int:
    """i of a party named ``<prefix><i>`` with 1 <= i <= count, else 0."""
    digits = party[len(prefix):]
    if not party.startswith(prefix) or not digits.isdecimal() or len(digits) > len(str(count)):
        return 0
    i = int(digits)
    return i if 1 <= i <= count and party == f"{prefix}{i}" else 0


def replay(text: str) -> Verdict:
    """Re-derive every deterministic consequence of a transcript and diff it.

    Checks announcement ordering, that without quantum memory each receiver
    measured after its ack and before any basis announcement, sift masks
    against announced bases, '?' outcomes against the loss records, the check
    selection, check reveals against the measurement records, the recomputed
    disagreement rate against the recorded one, abort consistency, the raw key
    against the receivers' contributions, and the shape of the adversary
    section. Any mismatch, and any payload of the wrong length or alphabet, is
    reported with its location. Time and memory are linear in the length of
    ``text``: no array is sized from the config alone.
    """
    parsed = parse(text)
    issues: list[str] = []
    try:
        n = int(parsed.config["receivers"])
        blocks = int(parsed.config["blocks"])
        senders = int(parsed.config["senders"])
        threshold = float(parsed.config["qber_abort_threshold"])
        fraction = float(parsed.config["check_fraction"])
        want = checked_block_count(fraction, blocks)
        if min(n, blocks, senders) < 1:
            raise ValueError("receivers, blocks and senders must be positive")
    except (KeyError, ValueError, OverflowError) as err:
        return Verdict(False, [f"config: missing or malformed field ({err})"])

    def decode(ev: Event, codes: int, length: int | None = None) -> np.ndarray | None:
        """The payload of ``ev`` as a plane of codes below ``codes``, or None and an issue."""
        plane = str_to_plane(ev.payload)
        if plane.size and plane.max() >= codes:
            issues.append(f"{ev.party}: {ev.kind} payload has a character outside {'01?'[:codes]!r}")
        elif length is not None and len(plane) != length:
            issues.append(f"{ev.party}: {ev.kind} payload has {len(plane)} positions, expected {length}")
        else:
            return plane
        return None

    def records(kind: str, codes: int, length: int | None = None) -> dict[str, np.ndarray]:
        """Each party's last well-formed ``kind`` payload, unless a malformed one came later."""
        out = {}
        for ev in parsed.events_of(kind):
            out.pop(ev.party, None)
            plane = decode(ev, codes, length)
            if plane is not None:
                out[ev.party] = plane
        return out

    acks = {ev.party: ev.seq for ev in parsed.events_of(KIND_ACK)}
    announce_seqs = [ev.seq for ev in parsed.events_of(KIND_BASES)]
    bases = records(KIND_BASES, 2)
    measured = records(KIND_MEASURED, 3, blocks)
    sift = records(KIND_SIFT, 2, blocks)
    guesses = records(KIND_GUESS, 2, blocks)
    raw_key_events = parsed.events_of(KIND_RAW_KEY)
    receivers = sorted(filter(None, (_party_index(party, "bob", n) for party in measured)))

    if announce_seqs and acks and min(announce_seqs) <= max(acks.values()):
        issues.append("ordering: a basis announcement precedes a reception acknowledgment")
    if announce_seqs and len(acks) < n:
        issues.append(f"ordering: only {len(acks)} of {n} receivers acknowledged before announcements")
    if parsed.config.get("quantum_memory") == "0":
        # Without storage a receiver measures in guessed bases, once, between
        # its ack and the first announcement; the no-memory sift assumes it.
        premeasured: dict[str, list[int]] = {}
        for ev in parsed.events_of(KIND_EARLY_MEASURE):
            premeasured.setdefault(ev.party, []).append(ev.seq)
        for party in (f"bob{l}" for l in receivers):
            seqs = premeasured.get(party, [])
            if len(seqs) != 1:
                issues.append(f"{party}: {len(seqs)} premeasure records, expected one")
            elif seqs[0] < acks.get(party, seqs[0] + 1):
                issues.append(f"{party}: premeasure record does not follow its ack")
            elif announce_seqs and seqs[0] > min(announce_seqs):
                issues.append(f"{party}: premeasure record follows a basis announcement")

    combined = None
    if (announce_seqs or measured) and len(bases) != senders:
        issues.append(f"bases: {len(bases)} of {senders} senders announced a well-formed basis string")
    elif len(bases) == senders:
        wrong = [party for party, plane in bases.items() if len(plane) not in (n * blocks, blocks)]
        if wrong:
            issues.append(f"{wrong[0]}: basis string has unexpected length {len(bases[wrong[0]])}")
        else:
            combined = combined_basis(list(bases.values()), blocks)

    usable: dict[int, np.ndarray] = {}
    for l in receivers:
        party = f"bob{l}"
        known = measured[party] != UNUSABLE
        usable[l] = known
        if party not in sift:
            continue
        kept = sift[party] == 1
        usable[l] = known & kept
        if party in guesses and combined is not None:
            derived = sift_mask(known, guesses[party], np.broadcast_to(combined, (blocks, n))[:, l - 1])
            for j in np.flatnonzero(derived != usable[l]).tolist():
                issues.append(f"{party}: sift flag at block {j} contradicts announced bases")

    # A receiver's loss bitmap marks exactly its '?' outcomes, and what a
    # sender hop lost at position n*j + l-1 stays lost for receiver l.
    receiver_lost: dict[int, np.ndarray] = {}
    hop_lost: dict[str, np.ndarray] = {}
    for ev in parsed.events_of(KIND_LOSS):
        l = _party_index(ev.party, "bob", n)
        if not l and not _party_index(ev.party, "alice", senders):
            issues.append(f"{ev.party}: loss record from a party on no hop")
            continue
        lost = decode(ev, 2, blocks if l else n * blocks)
        if lost is not None and l:
            receiver_lost[l] = lost == 1
        elif lost is not None:
            hop_lost[ev.party] = lost.reshape(blocks, n) == 1
    for l in receivers:
        contradicts = (measured[f"bob{l}"] == UNUSABLE) != receiver_lost.get(l, False)
        for j in np.flatnonzero(contradicts).tolist():
            issues.append(f"bob{l}: measurement record at block {j} contradicts its loss record")
    if hop_lost:
        none = np.zeros(blocks, dtype=bool)
        arrived = ~np.column_stack([receiver_lost.get(l, none) for l in range(1, n + 1)])
        for party, lost in hop_lost.items():
            for j, c in np.argwhere(lost & arrived).tolist():
                issues.append(f"{party}: loss at block {j} is missing from bob{c + 1}'s loss record")

    select = parsed.events_of(KIND_CHECK_SELECT)
    rows = np.zeros(0, dtype=np.int64)  # checked blocks, ascending
    if select:
        payload = select[0].payload
        if payload != "-" and not re.fullmatch(_INDEX_LIST, payload):
            issues.append("check-select: payload is not a comma list of block indices")
        else:
            chosen = rows if payload == "-" else np.sort(np.fromstring(payload, np.int64, sep=","))
            repeated = chosen[1:][chosen[1:] == chosen[:-1]]
            if len(chosen) and chosen[-1] >= blocks:
                issues.append(f"check-select: block {chosen[-1]} is outside [0, {blocks})")
            elif len(repeated):
                issues.append(f"check-select: block {repeated[0]} is selected more than once")
            else:
                rows = chosen
            if len(chosen) != want:
                issues.append(
                    f"check-select: {len(chosen)} blocks selected, "
                    f"but ceil({fraction!r} * {blocks}) = {want}"
                )

    if len(rows):
        sender_reveals = records(KIND_CHECK_SENDER, 2, len(rows) * n)
        recv_reveals = records(KIND_CHECK_RECV, 3, len(rows))
        if len(sender_reveals) < senders:
            issues.append(f"check-sender: {len(sender_reveals)} of {senders} senders revealed their bits")
            sent = None
        else:
            sent = [sender_reveals.get(f"alice{i}") for i in range(1, senders + 1)]
            for i, bits in enumerate(sent, start=1):
                if bits is None:
                    issues.append(f"alice{i}: no check reveal recorded")
        if sent is not None and all(bits is not None for bits in sent):
            _check_reveals(issues, parsed, rows, sent, recv_reveals, measured, n, threshold)

    raw_key = decode(raw_key_events[0], 2) if raw_key_events else None
    if raw_key is not None:
        key_blocks = np.zeros(0, dtype=np.intp)
        if len(usable) == n:  # every receiver's mask has ``blocks`` entries
            checked = np.zeros(blocks, dtype=bool)
            checked[rows] = True
            key_blocks = np.flatnonzero(key_block_mask([usable[l] for l in receivers], checked))
        if len(raw_key) != len(key_blocks):
            issues.append(
                f"raw-key: {len(raw_key)} bits recorded but {len(key_blocks)} blocks qualify"
            )
        else:
            contribs = records(KIND_KEY_CONTRIB, 2, len(key_blocks))
            if len(key_blocks):
                _check_key(issues, key_blocks, raw_key, contribs, measured, n)
    if parsed.adversary:
        _check_adversary(issues, parsed.adversary, n * blocks)
    return Verdict(not issues, issues)


def _check_adversary(issues, section: dict[str, str], size: int) -> None:
    """A kind, strictly increasing positions in [0, size), and a 0/1 entry per position."""
    if not section.get("kind"):
        issues.append("adversary: no kind recorded")
    positions = section.get("positions", "")
    if positions == "-":
        count = 0
    elif not re.fullmatch(_INDEX_LIST, positions):
        issues.append("adversary: positions is not a comma list of qubit positions")
        return
    else:
        touched = np.fromstring(positions, np.int64, sep=",")
        count = len(touched)
        if np.any(touched[1:] <= touched[:-1]):
            issues.append("adversary: positions are not strictly increasing")
        elif int(touched[-1]) >= size:
            issues.append(f"adversary: position {touched[-1]} is outside [0, {size})")
    for key in ("bases", "bits", "certain"):
        plane = str_to_plane(section.get(key, ""))
        if key not in section or (plane.size and plane.max() > 1):
            issues.append(f"adversary: {key} is missing or has a character outside '01'")
        elif len(plane) != count:
            issues.append(f"adversary: {key} has {len(plane)} entries, expected {count}")


def _check_reveals(issues, parsed, rows, sent, recv_reveals, measured, n, threshold) -> None:
    """Receivers' reveals against their measurements and the senders' XOR, then the tally."""
    expected = np.bitwise_xor.reduce([bits.reshape(len(rows), n) for bits in sent])
    compared = disagree = 0
    for l in range(1, n + 1):
        party = f"bob{l}"
        revealed = recv_reveals.get(party)
        if revealed is None:
            issues.append(f"{party}: no check reveal recorded")
            continue
        if party in measured:
            contradicts = (revealed != UNUSABLE) & (measured[party][rows] != revealed)
            for j in rows[contradicts].tolist():
                issues.append(f"{party}: check reveal at block {j} contradicts its measurement record")
        shown, differ = check_tally(revealed, expected[:, l - 1])
        compared += shown
        disagree += differ
    results = parsed.events_of(KIND_CHECK_RESULT)
    if not results:
        issues.append("check-result: no result recorded for the check")
        return
    fields = dict(item.partition("=")[::2] for item in results[0].payload.split(";"))
    try:
        recorded = (int(fields["compared"]), int(fields["disagree"]))
        recorded_pass = fields["pass"] == "1"
    except (KeyError, ValueError):
        issues.append(f"check-result: malformed payload {results[0].payload!r}")
        return
    if recorded != (compared, disagree):
        issues.append(
            f"check-result: recorded {recorded[0]}/{recorded[1]} "
            f"but reveals give {compared}/{disagree}"
        )
    rate = disagree / compared if compared else 0.0
    if recorded_pass != (rate <= threshold):
        issues.append("check-result: pass flag contradicts the recomputed rate")
    aborted = bool(parsed.events_of(KIND_ABORT))
    if not recorded_pass and not aborted:
        issues.append("check-result: failed check without an abort event")
    if recorded_pass and not parsed.events_of(KIND_RAW_KEY) and not aborted:
        issues.append("raw-key: passing run recorded no key")


def _check_key(issues, key_blocks, raw_key, contribs, measured, n) -> None:
    """Contributions against the measurement records, and the raw key against their XOR.

    Receivers are taken in order at each key block and the first without a
    contribution ends that block's checks, so the XOR is checked only when
    every receiver contributed.
    """
    parties = [f"bob{l}" for l in range(1, n + 1)]
    given = list(itertools.takewhile(contribs.__contains__, parties))
    missing = parties[len(given)] if len(given) < n else None
    shape = (len(given), len(key_blocks))
    shares = np.array([contribs[p] for p in given], dtype=np.uint8).reshape(shape)
    held = np.array([measured[p][key_blocks] for p in given], dtype=np.uint8).reshape(shape)
    contradicts = held != shares
    if missing is None:
        wrong_bit = receivers_xor(shares.T) != raw_key
        flagged = np.flatnonzero(contradicts.any(axis=0) | wrong_bit).tolist()
    else:
        flagged = range(len(key_blocks))
    for idx in flagged:
        j = int(key_blocks[idx])
        for c in np.flatnonzero(contradicts[:, idx]).tolist():
            issues.append(f"{given[c]}: key contribution at block {j} contradicts its measurement record")
        if missing is not None:
            issues.append(f"{missing}: missing key contribution for block {j}")
        elif wrong_bit[idx]:
            issues.append(f"raw-key: bit {idx} (block {j}) is not the XOR of the contributions")
