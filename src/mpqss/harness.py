"""Seeded Monte Carlo experiment runner, report formats, and transcript replay.

Per-trial seeds come from a documented counter scheme (word t of the master
seed's "trials" stream, ``planes.stream_words``), so any single trial can be
re-run in isolation and identical experiment specs produce byte-identical reports.
"""

from __future__ import annotations

import collections
import enum
import hashlib
import json
import math
import operator
import statistics
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import NamedTuple

import numpy as np

from .channel import IDEAL, ChannelModel, InterceptResend, OrderingAttack
from .errors import ConfigError, KeyMaterialError
from .config import ProtocolConfig, Variant, checked_block_count
from .postprocessing import CssPair, Reconciled, bits_to_hex, build_canonical_css, key_rate, otp_send
from .postprocessing import reconcile_blocks
from .planes import UNUSABLE, Substream, check_tally, combined_basis, key_block_mask, receivers_xor, sift_mask
from .planes import stream_keys, stream_words
from .protocol import expanded_values, run_chunks, secret_lengths, trials_per_chunk

# The one-trial forms, which run_experiment no longer calls; perfbench/tracing.py
# spans calls at these names.
from .postprocessing import reconcile_stream  # noqa: F401
from .protocol import run_protocol  # noqa: F401
from .transcript import (
    ABORT_ERROR_RATE,
    ABORT_ORDERING,
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
    ParsedTranscript,
    parse,
    str_to_codes,
)

# Every metric's sampler: the list of a chunk's samples, in trial order, from
# the chunk's columns. A column is None when no trial of the chunk got that far.
METRICS = {
    "qber": lambda chunk, spec: _column(chunk.qber),
    "detection_prob": lambda chunk, spec: _column(None if chunk.qber is None else chunk.disagreements > 0),
    "key_rate": lambda chunk, spec: _key_rates(_column(chunk.qber)),
    "efficiency": lambda chunk, spec: _column(chunk.efficiency),
    "sift_rate": lambda chunk, spec: _column(chunk.sift_rate),
    "adversary_accuracy": lambda chunk, spec: _adversary_accuracy(chunk, spec),
    "block_yield": lambda chunk, spec: _block_yields(chunk),
}


def _column(values: np.ndarray | None) -> list[float]:
    return [] if values is None else values.astype(float).tolist()


def _key_rates(qbers: list[float]) -> list[float]:
    """``key_rate`` of each error rate, taken once per distinct rate: a chunk has far fewer of them than trials."""
    rates = {q: key_rate(q) for q in set(qbers)}
    return list(map(rates.__getitem__, qbers))


def trial_seeds(master_seed: int, start: int, stop: int) -> list[int]:
    """The 64-bit seeds of trials ``start`` to ``stop - 1``: those words of the master's "trials" stream."""
    [key] = stream_keys(np.array([master_seed], np.uint64), "trials", 1)
    return stream_words(key, start, stop)[0].tolist()


def derive_trial_seed(master_seed: int, trial: int) -> int:
    """64-bit seed for one trial; stable across platforms and runs."""
    return trial_seeds(master_seed, trial, trial + 1)[0]


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
        if type(self.trials) is not int:  # True would run one trial and report "trials": true
            raise ConfigError("trials", "must be an int")
        if self.trials < 1:
            raise ConfigError("trials", "need at least one trial")
        # Not a float, nor a bool, which reports would show as True over seed 1's draws.
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise ConfigError("seed", "must be in [0, 2**64) and an int")
        for k, name in enumerate(self.metrics):
            if name not in METRICS:
                raise ConfigError("metrics", f"unknown metric {name!r}; known: {', '.join(METRICS)}")
            if name in self.metrics[:k]:
                raise ConfigError("metrics", f"metric {name!r} is named more than once")

    def describe(self) -> dict:
        return {
            "protocol": self.protocol.snapshot(),
            "channel": _described(self.channel),
            "trials": self.trials,
            "metrics": list(self.metrics),
            "seed": self.seed,
        }


def _described(obj) -> dict:
    """A dataclass's fields as JSON values: enums by value, sets sorted, an adversary with its kind.

    ``fields`` leaves out class constants such as ``PreparerInsider.target``.
    """
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, frozenset):
            value = sorted(value)
        elif is_dataclass(value):
            value = {"kind": type(value).__name__, **_described(value)}
        out[f.name] = value
    return out


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
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

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
        values = expanded_values(chunk.secrets, cfg)
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


def _reconcile_keyed(pair: CssPair, chunk: Chunk, stop: int | None = None) -> Reconciled:
    """The trials of ``chunk`` with a key bit, the first ``stop`` of them or all, reconciled in one pass.

    A trial's keys are its bits of the chunk's flat keys, a row of
    :func:`reconcile_blocks` with coins from the "pp" phase of its own seed.
    """
    sizes = np.diff(chunk.key_bounds)
    keyed = np.flatnonzero(sizes)[:stop]
    lengths, ends = sizes[keyed], chunk.key_bounds[1:][keyed]
    # Trials without a key bit hold none of the flat keys, so the first ``stop`` keyed trials' bits lead them.
    error = (chunk.raw_key ^ chunk.reference_key)[:ends[-1] if len(ends) else 0]
    padded = np.insert(error, np.repeat(ends, -lengths % pair.c1.length), 0)
    return reconcile_blocks(pair, padded, lengths, Substream([chunk.seeds[t] for t in keyed.tolist()], "pp"))


def _block_yields(chunk: Chunk) -> list[float]:
    """Each keyed trial's ``block_yield``, its raw keys reconciled with those of the chunk's other keyed trials."""
    return [] if chunk.key_bounds is None else _reconcile_keyed(build_canonical_css(), chunk).block_yield.tolist()


def _key_extras(pair: CssPair, chunk: Chunk, otp_message: list | None) -> dict:
    """The final key of ``chunk``'s first keyed trial, and the message sent under it, as report extras;
    none if no trial has a key bit.

    That trial is reconciled alone, which gives it the key it has among all of the chunk's keyed trials.
    """
    if chunk.key_bounds is None or not chunk.key_bounds[-1]:
        return {}
    rec = _reconcile_keyed(pair, chunk, 1)
    key = pair._keys[rec.alice].ravel().tolist()
    extras = {"final_key_hex": bits_to_hex(key), "final_key_bits": len(key)}
    if otp_message is not None:
        extras["ciphertext_hex"] = bits_to_hex(otp_send(otp_message, [key]))
        extras["message_bits"] = len(otp_message)
    return extras


def run_experiment(spec: ExperimentSpec, otp_message: list | None = None) -> RunReport:
    """Run ``spec.trials`` independent seeded runs and aggregate the requested metrics.

    ``otp_message`` (bits) is encrypted against the first keyed trial's
    distilled key and reported as ciphertext_hex; it needs the block_yield
    metric and refuses when the key runs short or no trial yields key bits.
    For block_yield the raw keys of each chunk's keyed trials are reconciled
    in one pass, each with coins from the "pp" phase of the trial's seed.
    """
    spec.validate()
    samples: dict[str, list[float]] = {name: [] for name in spec.metrics}
    aborted = 0
    digests: list[str] = []
    pair = build_canonical_css() if "block_yield" in spec.metrics else None
    extras: dict = {}
    if otp_message is not None and pair is None:
        raise ConfigError("metrics", "an outgoing message needs the block_yield metric")
    per_chunk = trials_per_chunk(spec.protocol)
    seeds = (seed for start in range(0, spec.trials, per_chunk)
             for seed in trial_seeds(spec.seed, start, min(start + per_chunk, spec.trials)))
    for chunk in run_chunks(spec.protocol, spec.channel, seeds):
        digests.extend(chunk.digests())
        aborted += int(np.count_nonzero(chunk.aborted))
        for name in spec.metrics:
            samples[name].extend(METRICS[name](chunk, spec))
        if pair is not None and not extras:
            extras = _key_extras(pair, chunk, otp_message)
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


def _index_list(payload: str) -> np.ndarray | None:
    """The integers of a comma list of 1 to 18 ASCII digits each, or None if ``payload`` is not one.

    The list is checked on its byte plane: each byte a digit or a comma, and
    between neighbouring commas and the ends 1 to 18 bytes.
    """
    raw = np.frombuffer(payload.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    commas = np.flatnonzero(raw == ord(","))
    widths = np.diff(commas, prepend=-1, append=len(raw)) - 1
    digits = np.count_nonzero(raw - ord("0") < 10)
    if digits + len(commas) != len(raw) or not 1 <= widths.min() <= widths.max() <= 18:
        return None
    return np.fromstring(payload, np.int64, sep=",")


class Row(NamedTuple):
    """What a transcript must hold of one record kind."""

    recorders: tuple[str, ...]  # who records it: a receiver bob1..bobn, a sender alice1..alicem, or "all"
    payload: str  # its form: a key of WORDS, an alphabet "01" or "01?", "indices", or the check's "tally"
    after: tuple[str, ...] = ()  # kinds whose admitted records all come before its first
    own: tuple[str, ...] = ()  # kinds whose record by the same party comes before its record
    due: tuple[str, ...] = ()  # kinds or check outcomes any of which makes it due from every party of its role
    barred: str = ""  # the check outcome, "passed" or "failed", after which any record of it is an issue
    no_memory: bool = False  # the engine writes it only without quantum memory
    texts: dict[str, str] = {}  # pinned issue texts: by a kind of ``after`` or ``own``, "due" or "barred"


# The payloads a word form allows: none, or the reasons the engine aborts for.
WORDS = {"-": ("-",), "reason": (ABORT_ERROR_RATE, ABORT_ORDERING)}
RECEIVER, SENDER, ALL = ("receiver",), ("sender",), ("'all'",)
GRAMMAR = {
    KIND_LOSS: Row(SENDER + RECEIVER, "01"),
    KIND_ACK: Row(RECEIVER, "-", own=(KIND_LOSS,), due=(KIND_BASES,), texts={
        "due": "ordering: only {count} of {size} receivers acknowledged before announcements"}),
    KIND_EARLY_MEASURE: Row(RECEIVER, "-", own=(KIND_ACK,), due=(KIND_MEASURED,), no_memory=True, texts={
        KIND_ACK: "{b}: premeasure record does not follow its ack"}),
    KIND_BASES: Row(SENDER, "01", after=(KIND_ACK, KIND_EARLY_MEASURE), own=(KIND_LOSS,),
                    due=(KIND_BASES, KIND_MEASURED), texts={
        KIND_ACK: "ordering: a basis announcement precedes a reception acknowledgment",
        KIND_EARLY_MEASURE: "{a}: premeasure record follows a basis announcement",
        "due": "bases: {count} of {size} senders announced a basis string"}),
    KIND_GUESS: Row(RECEIVER, "01", after=(KIND_BASES,), due=(KIND_MEASURED,), no_memory=True),
    KIND_SIFT: Row(RECEIVER, "01", own=(KIND_GUESS,), due=(KIND_MEASURED,), no_memory=True),
    KIND_MEASURED: Row(RECEIVER, "01?", after=(KIND_BASES,), own=(KIND_SIFT,), due=(KIND_CHECK_SELECT,)),
    KIND_CHECK_SELECT: Row(ALL, "indices", after=(KIND_MEASURED,), due=(KIND_MEASURED,)),
    KIND_CHECK_SENDER: Row(SENDER, "01", after=(KIND_CHECK_SELECT,), due=(KIND_CHECK_SELECT,), texts={
        "due": "check-sender: {count} of {size} senders revealed their bits"}),
    KIND_CHECK_RECV: Row(RECEIVER, "01?", after=(KIND_CHECK_SELECT,), due=(KIND_CHECK_SELECT,)),
    KIND_CHECK_RESULT: Row(ALL, "tally", after=(KIND_CHECK_SENDER, KIND_CHECK_RECV), due=(KIND_CHECK_SELECT,),
                           texts={"due": "check-result: no result recorded for the check"}),
    KIND_KEY_CONTRIB: Row(RECEIVER, "01", after=(KIND_CHECK_RESULT,), due=(KIND_RAW_KEY,), barred="failed"),
    KIND_RAW_KEY: Row(ALL, "01", after=(KIND_KEY_CONTRIB,), due=("passed",), barred="failed", texts={
        "due": "raw-key: passing run recorded no key", "barred": "raw-key: key recorded after a failed check"}),
    KIND_ABORT: Row(ALL, "reason", after=(KIND_CHECK_RESULT,), due=("failed",), barred="passed", texts={
        "due": "check-result: failed check without an abort event",
        "barred": "check-result: passing check with an abort event"}),
}


def _role(party: str, n: int, senders: int) -> str:
    """The recorder of ``GRAMMAR`` that ``party`` names, or "" for none."""
    for role, prefix, count in (("receiver", "bob", n), ("sender", "alice", senders)):
        digits = party[len(prefix):]
        if party.startswith(prefix) and digits.isdecimal() and len(digits) <= len(str(count)):
            if 1 <= int(digits) <= count and party == f"{prefix}{int(digits)}":
                return role
    return "'all'" if party == "all" else ""


def _marked(mismatch: np.ndarray) -> list[int]:
    """The flat indices that ``mismatch`` marks, ascending; a clean mask costs one ``any``."""
    return np.flatnonzero(mismatch).tolist() if mismatch.any() else []


class _Replay:
    """What replay has read of one transcript, and its issues: each rule of ``_RULES`` reads and adds to it.

    The constructor reads the config fields the rules trust, raising KeyError,
    ValueError or OverflowError for a missing or malformed one.
    """

    def __init__(self, parsed: ParsedTranscript):
        self.n, self.blocks, self.senders = (int(parsed.config[key]) for key in ("receivers", "blocks", "senders"))
        self.threshold = float(parsed.config["qber_abort_threshold"])
        self.fraction = float(parsed.config["check_fraction"])
        self.want = checked_block_count(self.fraction, self.blocks)
        self.variant = Variant(parsed.config["variant"])
        self.memory = {"0": False, "1": True}[parsed.config["quantum_memory"]]
        if min(self.n, self.blocks, self.senders) < 1:
            raise ValueError("receivers, blocks and senders must be positive")
        self.parsed = parsed
        self.issues: list[str] = []
        self.admitted: dict[str, dict[str, Event]] = {kind: {} for kind in GRAMMAR}
        self.columns: dict[str, int] = {}  # each receiver party's column of a block, ascending
        self.tally = None  # the recorded check: compared, disagree, and whether it passed
        self.decoded: dict[str, dict[str, np.ndarray]] = {}  # each kind's well-formed payloads, once read
        self.usable: dict[str, np.ndarray] = {}  # each measuring receiver's usable outcomes, by party
        self.rows = np.zeros(0, dtype=np.int64)  # checked blocks, ascending

    def decode(self, ev: Event, length: int | None = None) -> np.ndarray | None:
        """The payload of ``ev`` as a plane of codes of its row's alphabet, or None and an issue."""
        alphabet = GRAMMAR[ev.kind].payload
        plane, top = str_to_codes(ev.payload)
        if top >= len(alphabet):
            self.issues.append(f"{ev.party}: {ev.kind} payload has a character outside {alphabet!r}")
        elif length is not None and len(plane) != length:
            self.issues.append(f"{ev.party}: {ev.kind} payload has {len(plane)} positions, expected {length}")
        else:
            return plane
        return None

    def records(self, kind: str, length: int | None = None) -> dict[str, np.ndarray]:
        """Each party's admitted ``kind`` payload, if well-formed; decoded, with its issues, at the first read."""
        if kind not in self.decoded:
            planes = {party: self.decode(ev, length) for party, ev in self.admitted[kind].items()}
            self.decoded[kind] = {party: plane for party, plane in planes.items() if plane is not None}
        return self.decoded[kind]


def _admit(state: _Replay) -> None:
    """Admit the first record of each (kind, party) pair from a recorder of its row, then read the check's tally."""
    issues, admitted = state.issues, state.admitted
    roles = {party: _role(party, state.n, state.senders) for party in {ev.party for ev in state.parsed.events}}
    repeats: collections.Counter = collections.Counter()
    for ev in state.parsed.events:
        row = GRAMMAR.get(ev.kind)
        if row is None:
            issues.append(f"{ev.party}: unknown record kind {ev.kind!r}")
        elif roles[ev.party] not in row.recorders:
            issues.append(f"{ev.party}: {ev.kind} from a party that is no {' or '.join(row.recorders)}")
        elif admitted[ev.kind].setdefault(ev.party, ev) is not ev:  # a record of the pair came first
            repeats[ev.party, ev.kind] += 1
        elif row.payload in WORDS and ev.payload not in WORDS[row.payload]:
            issues.append(f"{ev.party}: {ev.kind} payload is not {' or '.join(map(repr, WORDS[row.payload]))}")
    for (party, kind), count in repeats.items():
        issues.append(f"{party}: {1 + count} {kind} records, expected one")
    receivers = sorted((int(party[len("bob"):]) - 1, party) for party, role in roles.items() if role == "receiver")
    state.columns = {party: column for column, party in receivers}
    if result := admitted[KIND_CHECK_RESULT].get("all"):
        fields = dict(item.partition("=")[::2] for item in result.payload.split(";"))
        try:
            state.tally = (int(fields["compared"]), int(fields["disagree"]), fields["pass"] == "1")
        except (KeyError, ValueError):
            issues.append(f"check-result: malformed payload {result.payload!r}")


def _order(state: _Replay) -> None:
    """A kind's first record follows all records of its ``after`` kinds, each party's record its own of ``own``.

    Admission keeps records in text order, so a kind's first and last are its ends.
    """
    ends = {kind: (next(iter(have.values())), next(reversed(have.values())))
            for kind, have in state.admitted.items() if have}
    for kind, (first, _) in ends.items():
        row = GRAMMAR[kind]
        for before in row.after + row.own:
            if before not in ends or ends[before][1].seq < first.seq:
                continue
            if before in row.after:  # the first record of the kind precedes the last of ``before``
                pairs = [(ends[before][1].party, first.party)]
            else:
                mine = state.admitted[before]
                pairs = [(p, p) for p, ev in state.admitted[kind].items() if p in mine and mine[p].seq > ev.seq]
            text = row.texts.get(before, "{b}: {kind} record precedes a {before} record")
            state.issues.extend(text.format(a=a, b=b, kind=kind, before=before) for a, b in pairs)


def _presence(state: _Replay) -> None:
    """Once any kind or check outcome of a row's ``due`` is a fact, each party of its role owes a record.

    The receivers are those that acknowledged, and a pinned text counts the parties instead. Once
    its ``barred`` outcome is a fact, or in a memory mode that never writes it, each record is an issue.
    """
    admitted, tally = state.admitted, state.tally
    facts = {kind for kind, have in admitted.items() if have} | ({("failed", "passed")[tally[2]]} if tally else set())
    parties = {"receiver": admitted[KIND_ACK], "sender": admitted[KIND_BASES], "'all'": ("all",)}
    for kind, row in GRAMMAR.items():
        have = admitted[kind]
        if row.no_memory and state.memory:
            state.issues.extend(f"{party}: {kind} record in a run with quantum memory" for party in have)
        elif row.barred in facts:
            text = row.texts.get("barred", "{party}: {kind} record after a {barred} check")
            state.issues.extend(text.format(party=party, kind=kind, barred=row.barred) for party in have)
        elif not facts.isdisjoint(row.due) and "due" in row.texts:
            size = {"receiver": state.n, "sender": state.senders, "'all'": 1}[row.recorders[0]]
            if len(have) < size:
                state.issues.append(row.texts["due"].format(count=len(have), size=size))
        elif not facts.isdisjoint(row.due):
            for party in parties[row.recorders[0]]:
                if party not in have:
                    state.issues.append(f"{party}: 0 {kind} records, expected one")


def _sift(state: _Replay) -> None:
    """Each basis string's length, then each receiver's usable outcomes against its sift flags and guessed bases."""
    bases = state.records(KIND_BASES)
    measured = state.records(KIND_MEASURED, state.blocks)
    sift = state.records(KIND_SIFT, state.blocks)
    guesses = state.records(KIND_GUESS, state.blocks)
    combined = None
    if len(bases) == state.senders:
        length = secret_lengths(state.variant, state.n, state.blocks)[1]
        wrong = [party for party, plane in bases.items() if len(plane) != length]
        if wrong:
            state.issues.append(f"{wrong[0]}: basis string has unexpected length {len(bases[wrong[0]])}")
        else:
            combined = combined_basis(list(bases.values()), state.blocks)
    for party in (party for party in state.columns if party in measured):
        known = measured[party] != UNUSABLE
        state.usable[party] = usable = known & (sift[party] == 1) if party in sift else known
        if party in sift and party in guesses and combined is not None:
            column = np.broadcast_to(combined, (state.blocks, state.n))[:, state.columns[party]]
            for j in _marked(sift_mask(known, guesses[party], column) != usable):
                state.issues.append(f"{party}: sift flag at block {j} contradicts announced bases")


def _losses(state: _Replay) -> None:
    """A receiver's loss bitmap marks exactly its '?' outcomes, and what a sender hop lost stays lost.

    What a hop lost at position n*j + l-1 is in receiver l's bitmap if the run reached l: its ack is admitted.
    """
    received, hops = {}, {}
    for party, ev in state.admitted[KIND_LOSS].items():
        lost = state.decode(ev, state.blocks if party in state.columns else state.n * state.blocks)
        if lost is not None and "1" not in ev.payload:  # the engine records a bitmap only where it marks a loss
            state.issues.append(f"{party}: loss record marks no lost position")
        if lost is not None:
            (received if party in state.columns else hops)[party] = lost == 1
    measured = state.records(KIND_MEASURED, state.blocks)
    for party in (party for party in state.columns if party in measured):
        for j in _marked((measured[party] == UNUSABLE) != received.get(party, False)):
            state.issues.append(f"{party}: measurement record at block {j} contradicts its loss record")
    if hops:
        arrived = np.zeros((state.blocks, state.n), dtype=bool)
        for party in state.admitted[KIND_ACK]:
            arrived[:, state.columns[party]] = ~received[party] if party in received else True
        for party, lost in hops.items():
            for k in _marked(lost.reshape(state.blocks, state.n) & arrived):  # block k // n, receiver k % n + 1
                state.issues.append(
                    f"{party}: loss at block {k // state.n} is missing from bob{k % state.n + 1}'s loss record")


def _check_select(state: _Replay) -> None:
    """``check-select`` lists ``ceil(check_fraction * blocks)`` distinct blocks in range."""
    if not (select := state.admitted[KIND_CHECK_SELECT].get("all")):
        return
    listed = state.rows if select.payload == "-" else _index_list(select.payload)
    if listed is None:
        state.issues.append("check-select: payload is not a comma list of block indices")
        return
    chosen = np.sort(listed)
    repeated = chosen[1:][chosen[1:] == chosen[:-1]]
    if len(chosen) and chosen[-1] >= state.blocks:
        state.issues.append(f"check-select: block {chosen[-1]} is outside [0, {state.blocks})")
    elif len(repeated):
        state.issues.append(f"check-select: block {repeated[0]} is selected more than once")
    else:
        state.rows = chosen
    if len(chosen) != state.want:
        state.issues.append(f"check-select: {len(chosen)} blocks selected, "
                            f"but ceil({state.fraction!r} * {state.blocks}) = {state.want}")


def _reveals(state: _Replay) -> None:
    """Receivers' reveals against their measurements and the senders' XOR, then the recorded tally."""
    rows, n = state.rows, state.n
    if not len(rows):
        return
    sent = state.records(KIND_CHECK_SENDER, len(rows) * n)
    revealed = state.records(KIND_CHECK_RECV, len(rows))
    if len(sent) != state.senders:  # only now is the list of senders bounded by the records
        return
    expected = np.bitwise_xor.reduce([bits.reshape(len(rows), n) for bits in sent.values()])
    measured = state.records(KIND_MEASURED, state.blocks)
    parties = [party for party in state.columns if party in revealed]
    for party in (party for party in parties if party in measured):
        contradicts = (revealed[party] != UNUSABLE) & (measured[party][rows] != revealed[party])
        for j in rows[contradicts].tolist():
            state.issues.append(f"{party}: check reveal at block {j} contradicts its measurement record")
    outcomes = np.array([revealed[party] for party in parties], dtype=np.uint8).reshape(len(parties), len(rows))
    compared, disagree = check_tally(outcomes, expected[:, [state.columns[party] for party in parties]].T)
    tally = state.tally
    if tally is not None and tally[:2] != (compared, disagree):
        state.issues.append(f"check-result: recorded {tally[0]}/{tally[1]} but reveals give {compared}/{disagree}")
    rate = disagree / compared if compared else 0.0
    if tally is not None and tally[2] != (rate <= state.threshold):
        state.issues.append("check-result: pass flag contradicts the recomputed rate")


def _key(state: _Replay) -> None:
    """The raw key's length, contributions against the measurement records, and the key against their XOR."""
    raw_key = state.records(KIND_RAW_KEY).get("all")
    if raw_key is None:
        return
    key_blocks = np.zeros(0, dtype=np.intp)
    if len(state.usable) == state.n:  # every receiver's mask has ``blocks`` entries
        checked = np.zeros(state.blocks, dtype=bool)
        checked[state.rows] = True
        key_blocks = np.flatnonzero(key_block_mask(list(state.usable.values()), checked))
    if len(raw_key) != len(key_blocks):
        state.issues.append(f"raw-key: {len(raw_key)} bits recorded but {len(key_blocks)} blocks qualify")
        return
    contribs = state.records(KIND_KEY_CONTRIB, len(key_blocks))
    if not len(key_blocks):
        return
    measured = state.records(KIND_MEASURED, state.blocks)
    given = [party for party in state.columns if party in contribs]
    shape = (len(given), len(key_blocks))
    shares = np.array([contribs[p] for p in given], dtype=np.uint8).reshape(shape)
    held = np.array([measured[p][key_blocks] for p in given], dtype=np.uint8).reshape(shape)
    contradicts = held != shares
    wrong_bit = np.zeros(len(key_blocks), dtype=bool) if len(given) < state.n else receivers_xor(shares.T) != raw_key
    for idx in np.flatnonzero(contradicts.any(axis=0) | wrong_bit).tolist():
        j = int(key_blocks[idx])
        for c in np.flatnonzero(contradicts[:, idx]).tolist():
            state.issues.append(f"{given[c]}: key contribution at block {j} contradicts its measurement record")
        if wrong_bit[idx]:
            state.issues.append(f"raw-key: bit {idx} (block {j}) is not the XOR of the contributions")


def _adversary(state: _Replay) -> None:
    """A kind, strictly increasing positions in [0, n*blocks), and a 0/1 entry per position."""
    section, size = state.parsed.adversary, state.n * state.blocks
    if not section:
        return
    if not section.get("kind"):
        state.issues.append("adversary: no kind recorded")
    positions = section.get("positions", "")
    touched = np.zeros(0, dtype=np.int64) if positions == "-" else _index_list(positions)
    if touched is None:
        state.issues.append("adversary: positions is not a comma list of qubit positions")
        return
    if np.any(touched[1:] <= touched[:-1]):
        state.issues.append("adversary: positions are not strictly increasing")
    elif len(touched) and int(touched[-1]) >= size:
        state.issues.append(f"adversary: position {touched[-1]} is outside [0, {size})")
    for key in ("bases", "bits", "certain"):
        plane, top = str_to_codes(section.get(key, ""))
        if key not in section or top > 1:
            state.issues.append(f"adversary: {key} is missing or has a character outside '01'")
        elif len(plane) != len(touched):
            state.issues.append(f"adversary: {key} has {len(plane)} entries, expected {len(touched)}")


# Replay's rules, in the order their issues are listed; each reads what the rules before it left.
_RULES = (_admit, _order, _presence, _sift, _losses, _check_select, _reveals, _key, _adversary)


def replay(text: str) -> Verdict:
    """Re-derive every deterministic consequence of a transcript and diff it, by the rules of ``_RULES`` in turn.

    Time and memory are linear in ``text``: no array is sized from the config alone.
    """
    parsed = parse(text)
    try:
        state = _Replay(parsed)
    except (KeyError, ValueError, OverflowError) as err:
        return Verdict(False, [f"config: missing or malformed field ({err})"])
    for rule in _RULES:
        rule(state)
    return Verdict(not state.issues, state.issues)
