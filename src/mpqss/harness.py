"""Seeded Monte Carlo experiment runner, report formats, and transcript replay.

Per-trial seeds come from a documented counter scheme (SHA-256 of
``"<master>:<trial>"``, top eight bytes), so any single trial can be re-run in
isolation and identical experiment specs produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (
    IDEAL,
    ChannelModel,
    ColluderInsider,
    InterceptResend,
    OrderingAttack,
    PreparerInsider,
)
from .errors import ConfigError
from .postprocessing import bits_to_hex, build_canonical_css, key_rate, otp_send, reconcile_stream
from .protocol import (
    ProtocolConfig,
    block_of,
    expanded_bit_vectors,
    position,
    run_protocol,
)
from .transcript import (
    KIND_ABORT,
    KIND_ACK,
    KIND_BASES,
    KIND_CHECK_RECV,
    KIND_CHECK_RESULT,
    KIND_CHECK_SELECT,
    KIND_CHECK_SENDER,
    KIND_GUESS,
    KIND_KEY_CONTRIB,
    KIND_MEASURED,
    KIND_RAW_KEY,
    KIND_SIFT,
    Transcript,
    parse,
    str_to_bits,
)

METRICS = (
    "qber",
    "detection_prob",
    "key_rate",
    "efficiency",
    "sift_rate",
    "adversary_accuracy",
    "block_yield",
)


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
    output: str = "json"
    seed: int = 0

    def validate(self) -> None:
        self.protocol.validate(path="protocol")
        self.channel.validate(path="channel")
        if self.trials < 1:
            raise ConfigError("trials", "need at least one trial")
        for name in self.metrics:
            if name not in METRICS:
                raise ConfigError("metrics", f"unknown metric {name!r}; known: {', '.join(METRICS)}")
        if self.output not in ("json", "csv", "text"):
            raise ConfigError("output", "must be one of json, csv, text")

    def describe(self) -> dict:
        adv = self.channel.adversary
        adversary = None
        if adv is not None:
            adversary = {"kind": type(adv).__name__}
            for name in getattr(adv, "__dataclass_fields__", {}):
                value = getattr(adv, name)
                if isinstance(value, frozenset):
                    value = sorted(value)
                adversary[name] = value
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
    mean = statistics.fmean(samples)
    stderr = statistics.stdev(samples) / len(samples) ** 0.5 if len(samples) > 1 else 0.0
    return MetricSummary(mean, stderr, len(samples))


def _adversary_accuracy(tr: Transcript, cfg: ProtocolConfig, adversary) -> float | None:
    """Strategy-appropriate accuracy of the recorded attack, against the run's truth."""
    rec = tr.adversary
    if rec is None or not rec.positions or tr._secrets is None:
        return None
    values, _ = expanded_bit_vectors(tr._secrets, cfg)
    if isinstance(adversary, InterceptResend):
        truth = np.bitwise_xor.reduce(values, axis=0).tolist()
        hits = sum(1 for p, b in zip(rec.positions, rec.bits) if b == truth[p])
        return hits / len(rec.positions)
    if isinstance(adversary, PreparerInsider):
        truth = values[1].tolist()
        hits = sum(
            1 for p, b, ok in zip(rec.positions, rec.bits, rec.certain) if ok and b == truth[p]
        )
        return hits / len(rec.positions)
    if isinstance(adversary, ColluderInsider):
        truth = values[adversary.target - 1].tolist()
        hits = sum(
            1 for p, b, ok in zip(rec.positions, rec.bits, rec.certain) if ok and b == truth[p]
        )
        return hits / len(rec.positions)
    if isinstance(adversary, OrderingAttack):
        if tr.raw_key is None or not tr.key_blocks:
            return None
        recovered = recovered_raw_key(rec.bits, rec.positions, tr.key_blocks, cfg)
        hits = sum(1 for a, b in zip(recovered, tr.raw_key) if a == b)
        return hits / len(tr.raw_key)
    return None


def recovered_raw_key(bits, positions, key_blocks, cfg: ProtocolConfig) -> tuple[int, ...]:
    """Assemble an interceptor's per-position readings into key-block bits."""
    by_pos = dict(zip(positions, bits))
    key = []
    for j in key_blocks:
        bit = 0
        for l in range(1, cfg.receivers + 1):
            bit ^= by_pos.get(position(j, l, cfg.receivers), 0)
        key.append(bit)
    return tuple(key)


def run_experiment(
    spec: ExperimentSpec,
    keep_first_transcript: bool = False,
    otp_message: list | None = None,
):
    """Run ``spec.trials`` independent seeded runs and aggregate the requested metrics.

    Returns the report, or ``(report, first_transcript)`` when asked to keep
    it. ``otp_message`` (bits) is encrypted against the first trial's
    distilled key and reported as ciphertext_hex; it needs the block_yield
    metric and refuses when the key runs short.
    """
    spec.validate()
    samples: dict[str, list[float]] = {name: [] for name in spec.metrics}
    aborted = 0
    digests: list[str] = []
    first_transcript: Transcript | None = None
    pair = build_canonical_css() if "block_yield" in spec.metrics else None
    extras: dict = {}
    if otp_message is not None and pair is None:
        raise ConfigError("metrics", "an outgoing message needs the block_yield metric")

    for trial in range(spec.trials):
        cfg = replace(spec.protocol, seed=derive_trial_seed(spec.seed, trial))
        tr = run_protocol(cfg, spec.channel)
        digests.append(tr.digest())
        if first_transcript is None:
            first_transcript = tr
        if tr.abort_reason is not None:
            aborted += 1
        measured = bool(tr.outcomes)
        for name in spec.metrics:
            if name == "qber" and tr.qber is not None:
                samples[name].append(tr.qber)
            elif name == "detection_prob" and tr.qber is not None:
                samples[name].append(1.0 if tr.detected else 0.0)
            elif name == "key_rate" and tr.qber is not None:
                samples[name].append(key_rate(tr.qber))
            elif name == "efficiency" and measured:
                samples[name].append(tr.efficiency)
            elif name == "sift_rate" and measured:
                samples[name].append(tr.sift_rate)
            elif name == "adversary_accuracy":
                acc = _adversary_accuracy(tr, cfg, spec.channel.adversary)
                if acc is not None:
                    samples[name].append(acc)
            elif name == "block_yield" and tr.raw_key and tr.reference_key:
                pp_seed = hashlib.sha256(f"{spec.seed}:{trial}:pp".encode()).digest()
                pp_rng = random.Random(int.from_bytes(pp_seed[:8], "big"))
                stream = reconcile_stream(pair, tr.reference_key, tr.raw_key, pp_rng)
                samples[name].append(stream.block_yield)
                if "final_key_hex" not in extras:
                    extras["final_key_hex"] = bits_to_hex(stream.final_alice)
                    extras["final_key_bits"] = len(stream.final_alice)
                    if otp_message is not None:
                        ciphertext = otp_send(otp_message, [stream.final_alice])
                        extras["ciphertext_hex"] = bits_to_hex(ciphertext)
                        extras["message_bits"] = len(otp_message)

    combined = hashlib.sha256("".join(digests).encode()).hexdigest()
    report = RunReport(
        spec=spec.describe(),
        trials=spec.trials,
        abort_rate=aborted / spec.trials,
        metrics={name: _summary(samples[name]) for name in spec.metrics},
        transcript_digest=digests[0] if digests else "",
        combined_digest=combined,
        extras=extras,
    )
    if keep_first_transcript:
        return report, first_transcript
    return report


# ---------------------------------------------------------------------------
# Transcript replay verification


@dataclass
class Verdict:
    ok: bool
    issues: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def replay(text: str) -> Verdict:
    """Re-derive every deterministic consequence of a transcript and diff it.

    Checks announcement ordering, sift masks against announced bases, check
    reveals against the measurement records, the recomputed disagreement rate
    against the recorded one, abort consistency, and the raw key against the
    receivers' contributions. Any mismatch is reported with its location.
    """
    parsed = parse(text)
    issues: list[str] = []
    try:
        n = int(parsed.config["receivers"])
        blocks = int(parsed.config["blocks"])
        senders = int(parsed.config["senders"])
        threshold = float(parsed.config["qber_abort_threshold"])
    except (KeyError, ValueError) as err:
        return Verdict(False, [f"config: missing or malformed field ({err})"])

    acks = {ev.party: ev.seq for ev in parsed.events_of(KIND_ACK)}
    bases = {ev.party: ev for ev in parsed.events_of(KIND_BASES)}
    measured = {ev.party: str_to_bits(ev.payload) for ev in parsed.events_of(KIND_MEASURED)}
    sift = {ev.party: ev.payload for ev in parsed.events_of(KIND_SIFT)}
    guesses = {ev.party: str_to_bits(ev.payload) for ev in parsed.events_of(KIND_GUESS)}
    contribs = {ev.party: str_to_bits(ev.payload) for ev in parsed.events_of(KIND_KEY_CONTRIB)}
    raw_key_events = parsed.events_of(KIND_RAW_KEY)
    aborts = parsed.events_of(KIND_ABORT)

    if bases and acks and min(ev.seq for ev in bases.values()) <= max(acks.values()):
        issues.append("ordering: a basis announcement precedes a reception acknowledgment")
    if bases and len(acks) < n:
        issues.append(f"ordering: only {len(acks)} of {n} receivers acknowledged before announcements")

    # Combined per-position basis from the announced strings.
    combined = None
    if len(bases) == senders:
        combined = [0] * (n * blocks)
        for ev in bases.values():
            bits = str_to_bits(ev.payload)
            if len(bits) == n * blocks:
                per_pos = bits
            elif len(bits) == blocks:
                per_pos = [bits[block_of(k, n)] for k in range(n * blocks)]
            else:
                issues.append(f"{ev.party}: basis string has unexpected length {len(bits)}")
                combined = None
                break
            combined = [c ^ int(b) for c, b in zip(combined, per_pos)]

    usable: dict[int, list[bool]] = {}
    for l in range(1, n + 1):
        party = f"bob{l}"
        outcomes = measured.get(party)
        if outcomes is None:
            continue
        mask = []
        for j in range(blocks):
            ok = outcomes[j] is not None
            if party in sift:
                ok = ok and sift[party][j] == "1"
            mask.append(ok)
        usable[l] = mask
        if party in sift and party in guesses and combined is not None:
            for j in range(blocks):
                if outcomes[j] is None:
                    continue
                expect = guesses[party][j] == combined[j * n + (l - 1)]
                if (sift[party][j] == "1") != expect:
                    issues.append(f"{party}: sift flag at block {j} contradicts announced bases")

    select = parsed.events_of(KIND_CHECK_SELECT)
    check_blocks: list[int] = []
    if select and select[0].payload != "-":
        check_blocks = sorted(int(x) for x in select[0].payload.split(","))

    sender_reveals = {ev.party: str_to_bits(ev.payload) for ev in parsed.events_of(KIND_CHECK_SENDER)}
    recv_reveals = {ev.party: str_to_bits(ev.payload) for ev in parsed.events_of(KIND_CHECK_RECV)}
    compared = disagree = 0
    if check_blocks and len(sender_reveals) == senders:
        for l in range(1, n + 1):
            party = f"bob{l}"
            revealed = recv_reveals.get(party)
            if revealed is None:
                issues.append(f"{party}: no check reveal recorded")
                continue
            for idx, j in enumerate(check_blocks):
                outcome = revealed[idx]
                if outcome is None:
                    continue  # withheld reveal (lost or sifted-out position)
                if party in measured and measured[party][j] != outcome:
                    issues.append(f"{party}: check reveal at block {j} contradicts its measurement record")
                pos_in_reveal = idx * n + (l - 1)
                expected = 0
                for i in range(1, senders + 1):
                    expected ^= sender_reveals[f"alice{i}"][pos_in_reveal]
                compared += 1
                if outcome != expected:
                    disagree += 1
        results = parsed.events_of(KIND_CHECK_RESULT)
        if results:
            fields = dict(item.partition("=")[::2] for item in results[0].payload.split(";"))
            try:
                recorded = (int(fields["compared"]), int(fields["disagree"]))
                recorded_pass = fields["pass"] == "1"
            except (KeyError, ValueError):
                issues.append(f"check-result: malformed payload {results[0].payload!r}")
            else:
                if recorded != (compared, disagree):
                    issues.append(
                        f"check-result: recorded {recorded[0]}/{recorded[1]} "
                        f"but reveals give {compared}/{disagree}"
                    )
                rate = disagree / compared if compared else 0.0
                if recorded_pass != (rate <= threshold):
                    issues.append("check-result: pass flag contradicts the recomputed rate")
                if not recorded_pass and not aborts:
                    issues.append("check-result: failed check without an abort event")
                if recorded_pass and not raw_key_events and not aborts:
                    issues.append("raw-key: passing run recorded no key")

    if raw_key_events:
        raw_key = str_to_bits(raw_key_events[0].payload)
        checked = set(check_blocks)
        unmeasured = [False] * blocks
        receiver_masks = [usable.get(l, unmeasured) for l in range(1, n + 1)]
        key_blocks = [
            j
            for j in range(blocks)
            if j not in checked and all(mask[j] for mask in receiver_masks)
        ]
        if len(raw_key) != len(key_blocks):
            issues.append(
                f"raw-key: {len(raw_key)} bits recorded but {len(key_blocks)} blocks qualify"
            )
        else:
            for idx, j in enumerate(key_blocks):
                bit = 0
                for l in range(1, n + 1):
                    party = f"bob{l}"
                    contrib = contribs.get(party)
                    if contrib is None or idx >= len(contrib):
                        issues.append(f"{party}: missing key contribution for block {j}")
                        bit = None
                        break
                    if measured.get(party) is not None and measured[party][j] != contrib[idx]:
                        issues.append(
                            f"{party}: key contribution at block {j} contradicts its measurement record"
                        )
                    bit ^= contrib[idx]
                if bit is not None and bit != raw_key[idx]:
                    issues.append(f"raw-key: bit {idx} (block {j}) is not the XOR of the contributions")
    return Verdict(not issues, issues)
