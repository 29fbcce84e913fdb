"""The four benchmark workloads: their inputs, the timed operation, and its checks.

Every workload uses m=3 senders and n=3 receivers and drives mpqss only
through public functions. Those are looked up on their modules at call time
(``protocol.run_protocol``, not a name bound at import), so a traced run sees
the wrapped versions that ``tracing`` installs.

A workload's life in one run:

* ``build()``: the program objects a user must make before the first call.
  Timed, in a fresh process, as ``setup_s``.
* ``prepare(built, seed)``: untimed inputs shared by the whole run.
* ``make_input(state, seed, index)``: untimed inputs of operation ``index``,
  derived from the workload seed and the index only.
* ``run(inp)``: the timed operation.
* ``check(inp, out)``: output checks; a non-empty list of failures fails it.
* ``check_run(inp, out)``: extra untimed checks made once, on the warm-up.

mpqss is imported inside the methods, never at module import, so that
``setup_s`` times the program's own import.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import ClassVar

SRC = Path(__file__).resolve().parent.parent / "src"

SENDERS = 3
RECEIVERS = 3

# A statistical check passes within this many standard errors of the analytic
# value; at 6 a correct program fails one check in about 5e8.
TOLERANCE_SIGMAS = 6


def derive_seed(workload: str, seed: int, index) -> int:
    """64-bit seed of one input, from the workload seed and the input's index."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def within_tolerance(label: str, observed: float, expected: float, count: float) -> list[str]:
    """Check a measured rate against an analytic one, given the count it rests on."""
    tol = TOLERANCE_SIGMAS * math.sqrt(expected * (1.0 - expected) / count)
    if abs(observed - expected) <= tol:
        return []
    return [f"{label} {observed:.6f} is outside {expected:.6f} +/- {tol:.6f}"]


class Workload:
    name: ClassVar[str]
    item: ClassVar[str]  # the unit of work that items_per_s counts
    throughput: ClassVar[str]  # the workload's own name for items_per_s

    @property
    def items(self) -> int:
        """Units of work in one operation."""
        raise NotImplementedError

    def build(self):
        raise NotImplementedError

    def prepare(self, built, seed: int):
        return built

    def make_input(self, state, seed: int, index: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        return []

    def check_run(self, inp, out) -> list[str]:
        return []


@dataclass(frozen=True)
class BulkRun(Workload):
    """One large run_protocol: the per-qubit work in qubits, protocol and channel."""

    blocks: int = 100_000
    loss_prob: float = 0.02
    p_x: float = 0.01
    intercept_fraction: float = 0.1

    name: ClassVar[str] = "bulk-run"
    item: ClassVar[str] = "qubits"
    throughput: ClassVar[str] = "qubits_per_s"

    @property
    def items(self) -> int:
        return RECEIVERS * self.blocks

    @property
    def expected_qber(self) -> float:
        # X noise flips a value only in the Z basis, which each of the m hops
        # uses with probability 1/2; interception errs on 1/4 of the positions it touches.
        a = (1.0 - (1.0 - self.p_x) ** SENDERS) / 2.0
        b = self.intercept_fraction / 4.0
        return a + b - 2.0 * a * b

    def build(self):
        from mpqss import channel, protocol

        cfg = protocol.ProtocolConfig(SENDERS, RECEIVERS, self.blocks)
        ch = channel.ChannelModel(
            loss_prob=self.loss_prob,
            p_x=self.p_x,
            adversary=channel.InterceptResend(fraction=self.intercept_fraction),
        )
        return cfg, ch

    def make_input(self, state, seed, index):
        cfg, ch = state
        return replace(cfg, seed=derive_seed(self.name, seed, index)), ch

    def run(self, inp):
        from mpqss import protocol

        return protocol.run_protocol(*inp)

    def check(self, inp, out) -> list[str]:
        if out.abort_reason is not None:
            return [f"run aborted: {out.abort_reason}"]
        failures = within_tolerance("qber", out.qber, self.expected_qber, out.compared)
        checked = set(out.check_blocks)
        survived = sum(
            1
            for j in range(self.blocks)
            if j not in checked
            and all(out.outcomes[l][j] is not None for l in range(1, RECEIVERS + 1))
        )
        if out.raw_key is None or len(out.raw_key) != survived:
            got = None if out.raw_key is None else len(out.raw_key)
            failures.append(f"raw key has {got} bits, expected {survived} (unchecked surviving blocks)")
        return failures


@dataclass(frozen=True)
class McSweep(Workload):
    """Many small runs through run_experiment, where per-run fixed costs dominate."""

    trials: int = 1000
    blocks: int = 40
    p_x: float = 0.02
    metrics: tuple[str, ...] = (
        "qber", "detection_prob", "key_rate", "efficiency", "sift_rate", "block_yield",
    )

    name: ClassVar[str] = "mc-sweep"
    item: ClassVar[str] = "trials"
    throughput: ClassVar[str] = "trials_per_s"

    @property
    def items(self) -> int:
        return self.trials

    @property
    def expected_qber(self) -> float:
        return (1.0 - (1.0 - self.p_x) ** SENDERS) / 2.0

    def build(self):
        from mpqss import channel, harness, postprocessing, protocol

        cfg = protocol.ProtocolConfig(SENDERS, RECEIVERS, self.blocks, quantum_memory=False)
        ch = channel.ChannelModel(p_x=self.p_x)
        spec = harness.ExperimentSpec(cfg, ch, trials=self.trials, metrics=self.metrics)
        spec.validate()
        # run_experiment builds its own pair per call; this is the set-up a
        # user pays to hold one.
        postprocessing.build_canonical_css()
        return spec

    def make_input(self, state, seed, index):
        return replace(state, seed=derive_seed(self.name, seed, index))

    def run(self, inp):
        from mpqss import harness

        return harness.run_experiment(inp)

    def check(self, inp, out) -> list[str]:
        cfg = inp.protocol
        # Without quantum memory a receiver's guess matches the combined basis
        # half the time, so about half the revealed and unchecked positions count.
        compared = self.trials * cfg.checked_block_count * RECEIVERS * 0.5
        unchecked = self.trials * (self.blocks - cfg.checked_block_count) * RECEIVERS
        return within_tolerance(
            "mean qber", out.metrics["qber"].mean, self.expected_qber, compared
        ) + within_tolerance("mean efficiency", out.metrics["efficiency"].mean, 0.5, unchecked)

    def check_run(self, inp, out) -> list[str]:
        again = self.run(inp)
        if again.to_json() != out.to_json():
            return ["two runs of one spec gave different to_json() reports"]
        return []


def flip_raw_key_bit(text: str) -> str:
    """The transcript with the first bit of its raw-key payload inverted."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        parts = line.split(" ")
        if len(parts) == 5 and parts[0] == "event" and parts[2] == "raw-key" and parts[4] != "-":
            payload = parts[4]
            parts[4] = ("1" if payload[0] == "0" else "0") + payload[1:]
            lines[i] = " ".join(parts)
            return "\n".join(lines)
    raise ValueError("transcript has no raw-key bits to flip")


@dataclass(frozen=True)
class ReplayAudit(Workload):
    """Replay of one large saved transcript; bypasses qubits and channel."""

    blocks: int = 10_000
    loss_prob: float = 0.02
    p_x: float = 0.01

    name: ClassVar[str] = "replay-audit"
    item: ClassVar[str] = "positions"
    throughput: ClassVar[str] = "replay_qubits_per_s"

    @property
    def items(self) -> int:
        return RECEIVERS * self.blocks

    def build(self):
        from mpqss import channel, protocol

        cfg = protocol.ProtocolConfig(SENDERS, RECEIVERS, self.blocks, quantum_memory=False)
        ch = channel.ChannelModel(loss_prob=self.loss_prob, p_x=self.p_x)
        return cfg, ch

    def prepare(self, built, seed):
        # The run that writes the transcript happens in a child process, so
        # that this process's peak memory (peak_rss_mb) is that of replay.
        proc = subprocess.run(
            [sys.executable, __file__, "transcript", json.dumps(asdict(self)), str(seed)],
            capture_output=True, text=True, timeout=600, check=True,
        )
        return proc.stdout

    def transcript(self, seed: int) -> str:
        """The serialized transcript that this workload replays, for ``seed``."""
        from mpqss import protocol

        cfg, ch = self.build()
        tr = protocol.run_protocol(replace(cfg, seed=derive_seed(self.name, seed, "transcript")), ch)
        if tr.abort_reason is not None:
            raise RuntimeError(f"the transcript to replay aborted: {tr.abort_reason}")
        return tr.serialize()

    def make_input(self, state, seed, index):
        return state

    def run(self, inp):
        from mpqss import harness

        return harness.replay(inp)

    def check(self, inp, out) -> list[str]:
        if out.ok and not out.issues:
            return []
        return [f"replay rejected the transcript: ok={out.ok}, {len(out.issues)} issues"]

    def check_run(self, inp, out) -> list[str]:
        if self.run(flip_raw_key_bit(inp)).ok:
            return ["replay accepted a transcript with a flipped raw-key bit"]
        return []


@dataclass(frozen=True)
class DistillStream(Workload):
    """reconcile_stream over a long raw key with planted i.i.d. errors."""

    bits: int = 100_000
    delta: float = 0.03

    name: ClassVar[str] = "distill-stream"
    item: ClassVar[str] = "bits"
    throughput: ClassVar[str] = "distill_bits_per_s"

    @property
    def items(self) -> int:
        return self.bits

    @property
    def expected_yield(self) -> float:
        # The [7,4] code corrects any block with at most one error.
        q = 1.0 - self.delta
        return q**7 + 7 * self.delta * q**6

    def build(self):
        from mpqss import postprocessing

        return postprocessing.build_canonical_css()

    def make_input(self, state, seed, index):
        rng = random.Random(derive_seed(self.name, seed, index))
        held = [rng.getrandbits(1) for _ in range(self.bits)]
        noisy = [b ^ (rng.random() < self.delta) for b in held]
        return held, noisy, rng.getrandbits(64)

    def run(self, inp):
        from mpqss import postprocessing

        held, noisy, stream_seed = inp
        return postprocessing.reconcile_stream(
            postprocessing.build_canonical_css(), held, noisy, random.Random(stream_seed)
        )

    def check(self, inp, out) -> list[str]:
        blocks = -(-self.bits // 7)
        if out.blocks_total != blocks:
            return [f"{out.blocks_total} blocks reconciled, expected {blocks}"]
        return within_tolerance("block_yield", out.block_yield, self.expected_yield, blocks)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (BulkRun(), McSweep(), ReplayAudit(), DistillStream())
}


if __name__ == "__main__":
    # python3 workloads.py transcript '<ReplayAudit fields as JSON>' <seed>
    # writes the transcript that ReplayAudit.prepare reads.
    sys.path.insert(0, str(SRC))
    _, what, fields, seed = sys.argv
    assert what == "transcript"
    sys.stdout.write(ReplayAudit(**json.loads(fields)).transcript(int(seed)))
