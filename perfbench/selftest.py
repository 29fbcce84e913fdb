"""Tests of the benchmark itself: a tiny run of every workload, and a planted
fault for each output check, which the check must catch.

    python3 -m pytest -q -p no:cacheprovider perfbench/selftest.py

The file name keeps it out of the repository's default test collection; it
takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mpqss import harness, protocol  # noqa: E402

TINY = {
    "bulk-run": workloads.BulkRun(blocks=300),
    "mc-sweep": workloads.McSweep(trials=20),
    "replay-audit": workloads.ReplayAudit(blocks=200),
    "distill-stream": workloads.DistillStream(bits=2000),
}


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_untraced_run_passes_its_checks(name):
    result = run.measure(TINY[name], seed=1, seconds=0, trace=False)
    assert result["failures"] == {}
    assert result["attempted"] == 2  # the warm-up and one timed operation
    metrics = run.end_to_end_metrics(TINY[name], result, [0.1])
    assert list(metrics) == [n for n, _ in run.END_TO_END]
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_traced_run_reports_every_layer_and_unwraps(name):
    original = protocol.run_protocol
    result = run.measure(TINY[name], seed=1, seconds=0, trace=True)
    assert result["failures"] == {}
    assert protocol.run_protocol is original and harness.run_protocol is original
    metrics = run.per_layer_metrics(result)
    assert list(metrics) == [n for n, _, _ in tracing.PER_LAYER]
    # Every wrapped span nests inside the operation's root span.
    assert all(s[3] >= 0 for s in result["tracer"].spans if s[0] != "op")
    if name in ("bulk-run", "mc-sweep"):
        assert metrics["qubits.calls"] > metrics["qubits.measure_calls"] > 0
    if name == "bulk-run":
        assert metrics["protocol.qubits_dealt"] == TINY[name].items
        assert metrics["channel.transmit_calls"] == workloads.SENDERS
    if name == "replay-audit":
        assert metrics["harness.replay_issues"] == 0
        assert metrics["transcript.events"] > 0


def test_setup_probes_are_spread_over_an_untraced_run():
    probes = run.SetupProbes("distill-stream", count=2)
    result = run.measure(TINY["distill-stream"], seed=1, seconds=0, trace=False, probes=probes)
    assert result["failures"] == {}
    assert len(probes.times) == 2 and all(t > 0 for t in probes.times)


def test_bulk_check_catches_a_wrong_key_length():
    w = TINY["bulk-run"]
    inp = w.make_input(w.build(), 1, 0)
    tr = w.run(inp)
    assert w.check(inp, tr) == []
    tr.raw_key = tr.raw_key[:-1]
    assert any("raw key" in f for f in w.check(inp, tr))


def test_bulk_check_catches_a_wrong_error_rate():
    w = TINY["bulk-run"]
    inp = w.make_input(w.build(), 1, 0)
    tr = w.run(inp)
    tr.qber = w.expected_qber + 0.1
    assert any("qber" in f for f in w.check(inp, tr))


def test_sweep_check_catches_a_non_identical_report():
    w = TINY["mc-sweep"]
    spec = w.build()
    inp = w.make_input(spec, 1, 0)
    assert w.check_run(inp, w.run(inp)) == []
    other = w.run(w.make_input(spec, 1, 1))
    assert w.check_run(inp, other) != []


def test_replay_check_catches_a_tampered_transcript():
    w = TINY["replay-audit"]
    text = w.prepare(w.build(), 1)
    assert w.check(text, w.run(text)) == []
    tampered = workloads.flip_raw_key_bit(text)
    assert tampered != text
    assert w.check(tampered, w.run(tampered)) != []


def test_replay_run_check_catches_a_replay_that_accepts_tampering(monkeypatch):
    w = TINY["replay-audit"]
    text = w.prepare(w.build(), 1)
    assert w.check_run(text, w.run(text)) == []
    monkeypatch.setattr(harness, "replay", lambda text: harness.Verdict(True))
    assert w.check_run(text, w.run(text)) != []


def test_distill_check_catches_a_low_block_yield():
    w = TINY["distill-stream"]
    inp = w.make_input(w.build(), 1, 0)
    out = w.run(inp)
    assert w.check(inp, out) == []
    out.blocks_ok -= out.blocks_total // 10
    assert any("block_yield" in f for f in w.check(inp, out))


def test_inputs_follow_the_seed_and_index():
    w = TINY["distill-stream"]
    pair = w.build()
    assert w.make_input(pair, 3, 2) == w.make_input(pair, 3, 2)
    assert w.make_input(pair, 3, 2) != w.make_input(pair, 4, 2)
    assert w.make_input(pair, 3, 2) != w.make_input(pair, 3, 1)


def test_runner_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "bulk-run", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
