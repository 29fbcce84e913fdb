"""Experiment runner determinism, metric aggregation, report formats, CLI."""

import hashlib
import json
import pathlib
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpqss import (
    ChannelModel,
    ColluderInsider,
    ConfigError,
    ExperimentSpec,
    InterceptResend,
    OrderingAttack,
    PreparerInsider,
    ProtocolConfig,
    Variant,
    derive_trial_seed,
    run_experiment,
)
from mpqss.cli import OPTIONS, main
from mpqss.harness import _summary

DATA = pathlib.Path(__file__).parent / "data"


def base_protocol(**overrides):
    opts = dict(senders=2, receivers=3, blocks=6)
    opts.update(overrides)
    return ProtocolConfig(**opts)


class TestTrialSeeds:
    def test_documented_counter_scheme_is_stable(self):
        assert derive_trial_seed(42, 0) == derive_trial_seed(42, 0)
        assert derive_trial_seed(42, 0) != derive_trial_seed(42, 1)
        assert derive_trial_seed(42, 0) != derive_trial_seed(43, 0)
        assert 0 <= derive_trial_seed(0, 0) < 2**64

    def test_trials_are_individually_replayable(self):
        from dataclasses import replace

        from mpqss import run_protocol

        spec = ExperimentSpec(protocol=base_protocol(), trials=3, seed=7)
        report = run_experiment(spec)
        solo = run_protocol(replace(spec.protocol, seed=derive_trial_seed(7, 0)))
        assert solo.digest() == report.transcript_digest


samples = st.floats(min_value=-1e100, max_value=1e100, allow_subnormal=True)


class TestSummary:
    @given(st.one_of(
        st.lists(samples, min_size=2, max_size=40),
        st.lists(st.sampled_from([0.0, 1.0, 0.5, 1 / 3]), min_size=2, max_size=40),
        st.lists(st.floats(0.0, 1.0), min_size=1000, max_size=1000),
    ))
    def test_stderr_is_that_of_statistics_to_the_bit(self, xs):
        got = _summary(xs)
        assert got.stderr == statistics.stdev(xs) / len(xs) ** 0.5
        assert got.mean == statistics.fmean(xs)
        assert got.samples == len(xs)

    @pytest.mark.parametrize("xs", [[0.0, 0.0], [1.0, 1.0, 1.0], [0.25] * 1000, [0.0, 1.0], [5e-324, 1e100]])
    def test_edge_samples(self, xs):
        assert _summary(xs).stderr == statistics.stdev(xs) / len(xs) ** 0.5

    def test_one_sample_and_none(self):
        assert _summary([0.7]).stderr == 0.0
        assert (_summary([]).mean, _summary([]).stderr, _summary([]).samples) == (0.0, 0.0, 0)


class TestRunExperiment:
    def test_reports_are_byte_identical_across_invocations(self):
        spec = ExperimentSpec(
            protocol=base_protocol(),
            trials=20,
            metrics=("qber", "efficiency", "sift_rate", "key_rate"),
            seed=123,
        )
        a = run_experiment(spec).to_json()
        b = run_experiment(spec).to_json()
        assert a == b
        assert run_experiment(spec).to_csv() == run_experiment(spec).to_csv()

    def test_ideal_honest_runs_have_zero_qber_and_never_abort(self):
        spec = ExperimentSpec(protocol=base_protocol(), trials=50, metrics=("qber",), seed=1)
        report = run_experiment(spec)
        assert report.abort_rate == 0.0
        assert report.metrics["qber"].mean == 0.0
        assert report.metrics["qber"].samples == 50

    def test_interception_pushes_qber_into_the_quarter_band(self):
        spec = ExperimentSpec(
            protocol=base_protocol(receivers=4, blocks=50),
            channel=ChannelModel(adversary=InterceptResend()),
            trials=30,
            metrics=("qber", "detection_prob", "adversary_accuracy"),
            seed=2,
        )
        report = run_experiment(spec)
        assert 0.23 <= report.metrics["qber"].mean <= 0.27
        assert report.metrics["detection_prob"].mean == 1.0  # 100 compared bits/trial
        assert report.abort_rate == 1.0
        # Interceptor's best guess of the joint encoding: matched basis half
        # the time, coin flip otherwise.
        assert abs(report.metrics["adversary_accuracy"].mean - 0.75) <= 0.02

    def test_memory_efficiency_is_exactly_one(self):
        spec = ExperimentSpec(protocol=base_protocol(), trials=10, metrics=("efficiency",), seed=3)
        report = run_experiment(spec)
        assert report.metrics["efficiency"].mean == 1.0

    def test_no_memory_efficiency_halves(self):
        spec = ExperimentSpec(
            protocol=base_protocol(quantum_memory=False),
            trials=300,
            metrics=("efficiency", "sift_rate"),
            seed=4,
        )
        report = run_experiment(spec)
        assert abs(report.metrics["efficiency"].mean - 0.5) <= 0.02
        assert abs(report.metrics["sift_rate"].mean - 0.5) <= 0.02

    def test_insider_accuracy_metric(self):
        spec = ExperimentSpec(
            protocol=base_protocol(omit_hadamard=frozenset({2})),
            channel=ChannelModel(adversary=PreparerInsider()),
            trials=20,
            metrics=("adversary_accuracy",),
            seed=5,
        )
        assert run_experiment(spec).metrics["adversary_accuracy"].mean == 1.0

    def test_block_yield_metric_and_key_material_extras(self):
        spec = ExperimentSpec(
            protocol=base_protocol(blocks=40),
            channel=ChannelModel(p_x=0.01),
            trials=10,
            metrics=("block_yield", "qber"),
            seed=6,
        )
        report = run_experiment(spec)
        assert report.metrics["block_yield"].samples > 0
        assert report.metrics["block_yield"].mean > 0.8
        assert "final_key_hex" in report.extras

    def test_outgoing_message_reported_as_ciphertext_hex(self):
        from mpqss import KeyMaterialError, hex_to_bits, xor_bits

        spec = ExperimentSpec(
            protocol=base_protocol(blocks=60),
            trials=1,
            metrics=("block_yield",),
            seed=7,
        )
        message = [1, 0, 1, 1]
        report = run_experiment(spec, otp_message=message)
        key = hex_to_bits(report.extras["final_key_hex"])
        ciphertext = hex_to_bits(report.extras["ciphertext_hex"])[: len(message)]
        assert xor_bits(ciphertext, key[: len(message)]) == tuple(message)
        with pytest.raises(KeyMaterialError):
            run_experiment(spec, otp_message=[0] * 10_000)
        # Every qubit lost: no trial yields key bits, so the message is refused, not dropped.
        lossy = ExperimentSpec(protocol=base_protocol(), channel=ChannelModel(loss_prob=0.99),
                               trials=2, metrics=("block_yield",), seed=7)
        with pytest.raises(KeyMaterialError, match="no trial yielded key bits"):
            run_experiment(lossy, otp_message=message)
        with pytest.raises(ConfigError, match="metrics"):
            run_experiment(
                ExperimentSpec(protocol=base_protocol(), metrics=("qber",)),
                otp_message=message,
            )

    def test_distilled_report_is_pinned(self):
        """Seeded report through key distillation and the pad, as version 0.3.0 wrote it."""
        from mpqss import hex_to_bits

        spec = ExperimentSpec(
            protocol=ProtocolConfig(senders=3, receivers=2, blocks=400),
            channel=ChannelModel(p_x=0.04),
            trials=5,
            metrics=("qber", "block_yield"),
            seed=2024,
        )
        report = run_experiment(spec, otp_message=list(hex_to_bits("beef")))
        assert report.extras == {
            "ciphertext_hex": "0d12",
            "final_key_bits": 28,
            "final_key_hex": "b3fd697",
            "message_bits": 16,
        }
        assert report.metrics["block_yield"].mean == 0.8285714285714286
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == "cfadb6e555fd617e157962f55e66e29ed1c5b2cb76893c66945d65774cd1c510"

    def test_batched_distillation_report_is_pinned(self, monkeypatch):
        """A sweep whose trial 0 aborts, so the message goes out under a later
        trial's key, and whose keyed trials fill several reconciliation batches
        (at a budget of 2^12 positions per chunk); the sha256 is that of the
        report at version 0.3.0, at any budget."""
        from dataclasses import replace

        from mpqss import protocol, run_protocol

        cfg, channel = ProtocolConfig(3, 3, 80), ChannelModel(p_x=0.06)
        spec = ExperimentSpec(cfg, channel, trials=60, metrics=("qber", "block_yield"), seed=28)
        assert run_protocol(replace(cfg, seed=derive_trial_seed(28, 0)), channel).raw_key is None
        default = run_experiment(spec, otp_message=[1, 0, 1, 1]).to_json()
        monkeypatch.setattr(protocol, "CHUNK_POSITIONS", 1 << 12)
        report = run_experiment(spec, otp_message=[1, 0, 1, 1])
        assert report.to_json() == default
        assert report.metrics["block_yield"].samples == 52 > 3 * protocol.trials_per_chunk(cfg)
        assert report.extras == {
            "ciphertext_hex": "8",
            "final_key_bits": 5,
            "final_key_hex": "30",
            "message_bits": 4,
        }
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == "51961254309d7487551f0673f4defb850251e7ca369ffe25cf19d3d3947a5519"

    # One sweep per attack through adversary_accuracy: spec, then the sha256 of
    # its to_json() report as version 0.3.0 wrote it (seed 40 + the case index).
    ATTACK_REPORTS = [
        (ProtocolConfig(3, 3, 40, omit_hadamard=frozenset({3})),
         ChannelModel(loss_prob=0.05, adversary=ColluderInsider(3, frozenset({1}))),
         "f08cc6e8eebb2605e788330f9a7d2836a4b0615360fb3243d5978a4b9c5636ef"),
        (ProtocolConfig(3, 3, 40, enforce_ordering=False),
         ChannelModel(loss_prob=0.05, p_x=0.01, adversary=OrderingAttack()),
         "c1bca8d1746c0377b7332460c0c8782771ca529ee18ef5e130a44166ab31b7a0"),
        # A blind interceptor errs on a quarter of what it reads; the raised
        # threshold keeps the runs alive, so its key accuracy is sampled.
        (ProtocolConfig(3, 3, 40, qber_abort_threshold=0.4),
         ChannelModel(loss_prob=0.05, adversary=OrderingAttack(use_announced_bases=False)),
         "d8c56b96d74c4b0ec1685de673da4da6e88bd58a56f1a294933b0d51e200e6f2"),
        (ProtocolConfig(3, 3, 40, quantum_memory=False),
         ChannelModel(loss_prob=0.05, adversary=InterceptResend(fraction=0.2)),
         "6247701d0fd7c73b4da800b653768ef23db1fa93f4ce895ae3c8aff811971bda"),
        (ProtocolConfig(3, 3, 40, variant=Variant.BLOCK_SHARED),
         ChannelModel(loss_prob=0.05, adversary=PreparerInsider()),
         "a5711a2909ab14f7e4af26c915f4955020f5b3376bc4db57b6ceb30299155243"),
    ]

    @pytest.mark.parametrize("case", range(len(ATTACK_REPORTS)))
    def test_attack_accuracy_report_is_pinned(self, case):
        cfg, channel, digest = self.ATTACK_REPORTS[case]
        spec = ExperimentSpec(
            protocol=cfg,
            channel=channel,
            trials=60,
            metrics=("qber", "efficiency", "adversary_accuracy"),
            seed=40 + case,
        )
        report = run_experiment(spec)
        assert report.metrics["adversary_accuracy"].samples == 60
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest

    @pytest.mark.parametrize("adversary", [
        InterceptResend(fraction=0.3), PreparerInsider(), ColluderInsider(3, frozenset({1}), frozenset({1})),
        OrderingAttack(), OrderingAttack(use_announced_bases=False),
    ])
    def test_adversary_accuracy_scores_each_trial_on_its_own(self, adversary, monkeypatch):
        """The chunk's samples against each trial's row, scored one by one."""
        import numpy as np

        from mpqss import expanded_bit_vectors, protocol, recovered_raw_key, run_trials

        cfg = ProtocolConfig(3, 3, 12, enforce_ordering=False, qber_abort_threshold=0.4)
        spec = ExperimentSpec(cfg, ChannelModel(loss_prob=0.2, adversary=adversary), trials=40,
                              metrics=("adversary_accuracy",), seed=60)
        monkeypatch.setattr(protocol, "CHUNK_POSITIONS", 200)  # five trials to a chunk
        want = []
        for tr in run_trials(cfg, spec.channel, (derive_trial_seed(60, t) for t in range(40))):
            rec = tr.adversary
            if isinstance(adversary, OrderingAttack):
                if tr.raw_key:
                    recovered = recovered_raw_key(rec.bits, rec.positions, tr.key_blocks, cfg)
                    want.append(sum(map(int.__eq__, recovered, tr.raw_key)) / len(tr.raw_key))
                continue
            values, _ = expanded_bit_vectors(tr._secrets, cfg)
            if isinstance(adversary, InterceptResend):
                truth, scored = np.bitwise_xor.reduce(values, axis=0), np.ones(len(rec.bits), bool)
            else:
                truth, scored = values[adversary.target - 1], rec.certain
            if len(rec.positions):
                want.append(np.count_nonzero(scored & (truth[rec.positions] == rec.bits)) / len(rec.positions))
        report = run_experiment(spec)
        assert report.metrics["adversary_accuracy"].samples == len(want) > 0
        assert report.metrics["adversary_accuracy"] == _summary(want)

    def test_ordering_aborted_report_is_pinned(self):
        """Every trial aborts on the early announcement, before anything is
        measured, so no metric takes a sample; the sha256 is that of the report
        at version 0.3.0."""
        spec = ExperimentSpec(
            protocol=ProtocolConfig(3, 3, 40),
            channel=ChannelModel(loss_prob=0.05, adversary=OrderingAttack()),
            trials=40,
            metrics=("qber", "efficiency", "sift_rate", "adversary_accuracy"),
            seed=50,
        )
        report = run_experiment(spec)
        assert report.abort_rate == 1.0
        assert {name: s.samples for name, s in report.metrics.items()} == dict.fromkeys(spec.metrics, 0)
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == "a6b32b795f8589cd015bff129978000aeb66356baf7c8d4563d4974449e4bc4d"

    def test_spec_validation_paths(self):
        unvalidated = ProtocolConfig(
            senders=2, receivers=1, blocks=4, unsafe_skip_validation=True
        )
        with pytest.raises(ConfigError, match="protocol.receivers"):
            ExperimentSpec(protocol=unvalidated).validate()
        with pytest.raises(ConfigError, match="channel.loss_prob"):
            ExperimentSpec(protocol=base_protocol(), channel=ChannelModel(loss_prob=2.0)).validate()
        with pytest.raises(ConfigError, match="trials"):
            ExperimentSpec(protocol=base_protocol(), trials=0).validate()
        with pytest.raises(ConfigError, match="metrics"):
            ExperimentSpec(protocol=base_protocol(), metrics=("nope",)).validate()
        with pytest.raises(ConfigError, match="metrics: metric 'qber' is named more than once"):
            ExperimentSpec(protocol=base_protocol(), metrics=("qber", "efficiency", "qber")).validate()
        with pytest.raises(ConfigError, match="channel.adversary.fraction"):
            ExperimentSpec(
                protocol=base_protocol(),
                channel=ChannelModel(adversary=InterceptResend(fraction=0.0)),
            ).validate()
        with pytest.raises(ConfigError, match="channel.adversary.target"):
            ExperimentSpec(
                protocol=base_protocol(),
                channel=ChannelModel(adversary=ColluderInsider(target=1)),
            ).validate()


@pytest.fixture(scope="module")
def report():
    spec = ExperimentSpec(
        protocol=base_protocol(), trials=5, metrics=("qber", "efficiency"), seed=9
    )
    return run_experiment(spec)


class TestReportFormats:

    def test_json_is_valid_and_carries_the_spec_echo(self, report):
        payload = json.loads(report.to_json())
        assert payload["trials"] == 5
        assert payload["spec"]["protocol"]["senders"] == "2"
        assert set(payload["metrics"]) == {"qber", "efficiency"}
        assert len(payload["transcript_digest"]) == 64

    def test_csv_column_order(self, report):
        lines = report.to_csv().splitlines()
        assert lines[0] == "metric,mean,stderr,samples"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["efficiency", "qber", "abort_rate"]

    def test_text_render(self, report):
        text = report.to_text()
        assert "qber:" in text and "abort rate:" in text


class TestCli:
    def test_run_writes_a_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "run",
                "--scenario",
                "honest",
                "-m",
                "2",
                "-n",
                "3",
                "-N",
                "6",
                "--trials",
                "5",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["abort_rate"] == 0.0

    def test_stdout_text_output(self, capsys):
        code = main(["run", "--trials", "2", "--output", "text", "--seed", "3"])
        assert code == 0
        assert "abort rate" in capsys.readouterr().out

    def test_intercept_scenario_is_abort_dominated(self, capsys):
        code = main(
            [
                "run",
                "--scenario",
                "intercept-resend",
                "-N",
                "30",
                "--trials",
                "4",
                "--metrics",
                "qber,detection_prob",
                "--seed",
                "12",
            ]
        )
        assert code == 1  # every trial aborts at 25% error

    def test_invalid_config_exits_two(self, capsys):
        assert main(["run", "-n", "1"]) == 2
        assert "receivers" in capsys.readouterr().err

    def test_unknown_metric_exits_two(self, capsys):
        assert main(["run", "--metrics", "bogus"]) == 2

    def test_repeated_metric_exits_two(self, capsys):
        assert main(["run", "--metrics", "qber,qber", "--trials", "3"]) == 2
        assert "named more than once" in capsys.readouterr().err

    def test_colluder_target_beyond_the_senders_blames_the_target(self, capsys):
        assert main(["run", "--scenario", "insider-colluders", "-m", "3", "--target", "4"]) == 2
        err = capsys.readouterr().err
        assert "channel.adversary.target" in err and "omit_hadamard" not in err

    def test_withheld_basis_outside_the_default_colluders_exits_two(self, capsys):
        flags = ["run", "--scenario", "insider-colluders", "-m", "3", "--target", "3"]
        assert main(flags + ["--withhold-bases", "9"]) == 2
        assert "withheld_bases" in capsys.readouterr().err
        assert main(flags + ["--withhold-bases", "2"]) in (0, 1)

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment options\n"
            "receivers = 4\n"
            "blocks = 8\n"
            "trials = 3\n"
            "output = text\n"
        )
        code = main(["run", "--config", str(cfg), "--trials", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trials: 2" in out  # flag beat the file

    @pytest.mark.parametrize(
        "line", ["quantum_memory = nope", "loss_strategy = lost", "scenario = x", "output = xml", "blocks = 6x"]
    )
    def test_config_values_get_the_checks_of_their_flags(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"trials = 1\n{line}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert f"config:2: {line.split()[0]}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, on", [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
                     ("0", False), ("False", False), ("NO", False), ("Off", False)]
    )
    def test_config_booleans_in_any_case(self, tmp_path, text, on):
        cfg, out = tmp_path / "run.cfg", tmp_path / "r.json"
        cfg.write_text(f"quantum_memory = {text}\nenforce-ordering = {text}\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        protocol = json.loads(out.read_text())["spec"]["protocol"]
        assert protocol["quantum_memory"] == protocol["enforce_ordering"] == ("1" if on else "0")

    def test_every_option_file_runs_as_its_flags(self, tmp_path):
        entries = [
            line.split("=", 1) for line in (DATA / "every_option.cfg").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        options = {key.strip(): value.strip() for key, value in entries}
        assert list(options) == list(OPTIONS)
        # Its booleans are on, as they are without a flag.
        flags = [
            f"--{name.replace('_', '-')}={value}" for name, value in options.items() if OPTIONS[name].kind is not bool
        ]
        from_file, from_flags = tmp_path / "file.txt", tmp_path / "flags.txt"
        assert main(["run", "--config", str(DATA / "every_option.cfg"), "--out", str(from_file)]) == 0
        assert main(["run", *flags, "--out", str(from_flags)]) == 0
        assert from_file.read_text() == from_flags.read_text()

    @pytest.mark.parametrize(
        "flags, code, adversary, accuracy",
        [
            (["--scenario", "ordering-attack", "--no-enforce-ordering"], 0,
             {"kind": "OrderingAttack", "use_announced_bases": True}, 1.0),
            (["--scenario", "ordering-attack-blind"], 1,
             {"kind": "OrderingAttack", "use_announced_bases": False}, 0.0),
            (["--scenario", "insider-colluders", "-m", "3", "--colluders", "1,2"], 0,
             {"kind": "ColluderInsider", "target": 3, "colluders": [1, 2], "withheld_bases": []}, 1.0),
        ],
    )
    def test_attack_scenarios(self, tmp_path, flags, code, adversary, accuracy):
        out = tmp_path / "r.json"
        argv = ["run", *flags, "-N", "20", "--trials", "3", "--metrics", "qber,adversary_accuracy", "--seed", "2"]
        assert main([*argv, "--out", str(out)]) == code
        payload = json.loads(out.read_text())
        assert payload["spec"]["channel"]["adversary"] == adversary
        assert payload["metrics"]["adversary_accuracy"]["mean"] == accuracy
        assert (payload["metrics"]["qber"]["mean"] > 0.11) == (code == 1)
        if adversary["kind"] == "ColluderInsider":  # the target skips basis mixing by default
            assert payload["spec"]["protocol"]["omit_hadamard"] == "3"

    def test_config_file_rejects_unknown_keys(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("qubits = 9\n")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_save_and_replay_round_trip(self, tmp_path, capsys):
        transcript = tmp_path / "run.transcript"
        assert (
            main(
                [
                    "run",
                    "--trials",
                    "1",
                    "--seed",
                    "21",
                    "--save-transcript",
                    str(transcript),
                    "--out",
                    str(tmp_path / "r.json"),
                ]
            )
            == 0
        )
        assert main(["replay", str(transcript)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_replay_flags_tampering(self, tmp_path, capsys):
        text = (DATA / "worked_example.transcript").read_text()
        tampered = text.replace("raw-key all 1010", "raw-key all 1011")
        bad = tmp_path / "bad.transcript"
        bad.write_text(tampered)
        assert main(["replay", str(bad)]) == 1
        assert "inconsistent" in capsys.readouterr().out

    def test_replay_of_a_truncated_payload_exits_one_without_a_traceback(self, tmp_path, capsys):
        text = (DATA / "worked_example.transcript").read_text()
        bad = tmp_path / "short.transcript"
        bad.write_text(text.replace("measured bob2 100001", "measured bob2 100"))
        assert main(["replay", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "inconsistent: bob2: measured payload has 3 positions, expected 6" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_replay_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "garbage.transcript"
        bad.write_text("not a transcript\n")
        assert main(["replay", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_otp_message_flag(self, tmp_path):
        out = tmp_path / "otp.json"
        code = main(
            [
                "run",
                "-N",
                "60",
                "--trials",
                "1",
                "--metrics",
                "block_yield",
                "--otp-message",
                "b",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert "ciphertext_hex" in payload["extras"]

    def test_otp_message_rejects_bad_hex_and_short_keys(self, capsys):
        assert main(["run", "--metrics", "block_yield", "--otp-message", "zz"]) == 2
        assert (
            main(
                [
                    "run",
                    "-N",
                    "4",
                    "--metrics",
                    "block_yield",
                    "--otp-message",
                    "ffff",
                    "--seed",
                    "1",
                ]
            )
            == 2
        )
        assert "key bits" in capsys.readouterr().err
        for scenario in ([], ["--scenario", "ordering-attack"]):  # no keyed trial, aborted or not
            run = ["run", "-N", "6", "--loss-prob", "0.99", "--trials", "2", "--metrics", "block_yield"]
            assert main([*run, *scenario, "--otp-message", "deadbeef"]) == 2
            assert "no trial yielded key bits" in capsys.readouterr().err

    def test_insider_scenario_smoke(self, tmp_path):
        out = tmp_path / "insider.json"
        code = main(
            [
                "run",
                "--scenario",
                "insider-preparer",
                "--trials",
                "3",
                "--metrics",
                "adversary_accuracy",
                "--seed",
                "14",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["metrics"]["adversary_accuracy"]["mean"] == 1.0
