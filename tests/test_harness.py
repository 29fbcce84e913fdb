"""Experiment runner determinism, metric aggregation, report formats, CLI."""

import hashlib
import json
import pathlib

import pytest

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
from mpqss.cli import main

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
        _, first = run_experiment(spec, keep_first_transcript=True)
        solo = run_protocol(replace(spec.protocol, seed=derive_trial_seed(7, 0)))
        assert solo.serialize() == first.serialize()


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
        with pytest.raises(ConfigError, match="metrics"):
            run_experiment(
                ExperimentSpec(protocol=base_protocol(), metrics=("qber",)),
                otp_message=message,
            )

    def test_distilled_report_is_pinned(self):
        """Seeded report through key distillation and the pad, as version 0.2.0 wrote it."""
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
        assert report.metrics["block_yield"].mean == 0.8896551724137931
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == "3932e5957b282cdd56eece446095c6b4742414f04b2430811bf48f9ec0795de1"

    # One sweep per attack through adversary_accuracy: spec, then the sha256 of
    # its to_json() report as version 0.2.0 wrote it (seed 40 + the case index).
    ATTACK_REPORTS = [
        (ProtocolConfig(3, 3, 40, omit_hadamard=frozenset({3})),
         ChannelModel(loss_prob=0.05, adversary=ColluderInsider(3, frozenset({1}))),
         "4c6519c93a7cb95751038fa24da42704ffb43254cba38c792d81907c0558f9f3"),
        (ProtocolConfig(3, 3, 40, enforce_ordering=False),
         ChannelModel(loss_prob=0.05, p_x=0.01, adversary=OrderingAttack()),
         "1f78d7041b1029bef47449393f9756577717e511720881f8c588badccf96e022"),
        # A blind interceptor errs on a quarter of what it reads; the raised
        # threshold keeps the runs alive, so its key accuracy is sampled.
        (ProtocolConfig(3, 3, 40, qber_abort_threshold=0.4),
         ChannelModel(loss_prob=0.05, adversary=OrderingAttack(use_announced_bases=False)),
         "709677a2bd5251a72d52d9ff2b717f7728fe20b4788a11a766831d6db322f886"),
        (ProtocolConfig(3, 3, 40, quantum_memory=False),
         ChannelModel(loss_prob=0.05, adversary=InterceptResend(fraction=0.2)),
         "e45f17b671ec5d14692298e3cfbdbb1ca08c12cfdbbe800a87519956d2944674"),
        (ProtocolConfig(3, 3, 40, variant=Variant.BLOCK_SHARED),
         ChannelModel(loss_prob=0.05, adversary=PreparerInsider()),
         "975e786f5802c2b57a62203a981fcc8cfaa936162c57ea091fb730d90761863a"),
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
        with pytest.raises(ConfigError, match="output"):
            ExperimentSpec(protocol=base_protocol(), output="xml").validate()
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
