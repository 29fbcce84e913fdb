"""Experiment runner determinism, metric aggregation, report formats, CLI."""

import hashlib
import json
import pathlib
import statistics
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
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
from mpqss import build_canonical_css, reconcile_streams, run_protocol
from mpqss.cli import OPTIONS, main
from mpqss.harness import RunReport, _summary, trial_seeds
from mpqss.planes import Substream
from mpqss.postprocessing import bits_to_hex
from mpqss.protocol import run_chunks

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
            protocol=base_protocol(receivers=4, blocks=200),
            channel=ChannelModel(adversary=InterceptResend()),
            trials=30,
            metrics=("qber", "detection_prob", "adversary_accuracy"),
            seed=2,
        )
        # 30 trials of 400 compared bits: sigma = 0.0036 at 1/4, so +-0.02 is
        # 5.6 sigma, and each trial's rate is 6.4 sigma above the 0.11 threshold;
        # of 800 intercepted positions: sigma = 0.0028 at 3/4 (7.1 sigma).
        report = run_experiment(spec)
        assert 0.23 <= report.metrics["qber"].mean <= 0.27
        assert report.metrics["detection_prob"].mean == 1.0  # 400 compared bits/trial
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
            trials=2000,
            metrics=("efficiency", "sift_rate"),
            seed=4,
        )
        # 2,000 trials of 9 unchecked and 18 received positions: sigma = 0.0037
        # (5.4 sigma for +-0.02) and 0.0026 (7.6 sigma).
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
        # About 20 unpadded blocks, each failing with about 0.017 (a key bit
        # errs with about 0.03): sigma = 0.029, so 0.8 is 6.3 sigma below.
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
        """Seeded report through key distillation and the pad, as version 0.5.0 wrote it."""
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
            "ciphertext_hex": "dfeb",
            "final_key_bits": 28,
            "final_key_hex": "61046c9",
            "message_bits": 16,
        }
        assert report.metrics["block_yield"].mean == 0.8785714285714287
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == "28c23acd1d9fc5af859ffa0277ca64f0aee4af9746e1aa17810313f0de6c9e4e"

    def test_batched_distillation_report_is_pinned(self, monkeypatch):
        """A sweep whose trial 0 aborts, so the message goes out under a later
        trial's key, and whose keyed trials fill four reconciliation batches
        (at a budget of 2^12 positions per chunk); the sha256 is that of the
        report at version 0.5.0, at any budget."""
        from dataclasses import replace
        from unittest import mock

        from mpqss import harness, protocol, run_protocol

        cfg, channel = ProtocolConfig(3, 3, 80), ChannelModel(p_x=0.06)
        spec = ExperimentSpec(cfg, channel, trials=60, metrics=("qber", "block_yield"), seed=28)
        assert run_protocol(replace(cfg, seed=derive_trial_seed(28, 0)), channel).raw_key is None
        default = run_experiment(spec, otp_message=[1, 0, 1, 1]).to_json()
        monkeypatch.setattr(protocol, "CHUNK_POSITIONS", 1 << 12)
        with mock.patch.object(harness, "_block_yields", wraps=harness._block_yields) as batches:
            report = run_experiment(spec, otp_message=[1, 0, 1, 1])
        assert report.to_json() == default
        assert batches.call_count == -(-60 // protocol.trials_per_chunk(cfg)) == 4
        assert report.metrics["block_yield"].samples == 48
        assert report.extras == {
            "ciphertext_hex": "c",
            "final_key_bits": 5,
            "final_key_hex": "78",
            "message_bits": 4,
        }
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == "f1b95e0e7802bcbee6d018e0a648dd157f4c13d64a9fcb205f0bf00f3720195a"

    # CI's intercept-resend (seed 6) and ordering-attack (seed 9) sweeps, cut
    # to 100 trials: chunk edges cut adversary_bounds and key_bounds too.
    BUDGET_SPECS = [
        ExperimentSpec(ProtocolConfig(3, 3, 40),
                       ChannelModel(loss_prob=0.05, p_x=0.01, adversary=InterceptResend(fraction=0.1)),
                       trials=100, metrics=("qber", "efficiency", "adversary_accuracy", "block_yield"), seed=6),
        ExperimentSpec(ProtocolConfig(3, 3, 40, enforce_ordering=False),
                       ChannelModel(loss_prob=0.05, p_x=0.01, adversary=OrderingAttack()),
                       trials=100, metrics=("qber", "efficiency", "adversary_accuracy"), seed=9),
    ]

    @pytest.mark.parametrize("case", range(len(BUDGET_SPECS)))
    def test_attack_report_is_the_same_at_every_budget(self, case, monkeypatch):
        from mpqss import protocol

        spec = self.BUDGET_SPECS[case]
        reports = []
        for budget in (1 << 12, protocol.CHUNK_POSITIONS, 1 << 17):
            monkeypatch.setattr(protocol, "CHUNK_POSITIONS", budget)
            reports.append(run_experiment(spec).to_json())
        assert reports[0] == reports[1] == reports[2]
        assert json.loads(reports[0])["metrics"]["adversary_accuracy"]["samples"] > 0

    # One sweep per attack through adversary_accuracy: spec, then the sha256 of
    # its to_json() report as version 0.5.0 wrote it (seed 40 + the case index).
    ATTACK_REPORTS = [
        (ProtocolConfig(3, 3, 40, omit_hadamard=frozenset({3})),
         ChannelModel(loss_prob=0.05, adversary=ColluderInsider(3, frozenset({1}))),
         "687441401ebec16065cdb1968fa7043b40a2968a88531f8d1f5008e475ef452d"),
        (ProtocolConfig(3, 3, 40, enforce_ordering=False),
         ChannelModel(loss_prob=0.05, p_x=0.01, adversary=OrderingAttack()),
         "9d27aff0d58652b2162487e69e631149950b07110f63499b65fc07be078aeee7"),
        # A blind interceptor errs on a quarter of what it reads; the raised
        # threshold keeps the runs alive, so its key accuracy is sampled.
        (ProtocolConfig(3, 3, 40, qber_abort_threshold=0.4),
         ChannelModel(loss_prob=0.05, adversary=OrderingAttack(use_announced_bases=False)),
         "5648936597bc56b8773d555e4cd0b6d5b365370c2880b8651f8c440f684a833b"),
        (ProtocolConfig(3, 3, 40, quantum_memory=False),
         ChannelModel(loss_prob=0.05, adversary=InterceptResend(fraction=0.2)),
         "765d1a91f967bfdd9a0d4f94033e44985e1490fd797a43b5a9add332dd70a729"),
        (ProtocolConfig(3, 3, 40, variant=Variant.BLOCK_SHARED),
         ChannelModel(loss_prob=0.05, adversary=PreparerInsider()),
         "b28fda037793b8acbd45bfaff7dc9c797306ea0709810dc87acfa16b962620a1"),
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
        at version 0.5.0."""
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
        assert digest == "ef03741fd9fae2b2e621af1efefc3271e89d4165108c246b1ceedb2e6b86a840"

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

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_a_seed_outside_64_bits_is_refused(self, seed, capsys):
        # A draw's key holds a seed as one uint64, and there is no second path for other ints.
        with pytest.raises(ConfigError, match="protocol.seed: must be in"):
            unchecked = ProtocolConfig(2, 2, 4, seed=seed, unsafe_skip_validation=True)
            ExperimentSpec(protocol=unchecked).validate()
        with pytest.raises(ConfigError, match="^seed: must be in"):
            ExperimentSpec(protocol=base_protocol(), seed=seed).validate()
        with pytest.raises(ConfigError, match="seed"):
            ProtocolConfig(2, 2, 4, seed=seed)
        assert main(["run", "--seed", str(seed), "-N", "4", "--trials", "1"]) == 2
        assert "seed: must be in [0, 2**64)" in capsys.readouterr().err
        for edge in (0, 2**64 - 1):
            ExperimentSpec(protocol=ProtocolConfig(2, 2, 4, seed=edge), seed=edge).validate()

    @pytest.mark.parametrize("seed", [2.5, 2.0, True, "2"])
    def test_a_sweep_seed_that_is_not_an_int_is_refused(self, seed):
        # 2.5 was reported as given over the draws of seed 2.
        with pytest.raises(ConfigError, match="^seed: must be in .* and an int"):
            run_experiment(ExperimentSpec(protocol=base_protocol(), seed=seed))

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "1"])
    def test_a_protocol_seed_that_is_not_an_int_is_refused(self, seed):
        # 1.5 was rendered as seed=1.5 over the draws of seed 1.
        with pytest.raises(ConfigError, match="^seed: must be in .* and an int"):
            ProtocolConfig(2, 2, 4, seed=seed)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    @pytest.mark.parametrize("name", ["senders", "receivers", "blocks", "trials"])
    def test_a_count_that_is_not_an_int_is_refused(self, name, value):
        # trials=True ran and reported "trials": true; the floats and strings
        # escaped as a TypeError from deep in the run.
        if name == "trials":
            with pytest.raises(ConfigError, match="^trials: must be an int"):
                run_experiment(ExperimentSpec(protocol=base_protocol(), trials=value))
            return
        counts = {"senders": 3, "receivers": 3, "blocks": 6, name: value}
        with pytest.raises(ConfigError, match=f"^{name}: must be an int"):
            ProtocolConfig(**counts)
        with pytest.raises(ConfigError, match=f"^protocol.{name}: must be an int"):
            ExperimentSpec(protocol=ProtocolConfig(**counts, unsafe_skip_validation=True)).validate()


def _alone(spec: ExperimentSpec, t: int):
    """Trial t of ``spec`` run alone and its raw keys reconciled alone, with its own "pp" substream
    row, or None when it yields no key bit."""
    seed = derive_trial_seed(spec.seed, t)
    tr = run_protocol(replace(spec.protocol, seed=seed), spec.channel)
    if not tr.raw_key:
        return None
    [result] = reconcile_streams(build_canonical_css(), [tr.reference_key], [tr.raw_key], Substream([seed], "pp"))
    return result


class TestKeyedReconciliation:
    """Each chunk's keyed trials are reconciled in one flat pass; each trial's block_yield sample,
    and the first keyed trial's final key, are those of the trial reconciled alone."""

    @staticmethod
    def check_sweep(spec: ExperimentSpec, budget: int) -> list:
        from unittest import mock

        from mpqss import harness, protocol

        alone = [_alone(spec, t) for t in range(spec.trials)]
        keyed = [result for result in alone if result is not None]
        with mock.patch.object(protocol, "CHUNK_POSITIONS", budget):
            chunks = list(run_chunks(spec.protocol, spec.channel, trial_seeds(spec.seed, 0, spec.trials)))
            report = run_experiment(spec)
        samples = [y for chunk in chunks for y in harness.METRICS["block_yield"](chunk, spec)]
        assert samples == [result.block_yield for result in keyed]
        assert report.metrics["block_yield"] == _summary(samples)
        first = [{"final_key_hex": bits_to_hex(r.final_alice), "final_key_bits": len(r.final_alice)} for r in keyed[:1]]
        assert report.extras == (first[0] if first else {})
        return alone

    @settings(max_examples=25, deadline=None)
    @given(
        budget=st.sampled_from([1 << 9, 1 << 12]),
        blocks=st.sampled_from([6, 12, 40]),
        memory=st.booleans(),
        p_x=st.sampled_from([0.0, 0.06, 0.3]),
        loss=st.sampled_from([0.0, 0.1]),
        trials=st.integers(1, 30),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_each_sample_and_the_first_key_are_the_trial_reconciled_alone(
        self, budget, blocks, memory, p_x, loss, trials, seed
    ):
        cfg = ProtocolConfig(3, 3, blocks, quantum_memory=memory)
        spec = ExperimentSpec(cfg, ChannelModel(loss_prob=loss, p_x=p_x), trials=trials, metrics=("block_yield",),
                              seed=seed)
        self.check_sweep(spec, budget)

    @pytest.mark.parametrize("budget", [1 << 9, 1 << 12])
    def test_a_sweep_with_unkeyed_short_and_whole_block_keys_across_chunks(self, budget):
        # 6% X noise aborts some trials and 10% loss thins the rest, so keys run from none
        # through shorter than one block to whole blocks; 80 trials of 60 qubits fill 2 or 10 chunks.
        spec = ExperimentSpec(ProtocolConfig(3, 3, 20), ChannelModel(loss_prob=0.1, p_x=0.06), trials=80,
                              metrics=("block_yield",), seed=2)
        alone = self.check_sweep(spec, budget)
        keyed = [r for r in alone if r is not None]
        assert alone[0] is None and len(keyed) < 79  # the first trial and others have no key bit
        short = [r for r in keyed if r.blocks_total - (len(r.padding) > 0) == 0]
        assert short and all(r.block_yield == 0.0 for r in short)
        assert len(short) < len(keyed)

    def test_a_sweep_builds_no_stream_result_and_no_key_bytes(self):
        """The thousand-trial sweep of the mc-sweep benchmark reconciles on arrays alone: no
        ``StreamResult``, no ``reconcile_streams`` call and no join of per-trial key bytes; one
        kernel pass per chunk, and one for the first keyed trial's key."""
        from unittest import mock

        from mpqss import harness, postprocessing, protocol

        spec = ExperimentSpec(ProtocolConfig(3, 3, 40, quantum_memory=False), ChannelModel(p_x=0.02), trials=1000,
                              metrics=("qber", "block_yield"), seed=1)
        refuse = mock.Mock(side_effect=AssertionError("a sweep reconciles on arrays alone"))
        with mock.patch.object(postprocessing, "StreamResult", refuse), \
                mock.patch.object(postprocessing, "reconcile_streams", refuse), \
                mock.patch.object(postprocessing, "_joined", refuse), \
                mock.patch.object(harness, "reconcile_blocks", wraps=harness.reconcile_blocks) as kernel:
            report = run_experiment(spec)
        assert report.metrics["block_yield"].samples > 0 and "final_key_hex" in report.extras
        assert kernel.call_count == -(-1000 // protocol.trials_per_chunk(spec.protocol)) + 1


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
        assert list(payload) == sorted(f.name for f in fields(RunReport))
        channel = ExperimentSpec(base_protocol()).describe()["channel"]
        assert list(channel) == [f.name for f in fields(ChannelModel)]
        assert channel["loss_strategy"] == "remove" and channel["adversary"] is None
        adversaries = {
            InterceptResend(0.5): {"fraction": 0.5},
            OrderingAttack(False): {"use_announced_bases": False},
            PreparerInsider(): {},  # its target is a class constant, not a field
            ColluderInsider(3, frozenset({2, 1}), frozenset({2})): {
                "target": 3, "colluders": [1, 2], "withheld_bases": [2]},
            ColluderInsider(3): {"target": 3, "colluders": None, "withheld_bases": []},
        }
        for adversary, want in adversaries.items():
            spec = ExperimentSpec(base_protocol(senders=3), ChannelModel(adversary=adversary))
            described = spec.describe()["channel"]["adversary"]
            assert described == {"kind": type(adversary).__name__, **want}
            assert list(described) == ["kind"] + [f.name for f in fields(adversary)]

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

    def test_run_too_large_to_allocate_exits_two(self, capsys):
        # 3 * 10**15 qubits ask numpy for 2.66 PiB, beyond any 47-bit address space.
        assert main(["run", "-N", str(10**15), "--trials", "1"]) == 2
        assert "Unable to allocate" in capsys.readouterr().err

    def test_malformed_index_list_exits_two(self, capsys):
        assert main(["run", "--omit-hadamard", "2,x"]) == 2
        assert "omit_hadamard" in capsys.readouterr().err

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
        # The blind attack errs on 1/4 of 300 compared bits per trial: sigma =
        # 0.025, so every trial exceeds the 0.11 threshold by 5.6 sigma and aborts.
        out = tmp_path / "r.json"
        argv = ["run", *flags, "-N", "200", "--trials", "3", "--metrics", "qber,adversary_accuracy", "--seed", "2"]
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
