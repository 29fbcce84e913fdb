"""The keyed random stream of 0.5.0: every draw reads the SplitMix64 words of one key."""

import hashlib
import math
import os
import pathlib
import random
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpqss import (
    ChannelModel,
    ColluderInsider,
    ConfigError,
    ExperimentSpec,
    InterceptResend,
    LossStrategy,
    OrderingAttack,
    PreparerInsider,
    ProtocolConfig,
    Substream,
    derive_trial_seed,
    generate_secrets,
    harness,
    parse,
    planes,
    postprocessing,
    replay,
    run_experiment,
    run_protocol,
    transmit,
)
from mpqss.channel import _thresholds
from mpqss.planes import GAMMA, STREAM_VERSION, QubitBlock, stream_words

DATA = pathlib.Path(__file__).parent / "data"

# The generator in Python integers: the oracle of every draw.
MASK = 2**64 - 1


def mix(z: int) -> int:
    """SplitMix64's output function."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
    return z ^ (z >> 31)


def key(seed: int, phase: str, d: int) -> int:
    """The key of draw ``d`` of a call in ``phase``."""
    code = int.from_bytes(hashlib.sha256(f"{STREAM_VERSION}:{phase}".encode()).digest()[:8], "little")
    return mix((mix(seed ^ code) + d) & MASK)


def word(k: int, i: int) -> int:
    return mix((k + (i + 1) * GAMMA) & MASK)


def reference_draw(seed: int, phase: str, draws) -> list[list[int]]:
    out = []
    for d, (kind, units) in enumerate(draws):
        k = key(seed, phase, d)
        if kind == 1:
            out.append([word(k, u // 64) >> (u % 64) & 1 for u in range(units)])
        elif kind == 64:
            out.append([word(k, u) for u in range(units)])
        else:
            halves = [word(k, u // 2) >> (32 * (u % 2)) & 0xFFFFFFFF for u in range(units)]
            out.append(halves if kind == 32 else [sum(t <= w for t in kind) for w in halves])
    return out


# Thresholds at and next to the ends of the word range.
EDGES = [0, 1, 2, 2**31, 2**32 - 2, 2**32 - 1, 2**32]
KINDS = st.one_of(
    st.sampled_from([1, 32, 64]),
    st.lists(st.one_of(st.sampled_from(EDGES), st.integers(0, 2**32)), min_size=1, max_size=4).map(sorted),
)


class TestGenerator:
    def test_a_keys_words_are_splitmix64_seeded_with_the_key(self):
        # The published first outputs of SplitMix64 from state 0, then a sequential run from another state.
        assert stream_words(np.array([0], np.uint64), 0, 3)[0].tolist() == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        ]
        state, outputs = 0xDEADBEEF12345678, []
        for _ in range(5):
            state = (state + GAMMA) & MASK
            outputs.append(mix(state))
        assert stream_words(np.array([0xDEADBEEF12345678], np.uint64), 0, 5)[0].tolist() == outputs
        assert stream_words(np.array([0xDEADBEEF12345678], np.uint64), 2, 5)[0].tolist() == outputs[2:]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.sampled_from(["secrets", "hop1", "hop12", "attack", "measure", "check", "pp", "trials", ""]),
        st.lists(st.tuples(KINDS, st.integers(0, 200)), min_size=1, max_size=4),
    )
    @example(2**64 - 1, "hop1", [([0], 5), ([2**32], 5), ([0, 2**32], 5), (1, 129), (32, 3), (64, 2)])
    @example(5, "hop3", [([2**26, 2**30, 2**30, 2**30], 200), ([7, 7, 2**32, 2**32], 200)])  # repeats
    def test_every_draw_kind_is_the_python_generator(self, seed, phase, draws):
        got = Substream(seed, phase).draw(*draws)
        assert [plane.tolist() for plane in got] == reference_draw(seed, phase, draws)
        for plane, (kind, _) in zip(got, draws):
            assert plane.dtype == (np.uint32 if kind == 32 else np.uint64 if kind == 64 else np.uint8)

    def test_thresholds_of_zero_and_two_to_the_32_hold_at_every_word_and_at_none(self):
        stream = Substream(3, "hop1")
        ones, zeros, both = stream.draw(([0], 1000), ([2**32], 1000), ([0, 0, 2**32], 1000))
        assert ones.tolist() == [1] * 1000 and zeros.tolist() == [0] * 1000 and both.tolist() == [2] * 1000

    @pytest.mark.parametrize("seeds", [9, [9, 2**64 - 1]])
    def test_a_decision_with_thresholds_of_zero_and_two_to_the_32_counts_those_at_most_each_word(self, seeds):
        # The decision of draw 0 reads the 32-bit words of draw 0; thresholds taken from
        # those words, one apart from them and repeated, with 0 and 2**32 among them.
        [words] = Substream(seeds, "hop2").draw((32, 300))
        some = sorted(words.ravel().tolist())[::40]
        for thresholds in ([0], [0, 0, 2**32], sorted([0, *some, *(w + 1 for w in some), 2**32, 2**32]),
                           sorted([0, 0, 0, *some, *some])):
            [bins] = Substream(seeds, "hop2").draw((thresholds, 300))
            want = [[sum(t <= w for t in thresholds) for w in row] for row in np.atleast_2d(words).tolist()]
            assert np.atleast_2d(bins).tolist() == want

    def test_each_row_of_a_batch_is_its_seed_alone(self):
        draws = ((32, 70), (1, 9), (64, 3), ([2**24 + 5, 2**31, 3 * 2**30 + 7], 3000), ([2**30], 5))
        batch = Substream([3, 2**64 - 1, 3], "measure").draw(*draws)
        for row, seed in enumerate([3, 2**64 - 1, 3]):
            alone = Substream(seed, "measure").draw(*draws)
            assert all(np.array_equal(b[row], a) for b, a in zip(batch, alone))
        assert not np.array_equal(batch[0][0], batch[0][1])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(KINDS, min_size=1, max_size=4),
        st.lists(st.integers(0, 300), min_size=2, max_size=2),
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
    )
    def test_a_shorter_draw_is_a_prefix_of_a_longer_one(self, kinds, lengths, seeds):
        short, long = (Substream(seeds, "p").draw(*[(kind, n) for kind in kinds]) for n in sorted(lengths))
        for a, b in zip(short, long):
            assert np.array_equal(a, b[:, :a.shape[1]])

    @pytest.mark.parametrize("words", [1, 2, 3, 64])
    def test_draws_are_the_same_for_any_pass_size(self, words, monkeypatch):
        draws = ((1, 1000), (32, 301), (64, 77), ([2**20, 2**31, 2**32 - 5], 999))
        kept = Substream([5, 2**64 - 1], "hop2").draw(*draws)
        monkeypatch.setattr(planes, "_PASS_WORDS", words)
        again = Substream([5, 2**64 - 1], "hop2").draw(*draws)
        assert all(np.array_equal(a, b) for a, b in zip(kept, again))

    def test_seed_and_phase_key_the_draws(self):
        base = Substream(5, "hop1").draw((32, 16))[0]
        assert np.array_equal(Substream(5).at("hop1").draw((32, 16))[0], base)
        assert not np.array_equal(Substream(5, "hop2").draw((32, 16))[0], base)
        assert not np.array_equal(Substream(6, "hop1").draw((32, 16))[0], base)
        # Draw d of a call is keyed by d: two decisions in one call differ.
        first, second = Substream(5, "hop1").draw(([2**31], 64), ([2**31], 64))
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("seeds", [2**64, -1, [3, 2**64], [-1], [2.5], [3.0], ["3"], [None], True, [True]])
    def test_a_seed_outside_the_uint64_ints_is_refused(self, seeds):
        with pytest.raises(ConfigError, match="^seed: must be in"):
            Substream(seeds)

    def test_the_engine_draws_secrets_and_check_keys_from_their_phases(self):
        cfg = ProtocolConfig(2, 3, 10, seed=4)
        tr = run_protocol(cfg)
        drawn = Substream(4, "secrets").draw(*[(1, cfg.total_qubits)] * 4)
        assert [bits.tolist() for s in tr._secrets for bits in (s.value_bits, s.basis_bits)] == [
            bits.tolist() for bits in drawn
        ]
        [keys] = Substream(4, "check").draw((64, cfg.blocks))
        assert tr.check_blocks == tuple(sorted(np.argsort(keys)[:cfg.checked_block_count].tolist()))

    def test_a_runs_secrets_are_the_same_prefix_for_any_n(self):
        small, large = (generate_secrets(ProtocolConfig(3, 2, blocks), Substream(11)) for blocks in (40, 57))
        for a, b in zip(small, large):
            assert np.array_equal(a.value_bits, b.value_bits[:80])
            assert np.array_equal(a.basis_bits, b.basis_bits[:80])

    def test_keys_take_one_hash_per_call_and_none_per_row(self, monkeypatch):
        calls = mock.Mock(wraps=hashlib.sha256)
        monkeypatch.setattr(planes, "hashlib", mock.Mock(sha256=calls))
        Substream(list(range(1000)), "hop1").draw((1, 120), ([2**30], 120), (64, 60))
        assert calls.call_count == 1

    def test_a_bulk_run_makes_no_shake_call(self, monkeypatch):
        monkeypatch.setattr(hashlib, "shake_128", mock.Mock(side_effect=AssertionError("a SHAKE call")))
        cfg = ProtocolConfig(3, 3, 100_000, seed=5)
        tr = run_protocol(cfg, ChannelModel(loss_prob=0.02, p_x=0.01, adversary=InterceptResend(fraction=0.1)))
        assert tr.qber is not None


class TestTrialSeeds:
    def test_a_trial_seed_is_a_word_of_the_masters_trials_stream(self):
        for master, trial in [(0, 0), (42, 7), (2**64 - 1, 1000)]:
            assert derive_trial_seed(master, trial) == word(key(master, "trials", 0), trial)
            assert derive_trial_seed(master, trial) == Substream(master, "trials").draw((64, trial + 1))[0][trial]

    def test_a_sweep_derives_its_seeds_chunk_by_chunk_as_one_trial_at_a_time(self):
        spec = ExperimentSpec(ProtocolConfig(3, 3, 300), trials=40, seed=77)  # 18 trials to a chunk
        seen = []
        run_chunks = harness.run_chunks

        def spy(cfg, channel, seeds):
            def kept():
                for seed in seeds:
                    seen.append(seed)
                    yield seed
            return run_chunks(cfg, channel, kept())

        with mock.patch.object(harness, "run_chunks", spy):
            run_experiment(spec)
        assert seen == [derive_trial_seed(77, t) for t in range(40)]
        assert all(type(seed) is int for seed in seen)


class TestThresholds:
    def test_a_probability_rounds_down_to_a_multiple_of_two_to_the_minus_32(self):
        assert _thresholds(0.0, 2**-33, 2**-32, 0.1, 0.5, 1.0) == [0, 0, 1, 429496729, 2**31, 2**32]

    def test_a_probability_of_one_holds_at_the_largest_word(self):
        class Ones:
            """A stream whose every bit is 1 and every decision is over the word 2**32 - 1."""

            def at(self, phase):
                return self

            def draw(self, *draws):
                return [np.full(units, 1 if kind == 1 else sum(t <= 2**32 - 1 for t in kind), np.uint8)
                        for kind, units in draws]

        block = QubitBlock.encode(np.zeros(8, np.uint8), np.zeros(8, np.uint8))
        assert transmit(block, ChannelModel(loss_prob=1.0), Ones()).block.lost.all()
        flipped = transmit(block, ChannelModel(p_x=1.0), Ones()).block
        assert flipped.value.tolist() == [1] * 8
        res = transmit(block, ChannelModel(adversary=InterceptResend(fraction=1 - 2**-32)), Ones())
        assert len(res.intercept.positions) == 0  # the largest word is not below floor(f * 2**32)

    def test_bin_frequencies_match_the_thresholds_within_five_sigma(self):
        # Seed 2026, a million units in four rows: each bin's count lies within
        # 5 standard deviations of units * (T[i] - T[i-1]) / 2**32, and each bit's
        # ones within 5 of units / 2; a correct stream fails one of them about once in 10^5.
        thresholds = _thresholds(0.02, 0.0298, 0.3, 0.7)
        bins, bits = Substream([2026, 2027, 2028, 2029], "hop1").draw((thresholds, 250_000), (1, 250_000))
        units = bins.size
        edges = [0, *thresholds, 2**32]
        for i, count in enumerate(np.bincount(bins.ravel(), minlength=5).tolist()):
            p = (edges[i + 1] - edges[i]) / 2**32
            assert abs(count - units * p) <= 5 * math.sqrt(units * p * (1 - p)), i
        assert abs(np.count_nonzero(bits) - units / 2) <= 5 * math.sqrt(units / 4)


class TestPostprocessingSubstream:
    SPEC = ExperimentSpec(ProtocolConfig(3, 3, 60), ChannelModel(p_x=0.02), trials=40,
                          metrics=("block_yield",), seed=12)

    def coins_by_seed(self, spec) -> dict[int, list[int]]:
        """Each keyed trial's distillation coins in a run of ``spec``, by trial seed."""
        calls = []

        def spy(rngs, counts):
            coins = random_coins(rngs, counts)
            calls.append((rngs, list(counts), coins))
            return coins

        random_coins = postprocessing.random_coins
        with mock.patch.object(postprocessing, "random_coins", spy):
            run_experiment(spec)
        out = {}
        for rngs, counts, coins in calls:
            assert isinstance(rngs, Substream) and rngs.phase == "pp"
            for seed, part in zip(rngs.seeds, np.split(coins, np.cumsum(counts)[:-1])):
                out[seed] = part.tolist()
        return out

    def test_a_keyed_trials_coins_are_its_pp_phase_and_ignore_the_channel(self):
        clean = self.coins_by_seed(self.SPEC)
        noisy = self.coins_by_seed(replace(self.SPEC, channel=ChannelModel(loss_prob=0.1, p_x=0.05)))
        assert set(clean) <= {derive_trial_seed(12, t) for t in range(40)}
        both = set(clean) & set(noisy)
        assert len(both) > 10
        for seed in both:
            short = min(len(clean[seed]), len(noisy[seed]))
            assert clean[seed][:short] == noisy[seed][:short]
            assert clean[seed] == Substream(seed, "pp").draw((1, len(clean[seed])))[0].tolist()

    def test_a_row_of_coins_is_its_seed_drawn_alone(self):
        coins = postprocessing.random_coins(Substream([5, 6, 7], "pp"), [9, 0, 20])
        alone = [Substream(seed, "pp").draw((1, count))[0] for seed, count in zip([5, 6, 7], [9, 0, 20])]
        assert coins.tolist() == np.concatenate(alone).tolist()

    def test_a_sweep_makes_no_generator(self):
        with mock.patch.object(random, "Random", side_effect=AssertionError("a generator was made")):
            report = run_experiment(self.SPEC, otp_message=[1, 0, 1])
        assert report.metrics["block_yield"].samples > 0


class TestPhaseIndependence:
    CFG = ProtocolConfig(3, 3, 60, quantum_memory=False, seed=21)

    def run(self, channel, cfg=CFG):
        tr = run_protocol(cfg, channel)
        secrets = [(s.value_bits.tolist(), s.basis_bits.tolist()) for s in tr._secrets]
        return tr, secrets

    @pytest.mark.parametrize("channel", [
        ChannelModel(loss_prob=0.2),
        ChannelModel(loss_prob=0.2, p_z=0.1, loss_strategy=LossStrategy.SUBSTITUTE),
        ChannelModel(adversary=InterceptResend(fraction=0.5)),
        ChannelModel(loss_prob=0.1, adversary=PreparerInsider()),
        ChannelModel(adversary=ColluderInsider(target=3)),
        ChannelModel(adversary=OrderingAttack(use_announced_bases=False)),
    ])
    def test_secrets_and_check_blocks_ignore_the_channel(self, channel):
        ideal, secrets = self.run(ChannelModel())
        tr, same = self.run(channel)
        assert same == secrets
        assert tr.check_blocks == ideal.check_blocks

    def test_hop_draws_ignore_the_adversary_and_the_later_hops(self):
        lossy = ChannelModel(loss_prob=0.2)
        losses = [ev for ev in self.run(lossy)[0].events if ev.kind == "loss"]
        for channel in (replace(lossy, adversary=InterceptResend(fraction=0.3)),
                        replace(lossy, adversary=OrderingAttack(use_announced_bases=False))):
            assert [ev for ev in self.run(channel)[0].events if ev.kind == "loss"] == losses

    def test_secrets_ignore_the_measurement_and_the_check(self):
        _, secrets = self.run(ChannelModel())
        for cfg in (replace(self.CFG, quantum_memory=True), replace(self.CFG, check_fraction=0.25)):
            assert self.run(ChannelModel(), cfg)[1] == secrets

    def test_an_omitted_basis_string_leaves_the_other_strings(self):
        _, secrets = self.run(ChannelModel())
        _, omitted = self.run(ChannelModel(), replace(self.CFG, omit_hadamard=frozenset({2})))
        assert omitted[1][1] == [0] * self.CFG.total_qubits
        assert omitted[:1] + omitted[2:] == secrets[:1] + secrets[2:]
        assert omitted[1][0] == secrets[1][0]


class TestOlderTranscripts:
    # Transcripts written by mpqss 0.2.0 (one random.Random per run, seed 7),
    # 0.3.0 (a 32-bit SHAKE word per decision, seed 9) and 0.4.0 (a SHAKE byte
    # per decision and tie bytes, seed 11) for one config, with the sha256 of
    # each file. Their seeds now draw other bits, but the text is still format
    # v1 and replay draws nothing.
    @pytest.mark.parametrize("version, sha256", [
        ("0.2.0", "13faa5e4ae20f57168fdb8496d4f3326c9f96e409708374ce682cc3516a0d8e2"),
        ("0.3.0", "fd513fe9a8ab9a286e92f1fac79b178f77224fe1af99cf1813ee1c56189944e4"),
        ("0.4.0", "7ee5e477bea124b915b35afca4968ebd81327515af0d281dff46cfa2cbe9ff49"),
    ])
    def test_an_older_transcript_still_replays(self, version, sha256):
        text = (DATA / f"stream_{version}.transcript").read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == sha256
        assert replay(text).ok
        config = parse(text).config
        cfg = ProtocolConfig(3, 3, int(config["blocks"]), quantum_memory=False, seed=int(config["seed"]))
        now = run_protocol(cfg, ChannelModel(loss_prob=0.05, p_x=0.02, adversary=InterceptResend(fraction=0.2)))
        assert now.serialize().split("\n")[:2] == text.split("\n")[:2]
        assert now.serialize() != text
        assert replay(now.serialize()).ok


def test_numpy_random_stays_unloaded():
    code = (
        "import sys\n"
        "from mpqss import *\n"
        "loaded = 'numpy.random' in sys.modules\n"
        "run_protocol(ProtocolConfig(3, 3, 50, seed=1), ChannelModel(loss_prob=0.1, adversary=InterceptResend(0.5)))\n"
        "run_experiment(ExperimentSpec(ProtocolConfig(3, 3, 20, variant=Variant.BLOCK_SHARED), trials=5,\n"
        "                              metrics=('qber', 'block_yield')))\n"
        "print(loaded, 'numpy.random' in sys.modules)\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == ["False", "False"]
