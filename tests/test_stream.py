"""The keyed random stream of 0.4.0: every draw is a slice of one phase's SHAKE-128 digests."""

import hashlib
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
    ExperimentSpec,
    InterceptResend,
    LossStrategy,
    OrderingAttack,
    PreparerInsider,
    ProtocolConfig,
    Substream,
    derive_trial_seed,
    generate_secrets,
    parse,
    planes,
    postprocessing,
    replay,
    run_experiment,
    run_protocol,
    transmit,
)
from mpqss.channel import _thresholds
from mpqss.planes import STREAM_CHUNK, STREAM_VERSION, QubitBlock, decide, tie_positions

DATA = pathlib.Path(__file__).parent / "data"


class TestSubstream:
    def test_a_chunk_is_the_digest_of_its_key(self):
        words, bits = Substream(7, "hop2").draw((32, 5), (1, 12))
        digest = hashlib.shake_128(f"{STREAM_VERSION}:7:hop2:0".encode()).digest(22)
        assert words.tolist() == np.frombuffer(digest[:20], dtype="<u4").tolist()
        assert bits.tolist() == np.unpackbits(np.frombuffer(digest[20:], np.uint8), bitorder="little")[:12].tolist()
        [keys] = Substream(7, "check").draw((64, 3))
        digest = hashlib.shake_128(f"{STREAM_VERSION}:7:check:0".encode()).digest(24)
        assert keys.tolist() == np.frombuffer(digest, dtype="<u8").tolist()

    def test_each_row_of_a_batch_is_its_seed_alone(self):
        draws = ((32, 70), (1, 9), (64, 3), ([2**24 + 5, 2**31, 3 * 2**30 + 7], 3000))
        batch = Substream([3, 2**64 - 1, 3], "measure").draw(*draws)
        for row, seed in enumerate([3, 2**64 - 1, 3]):
            alone = Substream(seed, "measure").draw(*draws)
            assert all(np.array_equal(b[row], a) for b, a in zip(batch, alone))
        assert not np.array_equal(batch[0][0], batch[0][1])

    def test_seed_and_phase_key_the_draws(self):
        base = Substream(5, "hop1").draw((32, 16))[0]
        assert np.array_equal(Substream(5).at("hop1").draw((32, 16))[0], base)
        assert not np.array_equal(Substream(5, "hop2").draw((32, 16))[0], base)
        assert not np.array_equal(Substream(6, "hop1").draw((32, 16))[0], base)

    def test_the_engine_draws_secrets_and_check_keys_from_their_phases(self):
        cfg = ProtocolConfig(2, 3, 10, seed=4)
        tr = run_protocol(cfg)
        drawn = Substream(4, "secrets").draw(*[(1, cfg.total_qubits)] * 4)
        assert [bits.tolist() for s in tr._secrets for bits in (s.value_bits, s.basis_bits)] == [
            bits.tolist() for bits in drawn
        ]
        [keys] = Substream(4, "check").draw((64, cfg.blocks))
        assert tr.check_blocks == tuple(sorted(np.argsort(keys)[:cfg.checked_block_count].tolist()))

    def test_the_first_stream_chunk_is_the_same_for_any_length(self):
        one, more = (Substream(9, "hop1").draw((32, n), (1, n)) for n in (STREAM_CHUNK, 3 * STREAM_CHUNK + 5))
        for a, b in zip(one, more):
            assert np.array_equal(a, b[:STREAM_CHUNK])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from([1, 32, 64]), min_size=1, max_size=4),
        st.lists(st.integers(64, 300), min_size=2, max_size=2),
        st.integers(0, 2**64 - 1),
    )
    def test_full_chunks_are_the_same_for_any_length(self, widths, lengths, seed):
        # With 64 units per chunk, every draw's first chunk, and any chunk that
        # is full at both lengths, is the same whatever the draws' length.
        chunk = 64
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(planes, "STREAM_CHUNK", chunk)
            short, long = (Substream(seed, "p").draw(*[(w, n) for w in widths]) for n in sorted(lengths))
        full = min(lengths) // chunk * chunk
        for a, b in zip(short, long):
            assert np.array_equal(a[:full], b[:full])

    def test_the_first_stream_chunk_of_a_run_is_the_same_for_any_n(self, monkeypatch):
        # 2 receivers and 40 or 57 blocks: 80 and 114 positions, 64 to a chunk.
        monkeypatch.setattr(planes, "STREAM_CHUNK", 64)
        small, large = (generate_secrets(ProtocolConfig(3, 2, blocks), Substream(11)) for blocks in (40, 57))
        for a, b in zip(small, large):
            assert np.array_equal(a.value_bits[:64], b.value_bits[:64])
            assert np.array_equal(a.basis_bits[:64], b.basis_bits[:64])


class TestThresholds:
    def test_a_probability_rounds_down_to_a_multiple_of_two_to_the_minus_32(self):
        assert _thresholds(0.0, 2**-33, 2**-32, 0.1, 0.5, 1.0) == [0, 0, 1, 429496729, 2**31, 2**32]

    def test_a_probability_of_one_holds_at_the_largest_word(self):
        class Ones:
            """A stream whose every bit is 1 and every decision is over the word 2**32 - 1."""

            def at(self, phase):
                return self

            def draw(self, *draws):
                out = []
                for kind, units in draws:
                    if kind == 1:
                        out.append(np.ones(units, np.uint8))
                    else:
                        top = np.full(units, 255, np.uint8)
                        ties = tie_positions(top, kind)
                        out.append(decide(top, ties, np.full(len(ties), 2**24 - 1), kind))
                return out

        block = QubitBlock.encode(np.zeros(8, np.uint8), np.zeros(8, np.uint8))
        assert transmit(block, ChannelModel(loss_prob=1.0), Ones()).block.lost.all()
        flipped = transmit(block, ChannelModel(p_x=1.0), Ones()).block
        assert flipped.value.tolist() == [1] * 8
        res = transmit(block, ChannelModel(adversary=InterceptResend(fraction=1 - 2**-32)), Ones())
        assert len(res.intercept.positions) == 0  # the largest word is not below floor(f * 2**32)


# Thresholds at and next to the ends of the word range and of a top byte.
EDGES = [0, 1, 2**24 - 1, 2**24, 2**24 + 1, 5 << 24, (5 << 24) + 1, 2**32 - 2**24, 2**32 - 1, 2**32]


class TestDecisions:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(st.sampled_from(EDGES), st.integers(0, 2**32)), min_size=1, max_size=4),
        st.lists(st.integers(0, 2**32 - 1), max_size=40),
    )
    @example([0], [0, 1, 2**32 - 1])
    @example([2**32], [0, 2**32 - 1])
    @example([0, 0, 2**32, 2**32], [0, 2**31, 2**32 - 1])
    @example([(7 << 24) + 5, (7 << 24) + 5, (7 << 24) + 9, 2**32 - 1], [(7 << 24) + 4, 7 << 24, 2**32 - 2])
    def test_a_bin_counts_the_thresholds_at_most_the_word(self, thresholds, words):
        # Each threshold's neighbours T-1, T and T+1 among the words, then the
        # word split into its top byte and low 24 bits.
        thresholds = sorted(thresholds)
        words = words + [t + d for t in thresholds for d in (-1, 0, 1) if 0 <= t + d < 2**32]
        w = np.array(words, dtype=np.int64).reshape(1, -1)
        top, low = (w >> 24).astype(np.uint8), w & (2**24 - 1)
        ties = tie_positions(top, thresholds)
        bins = decide(top, ties, low.ravel()[ties], thresholds)
        assert bins.dtype == np.uint8
        assert bins.tolist() == np.searchsorted(np.array(thresholds, np.int64), w, side="right").tolist()

    def test_a_draw_holds_at_most_one_decision(self):
        with pytest.raises(ValueError, match="at most one decision"):
            Substream(7, "hop2").draw(([2**31], 3), ([2**30], 3))

    def test_a_decision_reads_top_bytes_then_three_tie_bytes_per_tie(self):
        thresholds = [0, 2**24 + 5, 3 << 30]  # 0 and 3 << 30 are decided by the top byte alone
        bins, bits = Substream(7, "hop2").draw((thresholds, 3000), (1, 12))
        digest = hashlib.shake_128(f"{STREAM_VERSION}:7:hop2:0".encode()).digest(3002 + 3 * 200)
        top = np.frombuffer(digest[:3000], np.uint8)
        unpacked = np.unpackbits(np.frombuffer(digest[3000:3002], np.uint8), bitorder="little")
        assert bits.tolist() == unpacked[:12].tolist()
        tied = np.flatnonzero(top == 1)
        assert len(tied) > 0
        low = [int.from_bytes(digest[3002 + 3 * i:3005 + 3 * i], "little") for i in range(len(tied))]
        words = top.astype(np.int64) << 24
        words[tied] += low
        assert bins.tolist() == np.searchsorted(thresholds, words, side="right").tolist()

    def test_draws_are_the_same_when_every_row_overruns_its_tie_margin(self, monkeypatch):
        draws = ((1, 40), ([2**24 + 1, 2**25 + 1, 2**26 + 1, 2**27 + 1], 5000))
        seeds = [3, 4, 2**64 - 1]
        kept = Substream(seeds, "hop1").draw(*draws)
        digests = mock.Mock(wraps=hashlib.shake_128)
        monkeypatch.setattr(planes, "tie_margin", lambda units: 0)
        monkeypatch.setattr(planes, "hashlib", mock.Mock(shake_128=digests))
        again = Substream(seeds, "hop1").draw(*draws)
        assert digests.call_count == 2 * len(seeds)  # each row digested again for its ties
        assert all(np.array_equal(a, b) for a, b in zip(kept, again))

    def test_a_bulk_run_asks_for_under_two_and_a_half_megabytes(self, monkeypatch):
        # m = n = 3, N = 10^5, loss 0.02, X 0.01, 10% intercept-resend: 0.3.0
        # asked SHAKE for 5,937,500 bytes, a 32-bit word per decision.
        asked = []

        class Shake:
            def __init__(self, key):
                self.xof = hashlib.shake_128(key)

            def digest(self, length):
                asked.append(length)
                return self.xof.digest(length)

        monkeypatch.setattr(planes, "hashlib", mock.Mock(shake_128=Shake))
        cfg = ProtocolConfig(3, 3, 100_000, seed=5)
        run_protocol(cfg, ChannelModel(loss_prob=0.02, p_x=0.01, adversary=InterceptResend(fraction=0.1)))
        assert 2_000_000 < sum(asked) <= 2_500_000


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
    # Transcripts written by mpqss 0.2.0 (one random.Random per run, seed 7)
    # and 0.3.0 (a 32-bit word per decision, seed 9) for one config, with the
    # sha256 of each file. Their seeds now draw other bits, but the text is
    # still format v1 and replay draws nothing.
    @pytest.mark.parametrize("version, sha256", [
        ("0.2.0", "13faa5e4ae20f57168fdb8496d4f3326c9f96e409708374ce682cc3516a0d8e2"),
        ("0.3.0", "fd513fe9a8ab9a286e92f1fac79b178f77224fe1af99cf1813ee1c56189944e4"),
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
