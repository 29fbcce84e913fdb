"""The keyed random stream of 0.3.0: every draw is a slice of one phase's SHAKE-128 digests."""

import hashlib
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpqss import (
    ChannelModel,
    ColluderInsider,
    InterceptResend,
    LossStrategy,
    OrderingAttack,
    PreparerInsider,
    ProtocolConfig,
    Substream,
    generate_secrets,
    parse,
    planes,
    replay,
    run_protocol,
    transmit,
)
from mpqss.channel import _thresholds
from mpqss.planes import STREAM_CHUNK, STREAM_VERSION, QubitBlock

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
        draws = ((32, 70), (1, 9), (64, 3))
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
            """A stream whose every word is 2**32 - 1 and every bit 1."""

            def at(self, phase):
                return self

            def draw(self, *draws):
                return [np.full(units, 1 if width == 1 else 2**32 - 1, dtype=f"<u{max(1, width // 8)}")
                        for width, units in draws]

        block = QubitBlock.encode(np.zeros(8, np.uint8), np.zeros(8, np.uint8))
        assert transmit(block, ChannelModel(loss_prob=1.0), Ones()).block.lost.all()
        flipped = transmit(block, ChannelModel(p_x=1.0), Ones()).block
        assert flipped.value.tolist() == [1] * 8
        res = transmit(block, ChannelModel(adversary=InterceptResend(fraction=1 - 2**-32)), Ones())
        assert len(res.intercept.positions) == 0  # the largest word is not below floor(f * 2**32)


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
    def test_a_0_2_0_transcript_still_replays(self):
        # Written by mpqss 0.2.0 (one random.Random per run): seed 7 of this
        # config now draws other bits, but the text is still format v1.
        text = (DATA / "stream_0.2.0.transcript").read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "13faa5e4ae20f57168fdb8496d4f3326c9f96e409708374ce682cc3516a0d8e2"
        )
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
