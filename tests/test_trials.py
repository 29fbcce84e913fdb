"""The trial-batched engine: run_trials against run_protocol, and seeded digests pinned at 0.2.0."""

import copy
import gc
import itertools
import pickle
import weakref
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpqss import (
    ChannelModel,
    ColluderInsider,
    ConfigError,
    InterceptResend,
    OrderingAttack,
    PreparerInsider,
    ProtocolConfig,
    Transcript,
    Variant,
    protocol,
    run_chunks,
    run_protocol,
    run_trials,
)
from mpqss.channel import LossStrategy
from mpqss.transcript import UNSET

SUB = LossStrategy.SUBSTITUTE


# Every public attribute of a transcript. A view reads each from its chunk on
# first use, so vars() of a view holds only those read so far.
PUBLIC = (
    "config", "announced_bases", "outcomes", "usable", "check_blocks", "compared", "disagreements",
    "qber", "key_blocks", "raw_key", "reference_key", "efficiency", "sift_rate", "abort_reason",
    "adversary",
)


def state(tr) -> dict:
    """Everything a transcript holds: events, derived fields, adversary record, rates, keys, secrets.

    Planes are compared as lists.
    """
    out = {name: getattr(tr, name) for name in PUBLIC}
    out["events"] = tr.events
    out["announced_bases"] = {i: bits.tolist() for i, bits in tr.announced_bases.items()}
    if (rec := tr.adversary) is not None:
        planes = (rec.positions, rec.bases, rec.bits, rec.certain)
        out["adversary"] = (rec.kind, *(plane.tolist() for plane in planes))
    out["secrets"] = [
        (s.party, s.value_bits.tolist(), s.basis_bits.tolist(),
         None if s.value_shares is None else s.value_shares.tolist())
        for s in tr._secrets
    ]
    out["text"] = tr.serialize()
    return out


def batched_rows(cfg, channel, seeds) -> tuple[list, list[int]]:
    """The transcripts of ``run_trials`` and the trial count of each block it transmitted."""
    rows = []
    real = protocol.transmit

    def counted(block, ch, rng):
        rows.append(block.value.shape[0])
        return real(block, ch, rng)

    with mock.patch.object(protocol, "transmit", counted):
        return list(run_trials(cfg, channel, seeds)), rows


def channels(senders: int) -> list[ChannelModel]:
    out = [
        ChannelModel(),
        ChannelModel(loss_prob=0.15, p_x=0.03),
        ChannelModel(loss_prob=0.15, p_z=0.03, p_y=0.01, loss_strategy=SUB),
        ChannelModel(loss_prob=0.05, adversary=InterceptResend(fraction=0.2)),
        ChannelModel(p_x=0.02, loss_strategy=SUB, adversary=InterceptResend()),
        ChannelModel(loss_prob=0.1, adversary=PreparerInsider()),
        ChannelModel(adversary=OrderingAttack()),
        ChannelModel(loss_prob=0.1, adversary=OrderingAttack(use_announced_bases=False)),
    ]
    if senders >= 3:
        out.append(ChannelModel(loss_prob=0.1, adversary=ColluderInsider(target=senders)))
        out.append(ChannelModel(adversary=ColluderInsider(3, frozenset({1}), frozenset({1}))))
    return out


@st.composite
def batches(draw):
    variant = draw(st.sampled_from(list(Variant)))
    senders = draw(st.integers(2, 4))
    cfg = ProtocolConfig(
        senders=senders,
        receivers=draw(st.sampled_from([3, 5] if variant is Variant.BLOCK_SHARED else [2, 3, 4, 5])),
        blocks=draw(st.integers(4, 40)),
        variant=variant,
        quantum_memory=draw(st.booleans()),
        enforce_ordering=draw(st.booleans()),
        omit_hadamard=draw(st.sampled_from([frozenset(), frozenset({2})])),
    )
    channel = draw(st.sampled_from(channels(senders)))
    per_chunk = draw(st.integers(1, 4))
    # More seeds than one chunk holds, so at least one chunk boundary is crossed.
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=per_chunk + 1, max_size=9))
    return cfg, channel, per_chunk, seeds


class TestAgainstOneTrialRuns:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(batches())
    def test_each_batched_trial_is_its_own_run(self, batch):
        cfg, channel, per_chunk, seeds = batch
        with mock.patch.object(protocol, "CHUNK_POSITIONS", per_chunk * cfg.total_qubits):
            batched = list(run_trials(cfg, channel, seeds))
        assert len(batched) == len(seeds)
        for seed, tr in zip(seeds, batched):
            assert state(tr) == state(run_protocol(replace(cfg, seed=seed), channel))

    def test_chunks_follow_the_position_budget(self):
        # n*N = 200 positions: 4096 // 200 = 20 trials per chunk, so 23 seeds take two chunks.
        cfg = ProtocolConfig(3, 5, 40, quantum_memory=False)
        channel = ChannelModel(loss_prob=0.05, p_x=0.02)
        with mock.patch.object(protocol, "CHUNK_POSITIONS", 1 << 12):
            batched, rows = batched_rows(cfg, channel, range(23))
        assert rows == [20, 20, 20, 3, 3, 3]  # one call per hop and chunk
        for seed, tr in enumerate(batched):
            assert state(tr) == state(run_protocol(replace(cfg, seed=seed), channel))

    def test_a_run_larger_than_the_budget_is_a_chunk_of_one(self):
        cfg = ProtocolConfig(2, 3, protocol.CHUNK_POSITIONS)
        batched, rows = batched_rows(cfg, None, [5, 6])
        assert rows == [1, 1, 1, 1]
        for seed, tr in zip([5, 6], batched):
            assert tr.serialize() == run_protocol(replace(cfg, seed=seed)).serialize()

    def test_public_is_every_public_attribute(self):
        # A row reads config and announced_bases from its chunk always, and
        # every other attribute from it or, if its run never reached it, from UNSET.
        unset = {name for name in UNSET if not name.startswith("_")}
        assert {"config", "announced_bases"} | unset == set(PUBLIC)
        assert {name: getattr(Transcript({}), name) for name in unset} == {name: UNSET[name] for name in unset}

    def test_a_row_without_its_chunk_has_no_attributes_and_copies_rebuild_it(self):
        bare = object.__new__(Transcript)  # as copy and pickle make a row, before its state
        with pytest.raises(AttributeError):
            bare.qber
        tr = run_protocol(ProtocolConfig(2, 3, 6, seed=1))
        for twin in (copy.copy(tr), pickle.loads(pickle.dumps(tr))):
            assert state(twin) == state(tr)

    def test_views_build_each_mirror_once_from_the_readout_planes(self):
        cfg = ProtocolConfig(3, 3, 20, quantum_memory=False)
        [chunk] = run_chunks(cfg, ChannelModel(loss_prob=0.2, p_x=0.02), range(6))
        readout = chunk.readout
        for t, tr in enumerate(chunk):
            assert tr.outcomes is tr.outcomes and tr.usable is tr.usable
            for l, j in itertools.product(range(1, cfg.receivers + 1), range(cfg.blocks)):
                lost = readout.lost[t, j, l - 1]
                assert tr.outcomes[l][j] == (None if lost else readout.outcome[t, j, l - 1])
                assert tr.usable[l][j] == readout.usable[t, j, l - 1]
        assert readout.lost.any()

    def test_a_chunk_goes_with_its_last_view_without_the_collector(self):
        gc.disable()
        try:
            [chunk] = run_chunks(ProtocolConfig(2, 3, 6), None, range(3))
            gone = weakref.ref(chunk)
            trs = list(chunk)
            trs[0].serialize(), trs[1].outcomes
            del chunk
            assert gone() is not None
            del trs
            assert gone() is None
        finally:
            gc.enable()

    def test_no_seeds_no_transcripts(self):
        assert list(run_trials(ProtocolConfig(2, 3, 6), None, [])) == []

    def test_channel_is_validated_before_any_trial(self):
        with pytest.raises(ConfigError):
            run_trials(ProtocolConfig(2, 3, 6), ChannelModel(loss_prob=2.0), [1])


# run_protocol(...).digest() of each config, recorded with mpqss 0.2.0 before
# trials were batched: seeded transcripts must stay byte-identical.
PINNED = [
    (ProtocolConfig(3, 3, 40, seed=1), ChannelModel(),
     "3eac9f6f9292d8a471fe5359a770fe256da7befbe5cb3bc92a3c3d10e79c9e2c"),
    (ProtocolConfig(3, 3, 40, quantum_memory=False, seed=2), ChannelModel(p_x=0.02),
     "6184592a0d13e35d8c5024ff7c40b4c32194d2ec3275edabd5866bf021a7848c"),
    (ProtocolConfig(2, 4, 25, Variant.BLOCK_BASIS, seed=3), ChannelModel(loss_prob=0.15, p_x=0.03),
     "adb87cf333a842bcfaebc577804b798b9cfd467eeb048c734741b9ae0d90dbf9"),
    (ProtocolConfig(4, 5, 17, Variant.BLOCK_SHARED, quantum_memory=False, seed=4),
     ChannelModel(loss_prob=0.05, p_z=0.01, loss_strategy=SUB),
     "b9b56e16602e0ca78b36105c1b7609acce2af5a3a1a256a9c61037268a49bd3c"),
    (ProtocolConfig(3, 2, 30, quantum_memory=False, seed=5),
     ChannelModel(loss_prob=0.05, adversary=InterceptResend(fraction=0.1)),
     "3b1546d7ede91ae96aeaa0f927a5ca07581b16d2c9540566854bd159587965d3"),
    (ProtocolConfig(3, 3, 20, Variant.BLOCK_BASIS, omit_hadamard=frozenset({2}), seed=6),
     ChannelModel(loss_prob=0.05, loss_strategy=SUB, adversary=PreparerInsider()),
     "7e517951f69ba728f49bdf756853d9ae799d69bdcb7abd4fc6b659072e8461bc"),
    (ProtocolConfig(4, 3, 24, seed=7), ChannelModel(p_y=0.02, adversary=ColluderInsider(target=3)),
     "b7c1b12d0f231b07f8a96114df1a14728e3d6467989f671079297867ccab2057"),
    (ProtocolConfig(4, 3, 16, Variant.BLOCK_SHARED, quantum_memory=False, seed=8),
     ChannelModel(adversary=ColluderInsider(4, frozenset({1, 2}), frozenset({2}))),
     "e3d0234d0abbab8ff02ae6ea4f8f82024f2e61debf4c00a19191832d639492c4"),
    (ProtocolConfig(2, 3, 20, seed=9), ChannelModel(adversary=OrderingAttack()),
     "0ab5934020f446e914b7406ecd88d8e393880e1f76d4b538ba48f9603fa0608f"),
    (ProtocolConfig(2, 3, 20, enforce_ordering=False, seed=10), ChannelModel(adversary=OrderingAttack()),
     "ede4d8553dec0e86a1afbc3ee68f6f02860b0be0ba4729346476a996de606854"),
    (ProtocolConfig(3, 3, 12, Variant.BLOCK_BASIS, quantum_memory=False, seed=11),
     ChannelModel(loss_prob=0.1, adversary=OrderingAttack(use_announced_bases=False)),
     "c69a91e2eaf516b9ebe1b3759819d08b614f2aeaf5b9d37be3cf549324cc3143"),
    (ProtocolConfig(3, 3, 40, seed=12), ChannelModel(p_x=0.3),
     "960a5fcb9769eeb4f6a107b3fd43fa2b82f3eadeff04cd296557a2c0d1ec0e28"),
    (ProtocolConfig(2, 2, 5, check_fraction=0.25, quantum_memory=False, seed=2**64 - 1),
     ChannelModel(loss_prob=0.3, p_x=0.05),
     "52d5f46b933ffb3d3f4483524e05106ff113d3ccc3a5bb658c854f5fef304e97"),
]


class TestPinnedDigests:
    @pytest.mark.parametrize("cfg, channel, digest", PINNED)
    def test_seeded_transcript_is_unchanged(self, cfg, channel, digest):
        assert run_protocol(cfg, channel).digest() == digest

    def test_batched_trials_give_the_pinned_digests(self):
        for cfg, channel, digest in PINNED:
            trials = list(run_trials(cfg, channel, [cfg.seed + 1, cfg.seed]))
            assert trials[1].digest() == digest
