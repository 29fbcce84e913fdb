"""The trial-batched engine: run_trials against run_protocol, and seeded digests pinned at 0.5.0."""

import copy
import gc
import hashlib
import itertools
import os
import pickle
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpqss import (
    ChannelModel,
    ColluderInsider,
    ConfigError,
    InterceptResend,
    OrderingAttack,
    PartySecrets,
    PreparerInsider,
    ProtocolConfig,
    Transcript,
    Variant,
    protocol,
    transcript,
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

    def counted(block, ch, stream):
        rows.append(block.value.shape[0])
        return real(block, ch, stream)

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
        for t, tr in enumerate(chunk):
            assert tr.outcomes is tr.outcomes and tr.usable is tr.usable
            for l, j in itertools.product(range(1, cfg.receivers + 1), range(cfg.blocks)):
                lost = chunk.lost[t, j, l - 1]
                assert tr.outcomes[l][j] == (None if lost else chunk.outcome[t, j, l - 1])
                assert tr.usable[l][j] == chunk.usable[t, j, l - 1]
        assert chunk.lost.any()

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


# run_protocol(...).digest() of each config, recorded with mpqss 0.5.0 when
# every draw became SplitMix64 words of a per-draw key: seeded transcripts
# must stay byte-identical. The ninth aborts on the ordering gate before its
# first draw, so its digest is the one 0.2.0 recorded.
PINNED = [
    (ProtocolConfig(3, 3, 40, seed=1), ChannelModel(),
     "6c963b337abeb0614131dcb948fac059a0f7e4b306a7b10be29a7a9e09e2cb7c"),
    (ProtocolConfig(3, 3, 40, quantum_memory=False, seed=2), ChannelModel(p_x=0.02),
     "63edf05a5e1c5a3921e7a838c0b45c1d8e9bbd5b5a52d191e83606fc3e779332"),
    (ProtocolConfig(2, 4, 25, Variant.BLOCK_BASIS, seed=3), ChannelModel(loss_prob=0.15, p_x=0.03),
     "051462cd2a96214747890defe9d7f891b21dcb1811b3c95b4fec75da56ed3b66"),
    (ProtocolConfig(4, 5, 17, Variant.BLOCK_SHARED, quantum_memory=False, seed=4),
     ChannelModel(loss_prob=0.05, p_z=0.01, loss_strategy=SUB),
     "0aeca5c2841dfa0486934db4a911a6ea170506b78e23c97b76a687573f455f12"),
    (ProtocolConfig(3, 2, 30, quantum_memory=False, seed=5),
     ChannelModel(loss_prob=0.05, adversary=InterceptResend(fraction=0.1)),
     "c5959dc044efb776e508784a083655df9b8b823c4a88adf04f48a115852419e6"),
    (ProtocolConfig(3, 3, 20, Variant.BLOCK_BASIS, omit_hadamard=frozenset({2}), seed=6),
     ChannelModel(loss_prob=0.05, loss_strategy=SUB, adversary=PreparerInsider()),
     "6b3e1ba05225f57280335e9be807f94c8f949d7fcecfd74816fb72218e366b50"),
    (ProtocolConfig(4, 3, 24, seed=7), ChannelModel(p_y=0.02, adversary=ColluderInsider(target=3)),
     "32d7709811132365f5640f196d572d50d2b62574a23265e4cfdb38af164972cf"),
    (ProtocolConfig(4, 3, 16, Variant.BLOCK_SHARED, quantum_memory=False, seed=8),
     ChannelModel(adversary=ColluderInsider(4, frozenset({1, 2}), frozenset({2}))),
     "d9a313237635f3e8e7f2c84bb845dc42a4712bb340b4f7464fc4b1b53a84c400"),
    (ProtocolConfig(2, 3, 20, seed=9), ChannelModel(adversary=OrderingAttack()),
     "0ab5934020f446e914b7406ecd88d8e393880e1f76d4b538ba48f9603fa0608f"),
    (ProtocolConfig(2, 3, 20, enforce_ordering=False, seed=10), ChannelModel(adversary=OrderingAttack()),
     "4d1f5d96f85a271d550891b2485db5b6282f33a00c72cb7fa7635440af78cef3"),
    (ProtocolConfig(3, 3, 12, Variant.BLOCK_BASIS, quantum_memory=False, seed=11),
     ChannelModel(loss_prob=0.1, adversary=OrderingAttack(use_announced_bases=False)),
     "756b8de5c50d0b57a1e73c74a1deb5bff3acfb05b446275893ed95a6a9a8678d"),
    (ProtocolConfig(3, 3, 40, seed=12), ChannelModel(p_x=0.3),
     "8f4e2f08031780fc951233537a32a6408e8e0e8ee8138a51f492a0068e003f44"),
    (ProtocolConfig(2, 2, 5, check_fraction=0.25, quantum_memory=False, seed=2**64 - 1),
     ChannelModel(loss_prob=0.3, p_x=0.05),
     "6d59d6c6b2deee785956c4b11dcfa30d73b6ef276c21d11f4c0672643986fed9"),
]


class TestPinnedDigests:
    @pytest.mark.parametrize("cfg, channel, digest", PINNED)
    def test_seeded_transcript_is_unchanged(self, cfg, channel, digest):
        assert run_protocol(cfg, channel).digest() == digest

    def test_batched_trials_give_the_pinned_digests(self):
        for cfg, channel, digest in PINNED:
            trials = list(run_trials(cfg, channel, [(cfg.seed + 1) % 2**64, cfg.seed]))
            assert trials[1].digest() == digest


class TestSeeds:
    @pytest.mark.parametrize("seed", [2**64, -1, 2.5, "3", None, True, [True]])
    def test_run_trials_refuses_a_seed_outside_the_uint64_ints(self, seed):
        with pytest.raises(ConfigError, match="^seed: must be in"):
            next(run_trials(ProtocolConfig(2, 2, 4), None, [1, seed]))

    @pytest.mark.parametrize("seed", [2**64, -1, 2.5, "3", None, True, [True]])
    def test_run_chunks_refuses_a_seed_outside_the_uint64_ints(self, seed):
        with pytest.raises(ConfigError, match="^seed: must be in"):
            next(run_chunks(ProtocolConfig(2, 2, 4), None, [seed, 1]))

    def test_the_ends_of_the_range_and_numpy_ints_run(self):
        seeds = [0, 2**64 - 1, np.uint64(7), np.int64(7)]
        digests = [tr.digest() for tr in run_trials(ProtocolConfig(2, 2, 4), None, seeds)]
        assert digests[2] == digests[3] == run_protocol(ProtocolConfig(2, 2, 4, seed=7)).digest()


# A bulk-run-shaped run (m = n = 3, loss, X noise and 10% intercept-resend)
# and the digest of its text, recorded with mpqss 0.5.0.
BULK = (ProtocolConfig(3, 3, 2000, seed=5),
        ChannelModel(loss_prob=0.02, p_x=0.01, adversary=InterceptResend(fraction=0.1)))
BULK_DIGEST = "7d075f0089c0581569093fecf0fcbf7930deae08d7cb0254f5497f95d877da2d"

# The same shape at N = 10^5, the size of the bulk-run benchmark: each
# threshold draw spans about 4.6 passes of ``planes._PASS_WORDS``, and every
# sparse selection (lost, intercepted, checked and key positions) is taken at
# that workload's densities. Recorded with mpqss 0.5.0.
BULK_AT_SCALE = (ProtocolConfig(3, 3, 100_000, seed=5), BULK[1])
BULK_AT_SCALE_DIGEST = "cc2cb3a1b3f59a261dd291bfe08e04130b80ec3d22bf760c12dd15a460184e5a"


class TestBulkAtScale:
    def test_a_bulk_run_at_scale_is_unchanged(self):
        tr = run_protocol(*BULK_AT_SCALE)
        assert len(tr.adversary.positions) == 28_482
        assert tr.digest() == BULK_AT_SCALE_DIGEST


class TestDeferredPayloads:
    def test_a_run_renders_no_payload_until_its_text_is_read(self):
        with mock.patch.object(transcript, "_cut", wraps=transcript._cut) as cut:
            tr = run_protocol(*BULK)
            tr.qber, tr.raw_key, tr.outcomes, tr.adversary
            assert cut.call_count == 0
            assert tr.digest() == BULK_DIGEST
            rendered = cut.call_count
            assert rendered > 0
            tr.events, tr.serialize(), list(tr._chunk)[0].save(os.devnull)
            assert cut.call_count == rendered  # rendered once, and then kept

            # A chunk of 40 trials, some with a loss record and some aborted:
            # each plane renders once for the chunk, however many rows read it.
            cut.reset_mock()
            channel = ChannelModel(loss_prob=0.01, adversary=InterceptResend(fraction=0.3))
            [chunk] = run_chunks(ProtocolConfig(2, 3, 20), channel, range(40))
            lossy = [rows for events, rows, _ in chunk._records if events[0][0] == "loss"]
            assert lossy and all(rows.any() and not rows.all() for rows in lossy)
            assert chunk.aborted.any() and not chunk.aborted.all() and chunk.adversary is not None
            assert cut.call_count == 0
            for tr in chunk:
                tr.events, tr.serialize(), tr.digest()
            planes = sum(callable(payloads) for _, _, payloads in chunk._records)
            assert cut.call_count == planes + 4  # and the four of the adversary sections

    def test_copies_made_before_the_first_render_serialize_as_the_original(self):
        for make in (copy.copy, copy.deepcopy, lambda tr: pickle.loads(pickle.dumps(tr))):
            tr = run_protocol(*BULK)
            twin = make(tr)
            assert twin.digest() == BULK_DIGEST
            assert tr.digest() == BULK_DIGEST and twin.events == tr.events

    def test_the_callers_strings_are_not_held_by_the_run(self):
        cfg = ProtocolConfig(2, 3, 8, seed=4)
        k = np.arange(24)
        strings = [(k % 2, k // 3 % 2), (k // 2 % 2, k % 3 % 2)]

        def run_with(pairs):
            return run_protocol(cfg, secrets=[PartySecrets(f"alice{i}", *pair)
                                              for i, pair in enumerate(pairs, start=1)])

        given_arrays = [tuple(a.copy() for a in pair) for pair in strings]
        run = run_with(given_arrays)
        for values, bases in given_arrays:
            values ^= 1
            bases ^= 1
        assert run.serialize() == run_with(strings).serialize()
        with pytest.raises(ValueError):  # a recorded plane is read-only until it renders, and after
            run.announced_bases[1][0] = 1


# Chunks whose rows differ in the records they hold, at m = n = 3, N = 40: a
# low threshold aborts some rows; loss at 20% marks a loss record in every
# row and at 0.5% in some rows only, after which rows stand at different
# event numbers and every record renders row by row; an intercept-resend
# adversary adds its section.
MIXED = {
    "aborts": (0.05, ChannelModel(p_x=0.02)),
    "loss": (0.11, ChannelModel(loss_prob=0.2)),
    "sparse-loss": (0.11, ChannelModel(loss_prob=0.005, p_x=0.02)),
    "intercept-resend": (0.11, ChannelModel(adversary=InterceptResend(fraction=0.3))),
}


class TestChunkRender:
    @pytest.mark.parametrize("budget", [1 << 12, 1 << 17])
    @pytest.mark.parametrize("memory", [True, False])
    @pytest.mark.parametrize("mix", sorted(MIXED))
    def test_each_row_renders_as_its_one_seed_run(self, mix, memory, budget, tmp_path):
        threshold, channel = MIXED[mix]
        cfg = ProtocolConfig(3, 3, 40, quantum_memory=memory, qber_abort_threshold=threshold)
        seeds = range(40)
        planes, render = [], transcript._block_rows

        def counted(parts, count):  # the planes of each block, counted before it is laid out
            planes.append(sum(not isinstance(part, bytes) for part in parts))
            return render(parts, count)

        with mock.patch.object(protocol, "CHUNK_POSITIONS", budget), \
                mock.patch.object(transcript, "_block_rows", counted):
            chunks = list(run_chunks(cfg, channel, seeds))
            trs = [tr for chunk in chunks for tr in chunk]
            texts = [tr.serialize() for tr in trs]
        assert any(planes) == (mix != "sparse-loss")
        assert [len(chunk) for chunk in chunks] == ([34, 6] if budget == 1 << 12 else [40])
        for seed, tr, text in zip(seeds, trs, texts):
            assert text == run_protocol(replace(cfg, seed=seed), channel).serialize()
            assert tr.digest() == hashlib.sha256(text.encode()).hexdigest()
        for chunk in chunks:
            assert chunk.digests() == [tr.digest() for tr in chunk]
        path = tmp_path / "row.transcript"
        trs[-1].save(path)
        assert path.read_bytes() == texts[-1].encode()

        records = [(events[0][0], rows) for chunk in chunks for events, rows, _ in chunk._records]
        lossy = [rows for kind, rows in records if kind == "loss"]
        aborted = np.concatenate([chunk.aborted for chunk in chunks])
        if mix == "aborts":
            assert aborted.any() and not aborted.all()
        if mix == "loss":
            assert lossy and all(rows.all() for rows in lossy)
        if mix == "sparse-loss":
            assert any(rows.any() and not rows.all() for rows in lossy)
        if mix == "intercept-resend":
            assert all(chunk.adversary is not None for chunk in chunks)
