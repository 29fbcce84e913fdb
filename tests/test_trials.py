"""The trial-batched engine: run_trials against run_protocol, and seeded digests pinned at 0.3.0."""

import copy
import gc
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


# run_protocol(...).digest() of each config, recorded with mpqss 0.3.0 when
# draws became keyed substreams: seeded transcripts must stay byte-identical.
# The ninth aborts on the ordering gate before its first draw, so its digest
# is the one 0.2.0 recorded.
PINNED = [
    (ProtocolConfig(3, 3, 40, seed=1), ChannelModel(),
     "b567c6ec999ef5003b3554964f828c57d8785d5a178d902c140bdd4a7f683d8b"),
    (ProtocolConfig(3, 3, 40, quantum_memory=False, seed=2), ChannelModel(p_x=0.02),
     "529dca42afea8f0a9a0e2b97340f3ee7635e637a5d32d09674bff8c00eddc5ae"),
    (ProtocolConfig(2, 4, 25, Variant.BLOCK_BASIS, seed=3), ChannelModel(loss_prob=0.15, p_x=0.03),
     "0f3a61367c6bc5482aa4fa344dfa4796be790eef2e428ae8300097bfb853cb8a"),
    (ProtocolConfig(4, 5, 17, Variant.BLOCK_SHARED, quantum_memory=False, seed=4),
     ChannelModel(loss_prob=0.05, p_z=0.01, loss_strategy=SUB),
     "5fec1e498029f205052d80221555aeb76f538061b76ca523c05380e5d8dcb96d"),
    (ProtocolConfig(3, 2, 30, quantum_memory=False, seed=5),
     ChannelModel(loss_prob=0.05, adversary=InterceptResend(fraction=0.1)),
     "610cf8ee9f74af1e168894ce7d07a0da13d2616149d06eea619efe6b5ae7fc26"),
    (ProtocolConfig(3, 3, 20, Variant.BLOCK_BASIS, omit_hadamard=frozenset({2}), seed=6),
     ChannelModel(loss_prob=0.05, loss_strategy=SUB, adversary=PreparerInsider()),
     "203df9b87ffe90c8a06df102884fe0c2721e5b8d0fb6dacf5c198230524ad7a3"),
    (ProtocolConfig(4, 3, 24, seed=7), ChannelModel(p_y=0.02, adversary=ColluderInsider(target=3)),
     "aa2e42463f9e60c4bfc409f23c48b56328431837d4f18f54530e008eeed7db92"),
    (ProtocolConfig(4, 3, 16, Variant.BLOCK_SHARED, quantum_memory=False, seed=8),
     ChannelModel(adversary=ColluderInsider(4, frozenset({1, 2}), frozenset({2}))),
     "178aa2c542d181c2c367260905b75ef6d749b9ae31360b21cbbe132209949ebf"),
    (ProtocolConfig(2, 3, 20, seed=9), ChannelModel(adversary=OrderingAttack()),
     "0ab5934020f446e914b7406ecd88d8e393880e1f76d4b538ba48f9603fa0608f"),
    (ProtocolConfig(2, 3, 20, enforce_ordering=False, seed=10), ChannelModel(adversary=OrderingAttack()),
     "edc0d9b633409bd45cfd2195250f318bae142574dfbc623b29a0e07cf20b954d"),
    (ProtocolConfig(3, 3, 12, Variant.BLOCK_BASIS, quantum_memory=False, seed=11),
     ChannelModel(loss_prob=0.1, adversary=OrderingAttack(use_announced_bases=False)),
     "9203e2d757a698363af6264dc3b775f77385ab26c878f3bb98bdd746918b91a7"),
    (ProtocolConfig(3, 3, 40, seed=12), ChannelModel(p_x=0.3),
     "95174849e82031ae9fa4108c32517924c57d26a8cac688af3c1bc0797e468aa6"),
    (ProtocolConfig(2, 2, 5, check_fraction=0.25, quantum_memory=False, seed=2**64 - 1),
     ChannelModel(loss_prob=0.3, p_x=0.05),
     "f9a1584096ea741a3f680034750d68a7d6e0bb8d3016ad06aea29bccdd5abff6"),
]


class TestPinnedDigests:
    @pytest.mark.parametrize("cfg, channel, digest", PINNED)
    def test_seeded_transcript_is_unchanged(self, cfg, channel, digest):
        assert run_protocol(cfg, channel).digest() == digest

    def test_batched_trials_give_the_pinned_digests(self):
        for cfg, channel, digest in PINNED:
            trials = list(run_trials(cfg, channel, [cfg.seed + 1, cfg.seed]))
            assert trials[1].digest() == digest


# A bulk-run-shaped run (m = n = 3, loss, X noise and 10% intercept-resend)
# and the digest of its text as rendered before payloads were deferred.
BULK = (ProtocolConfig(3, 3, 2000, seed=5),
        ChannelModel(loss_prob=0.02, p_x=0.01, adversary=InterceptResend(fraction=0.1)))
BULK_DIGEST = "bacf3ad72b2fbcf8dfbc2c2a4d456ce50313e750d8ee04bb5265ed9920354b03"


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
