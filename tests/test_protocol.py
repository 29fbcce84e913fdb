"""Protocol state machine: known vectors, randomized correctness, ordering, variants."""

import random
from dataclasses import replace

import numpy as np
import pytest

import known_vectors as kv
from mpqss import (
    ChannelModel,
    ConfigError,
    InterceptResend,
    OrderingError,
    PartySecrets,
    PreparerInsider,
    ProtocolConfig,
    ProtocolStateError,
    Qubit,
    QubitBlock,
    Substream,
    Transcript,
    Variant,
    announce_bases,
    combined_bases,
    encode_block,
    expanded_bit_vectors,
    extract_raw_key,
    generate_secrets,
    position,
    prepare_block,
    replay,
    run_check,
    run_chunks,
    run_protocol,
    split_for_receivers,
)
from mpqss.protocol import _run_chunk
from mpqss.transcript import Chunk


def kets(qubits):
    return " ".join(q.ket() for q in qubits)


def ordering_issues(tr):
    """The ordering issues ``replay`` finds in a transcript."""
    return [issue for issue in replay(tr.serialize()).issues if issue.startswith("ordering:")]


class TestConfig:
    def test_minimum_party_counts(self):
        with pytest.raises(ConfigError, match="senders"):
            ProtocolConfig(senders=1, receivers=3, blocks=4)
        with pytest.raises(ConfigError, match="receivers"):
            ProtocolConfig(senders=2, receivers=1, blocks=4)
        with pytest.raises(ConfigError, match="blocks"):
            ProtocolConfig(senders=2, receivers=2, blocks=0)

    def test_check_fraction_range(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError, match="check_fraction"):
                ProtocolConfig(senders=2, receivers=2, blocks=4, check_fraction=bad)

    def test_at_least_one_block_stays_unchecked(self):
        # ceil(0.9 * 4) = 4 would reveal everything.
        with pytest.raises(ConfigError, match="check_fraction"):
            ProtocolConfig(senders=2, receivers=2, blocks=4, check_fraction=0.9)
        # A single block can never split into checked and unchecked halves.
        with pytest.raises(ConfigError, match="check_fraction"):
            ProtocolConfig(senders=2, receivers=2, blocks=1, check_fraction=0.5)

    def test_abort_threshold_range(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError, match="qber_abort_threshold"):
                ProtocolConfig(senders=2, receivers=2, blocks=4, qber_abort_threshold=bad)

    def test_checked_block_count_is_float_safe(self):
        cfg = ProtocolConfig(senders=2, receivers=2, blocks=10, check_fraction=0.3)
        assert cfg.checked_block_count == 3  # not ceil(3.0000000000000004) = 4

    def test_shared_block_variant_rejects_even_receivers(self):
        with pytest.raises(ConfigError, match="odd receiver"):
            ProtocolConfig(senders=2, receivers=4, blocks=4, variant=Variant.BLOCK_SHARED)
        ProtocolConfig(senders=2, receivers=3, blocks=4, variant=Variant.BLOCK_SHARED)

    def test_omit_hadamard_bounds(self):
        with pytest.raises(ConfigError, match="omit_hadamard"):
            ProtocolConfig(senders=2, receivers=2, blocks=4, omit_hadamard=frozenset({1}))
        with pytest.raises(ConfigError, match="omit_hadamard"):
            ProtocolConfig(senders=2, receivers=2, blocks=4, omit_hadamard=frozenset({3}))

    def test_variant_parsing_accepts_aliases(self):
        assert Variant.parse("main") is Variant.MAIN
        assert Variant.parse("A") is Variant.BLOCK_BASIS
        assert Variant.parse("block-shared") is Variant.BLOCK_SHARED
        with pytest.raises(ConfigError):
            Variant.parse("nope")


class TestKnownVectors:
    def test_prepared_block(self):
        block = prepare_block(kv.secrets()[0], kv.config())
        assert kets(block.qubits) == kv.FIRST_BLOCK_KETS

    def test_prepare_all_zero_strings(self):
        cfg = kv.config()
        zeros = PartySecrets("alice1", (0,) * 18, (0,) * 18)
        block = prepare_block(zeros, cfg)
        assert all(q == Qubit(0, 0) for q in block.qubits)

    def test_prepare_rejects_size_mismatch(self):
        with pytest.raises(ConfigError, match="secrets"):
            prepare_block(PartySecrets("alice1", (0, 1), (1, 0)), kv.config())

    def test_injected_secrets_must_be_bits(self):
        cfg = kv.config()
        bad_values = kv.VALUES_2[:-1] + (2,)
        for bad in (bad_values, np.array(bad_values, dtype=np.uint8)):
            with pytest.raises(ValueError):
                secrets = [kv.secrets()[0], PartySecrets("alice2", bad, kv.BASES_2)]
                run_protocol(cfg, secrets=secrets, check_blocks=kv.CHECK_BLOCKS)

    def test_injected_arrays_run_as_injected_tuples(self):
        cfg = kv.config()
        arrays = [
            PartySecrets(f"alice{i}", np.array(v, dtype=np.uint8), np.array(b, dtype=np.uint8))
            for i, (v, b) in enumerate(((kv.VALUES_1, kv.BASES_1), (kv.VALUES_2, kv.BASES_2)), start=1)
        ]
        from_arrays = run_protocol(cfg, secrets=arrays, check_blocks=kv.CHECK_BLOCKS)
        from_tuples = run_protocol(cfg, secrets=kv.secrets(), check_blocks=kv.CHECK_BLOCKS)
        assert from_arrays.serialize() == from_tuples.serialize()

    def test_second_encoding_pass(self):
        cfg = kv.config()
        s1, s2 = kv.secrets()
        block = encode_block(prepare_block(s1, cfg), s2, 2, cfg)
        assert kets(block.qubits) == kv.SECOND_BLOCK_KETS

    def test_encoding_with_zero_strings_is_identity(self):
        cfg = kv.config()
        block = prepare_block(kv.secrets()[0], cfg)
        zeros = PartySecrets("alice2", (0,) * 18, (0,) * 18)
        assert encode_block(block, zeros, 2, cfg).qubits == block.qubits

    def test_encoding_twice_with_same_strings_is_identity(self):
        cfg = kv.config()
        s1, s2 = kv.secrets()
        block = prepare_block(s1, cfg)
        twice = encode_block(encode_block(block, s2, 2, cfg), s2, 2, cfg)
        assert twice.qubits == block.qubits

    def test_round_robin_distribution(self):
        cfg = kv.config()
        s1, s2 = kv.secrets()
        seqs = split_for_receivers(encode_block(prepare_block(s1, cfg), s2, 2, cfg), cfg)
        for got, want in zip(seqs, kv.RECEIVER_KETS):
            assert kets(got) == want

    def test_distribution_index_arithmetic(self):
        # Six qubits, three receivers: the second receiver takes 1-based
        # positions 2 and 5, i.e. 0-based 1 and 4.
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=2)
        block = kv.from_qubits([Qubit(k % 2, 0) for k in range(6)])
        seqs = split_for_receivers(block, cfg)
        assert seqs[1].qubits == [block.qubits[1], block.qubits[4]]
        assert position(0, 2, 3) == 1 and position(1, 2, 3) == 4
        for k in range(6):
            assert position(k // 3, k % 3 + 1, 3) == k

    def test_full_run_reproduces_reference_transcript(self):
        tr = run_protocol(kv.config(), secrets=kv.secrets(), check_blocks=kv.CHECK_BLOCKS)
        assert tr.abort_reason is None
        for l, want in enumerate(kv.DECODED, start=1):
            assert tuple(tr.outcomes[l]) == want
        assert tr.check_blocks == kv.CHECK_BLOCKS
        assert tr.qber == 0.0
        assert tr.raw_key == kv.RAW_KEY
        assert tr.reference_key == kv.RAW_KEY
        for l, want in enumerate(kv.KEY_CONTRIBUTIONS, start=1):
            contrib = [ev for ev in tr.events if ev.kind == "key-contrib" and ev.party == f"bob{l}"]
            assert contrib[0].payload == "".join(str(b) for b in want)


def random_config(rng, variant=None, max_senders=5, max_receivers=5, max_blocks=32):
    senders = rng.randint(2, max_senders)
    receivers = rng.randint(2, max_receivers)
    blocks = rng.randint(2, max_blocks)
    variant = variant or rng.choice(list(Variant))
    if variant is Variant.BLOCK_SHARED and receivers % 2 == 0:
        receivers += 1
    return ProtocolConfig(
        senders=senders,
        receivers=receivers,
        blocks=blocks,
        variant=variant,
        seed=rng.getrandbits(48),
    )


class TestHonestRuns:
    def test_randomized_correctness_over_party_grid(self):
        """Ideal honest runs never abort, decode the XOR everywhere, and key out."""
        rng = random.Random(101)
        runs = 0
        while runs < 300:
            cfg = random_config(rng)
            tr = run_protocol(cfg)
            assert tr.abort_reason is None
            assert tr.qber == 0.0
            values, _ = expanded_bit_vectors(tr._secrets, cfg)
            for l in range(1, cfg.receivers + 1):
                for j in range(cfg.blocks):
                    k = position(j, l, cfg.receivers)
                    expected = 0
                    for sender_bits in values:
                        expected ^= sender_bits[k]
                    assert tr.outcomes[l][j] == expected
            assert tr.raw_key == tr.reference_key
            assert len(tr.raw_key) == cfg.blocks - cfg.checked_block_count
            runs += 1

    def test_single_block_config_is_the_documented_degenerate_case(self):
        # With one block, any check fraction consumes it; the failure mode is
        # a configuration error, not a keyless run.
        with pytest.raises(ConfigError, match="check_fraction"):
            ProtocolConfig(senders=2, receivers=2, blocks=1)

    def test_same_seed_same_transcript(self):
        cfg = ProtocolConfig(senders=3, receivers=3, blocks=8, seed=424242)
        a = run_protocol(cfg)
        b = run_protocol(cfg)
        assert a.serialize() == b.serialize()
        assert a.digest() == b.digest()

    def test_different_seeds_differ(self):
        cfg = ProtocolConfig(senders=3, receivers=3, blocks=8, seed=1)
        assert run_protocol(cfg).serialize() != run_protocol(replace(cfg, seed=2)).serialize()

    def test_basis_rule_exhaustive_up_to_four_senders(self):
        """The decoding basis is the XOR of every sender's governing bit.

        Exhaustive over all basis-bit assignments at one position for 2..4
        senders, with fixed all-zero value bits so outcomes isolate the rule.
        """
        for senders in (2, 3, 4):
            for combo in range(2 ** senders):
                bits = [(combo >> i) & 1 for i in range(senders)]
                cfg = ProtocolConfig(senders=senders, receivers=2, blocks=2, seed=5)
                secrets = []
                for i in range(senders):
                    basis = [0] * cfg.total_qubits
                    basis[0] = bits[i]  # position 1 gets the combo
                    secrets.append(
                        PartySecrets(f"alice{i+1}", (0,) * cfg.total_qubits, tuple(basis))
                    )
                tr = run_protocol(cfg, secrets=secrets, check_blocks=(1,))
                want = 0
                for b in bits:
                    want ^= b
                assert np.bitwise_xor.reduce(list(tr.announced_bases.values()))[0] == want
                assert ordering_issues(tr) == []

    def test_no_memory_mode_sifts_about_half(self):
        cfg = ProtocolConfig(
            senders=2, receivers=2, blocks=400, quantum_memory=False, seed=77
        )
        tr = run_protocol(cfg)
        # 800 positions: sigma = 0.018, so +-0.1 is 5.7 sigma.
        assert 0.4 < tr.sift_rate < 0.6
        # Surviving positions decode correctly, so the key still checks out.
        assert tr.abort_reason is None
        assert tr.raw_key == tr.reference_key

    def test_secrecy_missing_one_receiver_leaves_key_uniform(self):
        """Any n-1 receivers plus all announcements learn nothing per key bit."""
        # About 18,000 key blocks: sigma = 0.0037, so +-0.02 is 5.4 sigma.
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=36_000, seed=31337)
        tr = run_protocol(cfg)
        # Oracle holding receivers 1..n-1: best guess is the XOR of its records.
        hits = 0
        for idx, j in enumerate(tr.key_blocks):
            guess = 0
            for l in range(1, cfg.receivers):
                guess ^= tr.outcomes[l][j]
            hits += guess == tr.raw_key[idx]
        accuracy = hits / len(tr.key_blocks)
        assert abs(accuracy - 0.5) <= 0.02


class TestOrdering:
    def test_announcement_before_acks_is_rejected(self):
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=4)
        tr = Transcript(cfg.snapshot())
        with pytest.raises(OrderingError):
            announce_bases(tr, 1, (0, 1) * 6, cfg)

    def test_announcement_with_one_ack_missing_is_rejected(self):
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=4)
        run = Chunk(cfg.snapshot())
        for l in (1, 2):  # third receiver never confirms
            run.record("ack", f"bob{l}")
        with pytest.raises(OrderingError, match=r"\[3\]"):
            announce_bases(run, 1, (0, 1) * 6, cfg)
        assert [ev.kind for ev in run[0].events] == ["ack", "ack"]  # nothing announced

    def test_announcement_after_all_acks_succeeds(self):
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=4)
        run = Chunk(cfg.snapshot())
        for l in (1, 2, 3):
            run.record("ack", f"bob{l}")
        announce_bases(run, 1, (0, 1) * 6, cfg)
        assert run[0].announced_bases[1].tolist() == [0, 1] * 6
        assert ordering_issues(run[0]) == []

    def test_enforcement_disabled_records_the_violation(self):
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=4, enforce_ordering=False)
        run = Chunk(cfg.snapshot())
        announce_bases(run, 1, (0, 1) * 6, cfg)  # no acks yet, tolerated
        for l in (1, 2, 3):
            run.record("ack", f"bob{l}")
        assert ordering_issues(run[0]) == ["ordering: a basis announcement precedes a reception acknowledgment"]

    def test_ordering_before_any_announcement_or_ack(self):
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=4, enforce_ordering=False)
        run = Chunk(cfg.snapshot())
        assert ordering_issues(run[0]) == []  # nothing announced yet
        announce_bases(run, 1, (0, 1) * 6, cfg)
        # Announced before any receiver acknowledged.
        assert ordering_issues(run[0]) == ["ordering: only 0 of 3 receivers acknowledged before announcements"]

    def test_honest_runs_respect_ordering(self):
        tr = run_protocol(ProtocolConfig(senders=2, receivers=2, blocks=4, seed=9))
        assert ordering_issues(tr) == []


class TestRefusals:
    def test_batched_secrets_are_refused(self):
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=6)
        batch = generate_secrets(cfg, Substream([1, 2]))
        with pytest.raises(ConfigError, match="secrets: alice1: expected one trial's strings"):
            run_protocol(cfg, secrets=batch)

    def test_shared_block_first_sender_needs_value_shares(self):
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=4, variant=Variant.BLOCK_SHARED)
        secrets = [PartySecrets(f"alice{i}", (0,) * 4, (0,) * 4) for i in (1, 2)]
        with pytest.raises(ConfigError, match="alice1: needs 12 value shares"):
            run_protocol(cfg, secrets=secrets)

    def test_blocks_of_the_wrong_size_are_refused(self):
        block = QubitBlock.encode(np.zeros(5, dtype=np.uint8), np.zeros(5, dtype=np.uint8))
        with pytest.raises(ConfigError, match="block has 5 qubits, expected 18"):
            encode_block(block, kv.secrets()[1], 2, kv.config())
        with pytest.raises(ConfigError, match="block has 5 qubits, expected 18"):
            split_for_receivers(block, kv.config())

    def test_combined_bases_needs_every_announcement(self):
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=4, enforce_ordering=False)
        run = Chunk(cfg.snapshot())
        announce_bases(run, 1, (0, 1) * 6, cfg)
        with pytest.raises(ProtocolStateError, match="not every sender"):
            combined_bases(run, cfg)
        announce_bases(run, 2, (1, 1, 0) * 4, cfg)
        assert combined_bases(run, cfg).tolist() == [[1, 0, 0, 0, 1, 1] * 2]

    @pytest.mark.parametrize("check_blocks", [(0, 0), (0, 6), (0,)])
    def test_injected_check_blocks_are_validated(self, check_blocks):
        with pytest.raises(ConfigError, match="check_blocks"):
            run_protocol(kv.config(), secrets=kv.secrets(), check_blocks=check_blocks)

    def test_no_raw_key_after_an_abort(self):
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=30, seed=5)
        tr = run_protocol(cfg, ChannelModel(adversary=InterceptResend()))
        assert tr.abort_reason is not None
        with pytest.raises(ProtocolStateError, match="after an abort"):
            extract_raw_key(tr, cfg, None)


class TestVariants:
    def test_block_basis_sizes_and_correctness(self):
        rng = random.Random(55)
        for _ in range(40):
            cfg = random_config(rng, variant=Variant.BLOCK_BASIS, max_blocks=16)
            tr = run_protocol(cfg)
            for s in tr._secrets:
                assert len(s.value_bits) == cfg.total_qubits
                assert len(s.basis_bits) == cfg.blocks
            assert tr.raw_key == tr.reference_key

    def test_shared_block_sizes_and_correctness(self):
        rng = random.Random(56)
        for _ in range(40):
            cfg = random_config(rng, variant=Variant.BLOCK_SHARED, max_blocks=16)
            tr = run_protocol(cfg)
            first = tr._secrets[0]
            assert len(first.value_bits) == cfg.blocks
            assert len(first.value_shares) == cfg.total_qubits
            for s in tr._secrets[1:]:
                assert len(s.value_bits) == cfg.blocks
                assert s.value_shares is None
            assert tr.raw_key == tr.reference_key

    def test_shared_block_shares_xor_to_the_value_bit(self):
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=8, variant=Variant.BLOCK_SHARED, seed=3)
        secrets = generate_secrets(cfg, Substream(3))
        first = secrets[0]
        for j in range(cfg.blocks):
            parity = 0
            for l in range(cfg.receivers):
                parity ^= first.value_shares[j * cfg.receivers + l]
            assert parity == first.value_bits[j]

    def test_shared_block_key_includes_every_sender(self):
        # With odd receivers the key bit is the XOR of all senders' block bits.
        cfg = ProtocolConfig(senders=3, receivers=3, blocks=10, variant=Variant.BLOCK_SHARED, seed=8)
        tr = run_protocol(cfg)
        for idx, j in enumerate(tr.key_blocks):
            want = 0
            for s in tr._secrets:
                want ^= s.value_bits[j]
            assert tr.raw_key[idx] == want

    def test_shared_block_even_receivers_collapses_to_first_sender(self):
        """Bypassing validation shows why even receiver counts are banned:
        the later senders' bits cancel and the key equals the first sender's."""
        cfg = ProtocolConfig(
            senders=3,
            receivers=4,
            blocks=12,
            variant=Variant.BLOCK_SHARED,
            seed=21,
            unsafe_skip_validation=True,
        )
        tr = run_protocol(cfg)
        first = tr._secrets[0]
        assert tr.raw_key == tuple(first.value_bits[j] for j in tr.key_blocks)


class TestChannelIntegration:
    def test_block_basis_variant_statistically_matches_main_under_noise(self):
        """Same noisy channel, same trial counts: the per-run error rates of
        the per-qubit and per-block basis layouts are draws from the same
        distribution (Welch two-sample test, significance 0.001)."""
        from scipy.stats import ttest_ind

        from mpqss import ChannelModel

        channel = ChannelModel(p_x=0.05)

        def qbers(variant, base_seed):
            rates = []
            for i in range(60):
                cfg = ProtocolConfig(
                    senders=2,
                    receivers=3,
                    blocks=300,
                    variant=variant,
                    qber_abort_threshold=0.3,
                    seed=base_seed + i,
                )
                rates.append(run_protocol(cfg, channel).qber)
            return rates

        main_rates = qbers(Variant.MAIN, 10_000)
        block_rates = qbers(Variant.BLOCK_BASIS, 20_000)
        result = ttest_ind(main_rates, block_rates, equal_var=False)
        assert result.pvalue > 0.001

    def test_removed_losses_drop_blocks_but_keep_the_key_consistent(self):
        from mpqss import ChannelModel

        cfg = ProtocolConfig(senders=2, receivers=3, blocks=200, seed=17)
        tr = run_protocol(cfg, ChannelModel(loss_prob=0.05))
        assert tr.abort_reason is None
        assert 0 < len(tr.key_blocks) < cfg.blocks - cfg.checked_block_count
        assert tr.raw_key == tr.reference_key  # survivors decode exactly
        loss_events = [ev for ev in tr.events if ev.kind == "loss"]
        assert loss_events, "removal losses must be announced"
        # Deletions are public before any basis announcement.
        first_bases = min(ev.seq for ev in tr.events if ev.kind == "bases")
        assert all(ev.seq < first_bases for ev in loss_events)
        assert tr.efficiency < 1.0

    def test_substituted_losses_show_up_as_errors_not_gaps(self):
        from mpqss import ChannelModel, LossStrategy

        cfg = ProtocolConfig(
            senders=2, receivers=3, blocks=8000, qber_abort_threshold=0.5, seed=18
        )
        ch = ChannelModel(loss_prob=0.2, loss_strategy=LossStrategy.SUBSTITUTE)
        tr = run_protocol(cfg, ch)
        assert not [ev for ev in tr.events if ev.kind == "loss"]
        assert tr.efficiency == 1.0  # nothing deleted, errors instead
        # Two hops at 20% loss, each substitution agreeing half the time:
        # disagreement = (1 - 0.8^2) / 2 = 0.18. 12,000 compared positions:
        # sigma = 0.0035, so +-0.02 is 5.7 sigma.
        assert abs(tr.qber - 0.18) <= 0.02


class TestCheckedMask:
    def test_checked_mask_is_every_transcripts_check_selection(self, monkeypatch):
        from mpqss import protocol
        from mpqss.planes import key_block_mask

        seen = []
        finalize = protocol._finalize_rates

        def spy(trs, cfg):
            seen.append(trs)
            finalize(trs, cfg)

        monkeypatch.setattr(protocol, "_finalize_rates", spy)
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=20, seed=0)
        channel = ChannelModel(adversary=InterceptResend(fraction=0.3))
        list(protocol.run_trials(cfg, channel, range(40)))
        [trs] = seen  # one chunk of 40 trials
        aborted = [t.abort_reason is not None for t in trs]
        assert any(aborted) and not all(aborted)
        assert trs.checked.shape == (40, cfg.blocks)
        for t, tr in enumerate(trs):
            [select] = [ev.payload for ev in tr.events if ev.kind == "check-select"]
            assert np.flatnonzero(trs.checked[t]).tolist() == [int(j) for j in select.split(",")]
            if not aborted[t]:
                usable = [trs.usable[t, :, c] for c in range(cfg.receivers)]
                assert tr.key_blocks == tuple(np.flatnonzero(key_block_mask(usable, trs.checked[t])))


class TestCheckResult:
    # Seeds 0-11 of a 2x2x8 chunk under 60% loss and 10% X noise: rows that
    # compare nothing (0/0), pass at the threshold's edge (1/3) and fail above it.
    SEEDS = range(12)
    THRESHOLD = 1 / 3

    def test_each_rows_check_result_states_its_tally_and_verdict(self):
        cfg = ProtocolConfig(2, 2, 8, qber_abort_threshold=self.THRESHOLD)
        [chunk] = run_chunks(cfg, ChannelModel(loss_prob=0.6, p_x=0.1), self.SEEDS)
        seen = set()
        for tr in chunk:
            [payload] = [ev.payload for ev in tr.events if ev.kind == "check-result"]
            fields = dict(item.split("=") for item in payload.split(";"))
            c, d = int(fields["compared"]), int(fields["disagree"])
            rate = d / c if c else 0.0
            verdict = rate <= self.THRESHOLD
            assert payload == (
                f"compared={c};disagree={d};rate={rate:.6f};"
                f"threshold={self.THRESHOLD:.6f};pass={int(verdict)}"
            )
            aborts = [ev.payload for ev in tr.events if ev.kind == "abort" and ev.party == "all"]
            assert aborts == ([] if verdict else ["error-rate"])
            seen.add("none" if c == 0 else "edge" if rate == self.THRESHOLD else verdict)
        assert seen == {"none", "edge", True, False}


class TestRates:
    # Chunks of 24 rows at 30% loss and 10% X noise with a threshold of 0.1,
    # so some rows abort, and the check drawn or fixed to 5 of the 10 blocks.
    @pytest.mark.parametrize("memory", [True, False])
    @pytest.mark.parametrize("check_blocks", [None, (0, 3, 4, 7, 9)])
    def test_efficiency_and_sift_rate_are_the_counts_of_the_readout_masks(self, memory, check_blocks):
        cfg = ProtocolConfig(2, 3, 10, quantum_memory=memory, qber_abort_threshold=0.1)
        chunk = _run_chunk(cfg, ChannelModel(loss_prob=0.3, p_x=0.1), list(range(24)), None, check_blocks)
        assert chunk.aborted.any() and not chunk.aborted.all() and chunk.lost.any()
        unchecked = ~chunk.checked
        kept = np.count_nonzero(chunk.usable & unchecked[:, :, None], axis=(1, 2))
        owed = np.count_nonzero(unchecked, axis=1) * cfg.receivers
        usable = np.count_nonzero(chunk.usable, axis=(1, 2))
        received = cfg.total_qubits - np.count_nonzero(chunk.lost, axis=(1, 2))
        assert chunk.efficiency.tolist() == [k / o if o else 0.0 for k, o in zip(kept.tolist(), owed.tolist())]
        assert chunk.sift_rate.tolist() == [u / r if r else 0.0 for u, r in zip(usable.tolist(), received.tolist())]
        if check_blocks is not None:
            assert chunk.checked[:, list(check_blocks)].all() and np.count_nonzero(chunk.checked) == 5 * 24


class TestStateErrors:
    def test_raw_key_before_check_is_a_state_error(self):
        cfg = ProtocolConfig(senders=2, receivers=2, blocks=4)
        tr = Transcript(cfg.snapshot())
        with pytest.raises(ProtocolStateError):
            extract_raw_key(tr, cfg, np.zeros((2, 8), dtype=np.uint8))

    @pytest.mark.parametrize(
        "phase",
        [
            lambda tr, cfg: announce_bases(tr, 1, (0, 1) * 27, cfg),
            lambda tr, cfg: combined_bases(tr, cfg),
            lambda tr, cfg: run_check(tr, cfg, np.zeros((2, 1, 54), dtype=np.uint8), Substream([1])),
            lambda tr, cfg: extract_raw_key(tr, cfg, np.zeros((2, 1, 54), dtype=np.uint8)),
        ],
        ids=["announce_bases", "combined_bases", "run_check", "extract_raw_key"],
    )
    def test_phases_refuse_a_finished_row(self, phase):
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=18, seed=3)
        tr = run_protocol(cfg)
        assert tr.abort_reason is None
        with pytest.raises(ProtocolStateError, match="of a transcript, not of its chunk"):
            phase(tr, cfg)

    def test_announcement_on_a_bare_row_without_enforcement_is_refused(self):
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=4, enforce_ordering=False)
        with pytest.raises(ProtocolStateError, match="of a transcript, not of its chunk"):
            announce_bases(Transcript(cfg.snapshot()), 1, (0, 1) * 6, cfg)

    def test_check_before_measurement_is_a_state_error(self):
        cfg = ProtocolConfig(senders=2, receivers=2, blocks=4)
        with pytest.raises(ProtocolStateError, match="measured"):
            run_check(Chunk(cfg.snapshot()), cfg, np.zeros((2, 1, 8), dtype=np.uint8), Substream([1]))

    def test_encode_rejects_bad_sender_index(self):
        cfg = kv.config()
        block = prepare_block(kv.secrets()[0], cfg)
        with pytest.raises(ConfigError):
            encode_block(block, kv.secrets()[1], 1, cfg)

    def test_run_rejects_wrong_secret_count(self):
        with pytest.raises(ConfigError, match="secrets"):
            run_protocol(kv.config(), secrets=[kv.secrets()[0]])

    def test_run_rejects_a_string_of_the_wrong_size(self):
        first, second = kv.secrets()
        for secrets, party in [
            ([PartySecrets("alice1", first.value_bits[:-1], first.basis_bits), second], "alice1"),
            ([first, PartySecrets("alice2", second.value_bits, second.basis_bits[:-1])], "alice2"),
        ]:
            for channel in (None, ChannelModel(adversary=PreparerInsider())):
                with pytest.raises(ConfigError, match=f"secrets: {party}: expected 18 value bits"):
                    run_protocol(kv.config(), channel, secrets=secrets)
