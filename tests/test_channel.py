"""Channel noise, loss handling, and every adversary behaviour."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

import known_vectors as kv
from mpqss import (
    ChannelModel,
    ColluderInsider,
    ConfigError,
    InterceptResend,
    LossStrategy,
    OrderingAttack,
    PartySecrets,
    PreparerInsider,
    ProtocolConfig,
    Qubit,
    encode,
    intercept_resend,
    measure,
    ordering_attack,
    position,
    preparer_attack,
    recovered_raw_key,
    replay,
    run_protocol,
    transmit,
)


def random_block(rng, count):
    values = [rng.getrandbits(1) for _ in range(count)]
    bases = [rng.getrandbits(1) for _ in range(count)]
    return values, bases, kv.from_qubits([encode(v, b) for v, b in zip(values, bases)])


class TestChannelModel:
    def test_probability_validation(self):
        with pytest.raises(ConfigError, match="loss_prob"):
            ChannelModel(loss_prob=1.5).validate()
        with pytest.raises(ConfigError, match="p_x"):
            ChannelModel(p_x=0.6, p_y=0.3, p_z=0.3).validate()
        ChannelModel(p_x=0.5, p_y=0.25, p_z=0.25).validate()

    def test_ideal_channel_is_identity(self):
        rng = random.Random(0)
        _, _, block = random_block(rng, 500)
        res = transmit(block, ChannelModel(), rng)
        assert res.block.qubits == block.qubits
        assert len(res.lost) == 0
        assert res.intercept is None

    def test_certain_x_noise_flips_every_z_basis_value(self):
        rng = random.Random(1)
        qubits = [Qubit(k % 2, 0) for k in range(100)]
        res = transmit(kv.from_qubits(qubits), ChannelModel(p_x=1.0), rng)
        assert all(out.value == q.value ^ 1 for out, q in zip(res.block.qubits, qubits))
        # In the swapped basis the flip is pure phase and drops out.
        plus = [Qubit(k % 2, 1) for k in range(100)]
        res = transmit(kv.from_qubits(plus), ChannelModel(p_x=1.0), rng)
        assert res.block.qubits == plus

    def test_certain_y_and_z_noise_and_noise_on_survivors_only(self):
        rng = random.Random(9)
        qubits = [Qubit(k % 2, (k // 2) % 2) for k in range(100)]
        block = kv.from_qubits(qubits)
        # Y flips the value in both bases; Z only in the X basis.
        res = transmit(block, ChannelModel(p_y=1.0), rng)
        assert res.block.qubits == [Qubit(q.value ^ 1, q.basis) for q in qubits]
        res = transmit(block, ChannelModel(p_z=1.0), rng)
        assert res.block.qubits == [Qubit(q.value ^ q.basis, q.basis) for q in qubits]
        # With loss and certain X noise, every survivor is flipped in the Z basis.
        res = transmit(block, ChannelModel(loss_prob=0.5, p_x=1.0), rng)
        out = res.block.qubits
        assert 0 < len(res.lost) < 100
        for k, (q, after) in enumerate(zip(qubits, out)):
            if k in res.lost:
                assert after is None
            else:
                assert after == Qubit(q.value ^ (1 - q.basis), q.basis)
        # Noise rates hold among survivors: half of them flip at p_x = 0.5.
        zeros = kv.from_qubits([Qubit(0, 0)] * 10_000)
        res = transmit(zeros, ChannelModel(loss_prob=0.5, p_x=0.5), rng)
        survivors = [q for q in res.block.qubits if q is not None]
        assert abs(sum(q.value for q in survivors) / len(survivors) - 0.5) <= 0.03

    def test_removal_loss_fraction_matches_binomial_oracle(self):
        rng = random.Random(2)
        _, _, block = random_block(rng, 10_000)
        res = transmit(block, ChannelModel(loss_prob=0.1), rng)
        lost = len(res.lost)
        assert abs(lost / 10_000 - 0.1) <= 0.01
        assert binomtest(lost, 10_000, 0.1).pvalue >= 0.001
        out = res.block.qubits
        assert all(out[k] is None for k in res.lost)
        assert sum(q is None for q in out) == lost

    def test_substitution_disagrees_half_the_time_it_fires(self):
        # A substituted random state agrees with the original value on a
        # matched-basis readout with probability 1/2, so the disagreement
        # rate is loss_prob / 2.
        rng = random.Random(3)
        loss = 0.2
        values, bases, block = random_block(rng, 10_000)
        res = transmit(
            block, ChannelModel(loss_prob=loss, loss_strategy=LossStrategy.SUBSTITUTE), rng
        )
        assert all(q is not None for q in res.block.qubits)
        disagree = sum(
            1
            for v, b, q in zip(values, bases, res.block.qubits)
            if measure(q, b, rng) != v
        )
        assert abs(disagree / 10_000 - loss / 2) <= 0.02

    def test_dead_positions_pass_through(self):
        rng = random.Random(4)
        block = kv.from_qubits([None, Qubit(0, 0)])
        res = transmit(block, ChannelModel(), rng)
        assert res.block.qubits == [None, Qubit(0, 0)]
        # A dead position is not lost a second time.
        res = transmit(block, ChannelModel(loss_prob=0.5, p_x=1.0), rng)
        assert res.block.qubits[0] is None and 0 not in res.lost


class TestInterceptResend:
    def test_correct_basis_guess_leaves_state_intact_and_leaks_the_bit(self):
        rng = random.Random(5)
        q = Qubit(1, 0)
        for _ in range(200):
            out, rec = intercept_resend(kv.from_qubits([q]), rng)
            (pos,) = rec.positions
            if rec.bases[0] == q.basis:
                assert out.qubits[0] == q
                assert rec.bits[0] == q.value
                assert rec.certain[0]

    def test_disturbance_rate_in_the_honest_basis_is_one_quarter(self):
        # Oracle: wrong basis guess (1/2) times a flip on the honest readout (1/2).
        rng = random.Random(6)
        values, bases, block = random_block(rng, 10_000)
        out, _ = intercept_resend(block, rng)
        flipped = sum(
            1
            for v, b, q in zip(values, bases, out.qubits)
            if measure(q, b, rng) != v
        )
        assert abs(flipped / 10_000 - 0.25) <= 0.02

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
    def test_partial_interception_scales_disturbance_by_f(self, fraction):
        rng = random.Random(int(fraction * 100))
        values, bases, block = random_block(rng, 10_000)
        out, rec = intercept_resend(block, rng, fraction=fraction)
        flipped = sum(
            1
            for v, b, q in zip(values, bases, out.qubits)
            if measure(q, b, rng) != v
        )
        assert abs(flipped / 10_000 - fraction / 4) <= 0.02
        assert abs(len(rec.positions) / 10_000 - fraction) <= 0.02

    def test_detection_probability_across_revealed_positions(self):
        """P(detect) = 1 - (3/4)^c for c compared positions; per-bit independence."""
        rng = random.Random(7)
        c = 20
        detected = 0
        trials = 1000
        for _ in range(trials):
            values, bases, block = random_block(rng, c)
            out, _ = intercept_resend(block, rng)
            if any(measure(q, b, rng) != v for v, b, q in zip(values, bases, out.qubits)):
                detected += 1
        assert abs(detected / trials - (1 - 0.75**c)) <= 0.02

    def test_wrong_basis_outcome_carries_no_information(self):
        # Empirical mutual information between the hidden value and a
        # mismatched-basis readout stays at noise level.
        rng = random.Random(8)
        counts = {(v, o): 0 for v in (0, 1) for o in (0, 1)}
        trials = 10_000
        for _ in range(trials):
            v = rng.getrandbits(1)
            q = encode(v, 0)
            counts[(v, measure(q, 1, rng))] += 1
        mi = 0.0
        for (v, o), c in counts.items():
            if c == 0:
                continue
            pxy = c / trials
            px = (counts[(v, 0)] + counts[(v, 1)]) / trials
            py = (counts[(0, o)] + counts[(1, o)]) / trials
            mi += pxy * math.log2(pxy / (px * py))
        assert mi < 0.01

    def test_full_protocol_interception_raises_qber_to_one_quarter(self):
        cfg = ProtocolConfig(senders=2, receivers=4, blocks=1250, seed=99)
        tr = run_protocol(cfg, ChannelModel(adversary=InterceptResend()))
        assert abs(tr.qber - 0.25) <= 0.02
        assert tr.abort_reason is not None  # far beyond the 0.11 threshold
        assert tr.adversary is not None and tr.adversary.kind == "intercept-resend"


def mismatch_oracle(p_basis_known: float) -> float:
    """Best-guess accuracy when the measurement basis matches with this probability.

    Matched positions decode exactly; mismatched ones come out uniform.
    """
    return p_basis_known * 1.0 + (1 - p_basis_known) * 0.5


class TestPreparerInsider:
    def attack_run(self, omit: bool, seed: int, blocks=6):
        omitted = frozenset({2}) if omit else frozenset()
        cfg = ProtocolConfig(
            senders=2, receivers=3, blocks=blocks, seed=seed, omit_hadamard=omitted
        )
        return run_protocol(cfg, ChannelModel(adversary=PreparerInsider())), cfg

    def test_with_basis_mixing_omitted_recovery_is_exact(self):
        for seed in range(50):
            tr, cfg = self.attack_run(omit=True, seed=seed)
            rec = tr.adversary
            truth = [s for s in tr._secrets if s.party == "alice2"][0].value_bits
            assert all(rec.certain)
            assert all(b == truth[p] for p, b in zip(rec.positions, rec.bits))
            # Matched-basis interception never disturbs: the run still passes.
            assert tr.abort_reason is None and tr.qber == 0.0

    def test_with_basis_mixing_applied_the_attack_fails(self):
        certain_hits = guess_hits = total = 0
        for seed in range(300):
            tr, cfg = self.attack_run(omit=False, seed=seed)
            rec = tr.adversary
            truth = [s for s in tr._secrets if s.party == "alice2"][0].value_bits
            for p, b, ok in zip(rec.positions, rec.bits, rec.certain):
                total += 1
                guess_hits += b == truth[p]
                certain_hits += ok and b == truth[p]
        # Half the positions were measured in a provably wrong basis: the
        # certainly-recovered fraction drops to 1/2, and even counting lucky
        # coin flips the best guess only reaches the mismatch oracle's 3/4.
        assert abs(certain_hits / total - 0.5) <= 0.02
        assert abs(guess_hits / total - mismatch_oracle(0.5)) <= 0.02

    def test_known_vectors_with_mixing_disabled_recover_exactly(self):
        cfg = kv.config(omit_hadamard=frozenset({2}))
        s1 = PartySecrets("alice1", kv.VALUES_1, kv.BASES_1)
        s2 = PartySecrets("alice2", kv.VALUES_2, (0,) * 18)  # mixing step skipped
        rng = random.Random(0)
        from mpqss import encode_block, prepare_block

        block = encode_block(prepare_block(s1, cfg), s2, 2, cfg)
        result, resent = preparer_attack(kv.VALUES_1, kv.BASES_1, block, rng)
        assert tuple(result.bits.tolist()) == kv.VALUES_2
        assert all(result.certain)
        assert resent.qubits == block.qubits  # interception left no trace


class TestColluderInsider:
    def attack_run(self, *, omit: bool, seed: int, withheld=frozenset(), senders=3, target=3):
        omitted = frozenset({target}) if omit else frozenset()
        cfg = ProtocolConfig(
            senders=senders, receivers=3, blocks=6, seed=seed, omit_hadamard=omitted
        )
        adversary = ColluderInsider(target=target, withheld_bases=withheld)
        return run_protocol(cfg, ChannelModel(adversary=adversary)), cfg

    def test_full_cooperation_reads_the_target_exactly(self):
        for seed in range(50):
            tr, cfg = self.attack_run(omit=True, seed=seed)
            rec = tr.adversary
            truth = [s for s in tr._secrets if s.party == "alice3"][0].value_bits
            assert all(rec.certain)
            assert all(b == truth[p] for p, b in zip(rec.positions, rec.bits))
            assert tr.abort_reason is None  # undetectable without basis mixing

    def test_basis_mixing_defeats_the_collusion(self):
        certain_hits = total = 0
        for seed in range(300):
            tr, cfg = self.attack_run(omit=False, seed=seed)
            rec = tr.adversary
            truth = [s for s in tr._secrets if s.party == "alice3"][0].value_bits
            for p, b, ok in zip(rec.positions, rec.bits, rec.certain):
                total += 1
                certain_hits += ok and b == truth[p]
        assert abs(certain_hits / total - 0.5) <= 0.02

    def test_one_withheld_basis_string_costs_a_quarter(self):
        # One colluder keeps her basis string back: half the positions get
        # measured in the wrong basis, so best-guess accuracy sits at 3/4.
        guess_hits = total = 0
        for seed in range(300):
            tr, cfg = self.attack_run(omit=True, seed=seed, withheld=frozenset({1}))
            rec = tr.adversary
            truth = [s for s in tr._secrets if s.party == "alice3"][0].value_bits
            for p, b in zip(rec.positions, rec.bits):
                total += 1
                guess_hits += b == truth[p]
        assert abs(guess_hits / total - mismatch_oracle(0.5)) <= 0.02

    def test_missing_a_whole_colluder_degrades_toward_chance(self):
        guess_hits = total = 0
        for seed in range(300):
            cfg = ProtocolConfig(
                senders=4, receivers=3, blocks=6, seed=seed, omit_hadamard=frozenset({4})
            )
            adversary = ColluderInsider(target=4, colluders=frozenset({2, 3}))
            tr = run_protocol(cfg, ChannelModel(adversary=adversary))
            truth = [s for s in tr._secrets if s.party == "alice4"][0].value_bits
            rec = tr.adversary
            for p, b in zip(rec.positions, rec.bits):
                total += 1
                guess_hits += b == truth[p]
        # The absent colluder's value bits shift half the estimates and her
        # basis bits scramble half the measurements: 1/2 * 3/4 + 1/2 * 1/4... = 1/2.
        assert abs(guess_hits / total - 0.5) <= 0.02

    def test_interception_mid_chain_with_downstream_senders(self):
        # Target below the last sender: the block is read on an inner hop and
        # the remaining senders keep encoding on the resent qubits.
        for seed in range(40):
            cfg = ProtocolConfig(
                senders=4, receivers=3, blocks=4, seed=seed, omit_hadamard=frozenset({3})
            )
            tr = run_protocol(cfg, ChannelModel(adversary=ColluderInsider(target=3)))
            truth = tr._secrets[2].value_bits
            rec = tr.adversary
            assert all(ok and b == truth[p] for p, b, ok in zip(rec.positions, rec.bits, rec.certain))
            assert tr.abort_reason is None and tr.raw_key == tr.reference_key

    def test_validation(self):
        with pytest.raises(ConfigError, match="target"):
            ColluderInsider(target=2).validate()
        with pytest.raises(ConfigError, match="colluders"):
            ColluderInsider(target=3, colluders=frozenset({3})).validate()
        with pytest.raises(ConfigError, match="withheld"):
            ColluderInsider(
                target=4, colluders=frozenset({1}), withheld_bases=frozenset({2})
            ).validate()
        # Without colluders given, every sender below the target colludes.
        assert ColluderInsider(target=4).pool == range(1, 4)
        ColluderInsider(target=4, withheld_bases=frozenset({1, 3})).validate()
        for outside in (0, 4, 7):
            with pytest.raises(ConfigError, match="withheld_bases"):
                ColluderInsider(target=4, withheld_bases=frozenset({outside})).validate()
        with pytest.raises(ConfigError, match="target"):
            run_protocol(
                ProtocolConfig(senders=3, receivers=3, blocks=4),
                ChannelModel(adversary=ColluderInsider(target=4)),
            )


class TestOrderingAttack:
    def test_enforcement_on_rejects_the_early_announcement(self):
        cfg = ProtocolConfig(senders=2, receivers=3, blocks=6, seed=11)
        tr = run_protocol(cfg, ChannelModel(adversary=OrderingAttack()))
        assert tr.abort_reason is not None and "ordering" in tr.abort_reason
        assert tr.raw_key is None
        assert tr.adversary is None  # interception never became reachable

    def test_an_ordering_abort_measures_nothing_and_leaves_its_rates_unset(self):
        cfg = ProtocolConfig(senders=3, receivers=3, blocks=6, seed=12)
        tr = run_protocol(cfg, ChannelModel(loss_prob=0.2, adversary=OrderingAttack()))
        assert tr.abort_reason.startswith("ordering violation")
        assert not [ev for ev in tr.events if ev.kind in ("ack", "bases", "measured")]
        assert tr.efficiency is None and tr.sift_rate is None

    def test_enforcement_off_hands_over_the_full_raw_key(self):
        for seed in range(25):
            cfg = ProtocolConfig(
                senders=3, receivers=3, blocks=8, seed=seed, enforce_ordering=False
            )
            tr = run_protocol(cfg, ChannelModel(adversary=OrderingAttack()))
            assert tr.abort_reason is None
            issues = replay(tr.serialize()).issues
            assert "ordering: a basis announcement precedes a reception acknowledgment" in issues
            assert tr.qber == 0.0  # matched-basis interception is invisible
            rec = tr.adversary
            assert all(rec.certain)
            recovered = recovered_raw_key(rec.bits, rec.positions, tr.key_blocks, cfg)
            assert recovered == tr.raw_key

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 12), st.data())
    def test_recovered_key_matches_the_per_block_reference(self, receivers, blocks, data):
        cfg = ProtocolConfig(senders=2, receivers=receivers, blocks=blocks)
        positions = sorted(data.draw(st.sets(st.integers(0, cfg.total_qubits - 1))))
        bits = data.draw(st.lists(st.integers(0, 1), min_size=len(positions), max_size=len(positions)))
        key_blocks = sorted(data.draw(st.sets(st.integers(0, blocks - 1))))
        # Reference: each key block's readings XOR-ed one receiver at a time, 0 where unread.
        by_pos = dict(zip(positions, bits))
        want = []
        for j in key_blocks:
            bit = 0
            for l in range(1, receivers + 1):
                bit ^= by_pos.get(position(j, l, receivers), 0)
            want.append(bit)
        assert recovered_raw_key(tuple(bits), tuple(positions), tuple(key_blocks), cfg) == tuple(want)

    def test_withholding_the_strings_blinds_the_interceptor(self):
        certain = total = 0
        for seed in range(60):
            cfg = ProtocolConfig(senders=2, receivers=3, blocks=60, seed=seed)
            tr = run_protocol(
                cfg, ChannelModel(adversary=OrderingAttack(use_announced_bases=False))
            )
            rec = tr.adversary
            certain += sum(rec.certain)
            total += len(rec.certain)
        # Guessed bases match only half the time; nothing else is recoverable
        # with certainty.
        assert abs(certain / total - 0.5) <= 0.02

    def test_standalone_attack_function(self):
        rng = random.Random(12)
        values, bases, block = random_block(rng, 600)
        result, resent = ordering_attack([bases], block, rng)
        assert result.bits.tolist() == values
        assert all(result.certain)
        assert resent.qubits == block.qubits
