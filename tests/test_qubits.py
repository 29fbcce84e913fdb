"""Qubit algebra checks against an independent amplitude-level oracle."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import binomtest

from mpqss import Pauli, Qubit, apply_hadamard, apply_pauli, apply_value_flip, encode, measure

from amplitude_oracle import (
    AMPLITUDES,
    HADAMARD,
    PAULI,
    VALUE_FLIP,
    equal_up_to_phase,
    outcome_probabilities,
)

ALL_STATES = [Qubit(v, b) for v in (0, 1) for b in (0, 1)]


def test_encode_matches_state_table():
    assert encode(0, 0).ket() == "|0>"
    assert encode(1, 0).ket() == "|1>"
    assert encode(0, 1).ket() == "|+>"
    assert encode(1, 1).ket() == "|->"


def test_encode_rejects_non_bits():
    with pytest.raises(ValueError):
        encode(2, 0)
    with pytest.raises(ValueError):
        encode(0, -1)


@pytest.mark.parametrize("q", ALL_STATES)
def test_value_flip_matches_amplitude_oracle(q):
    got = apply_value_flip(q)
    expected = VALUE_FLIP @ AMPLITUDES[(q.value, q.basis)]
    assert equal_up_to_phase(AMPLITUDES[(got.value, got.basis)], expected)


@pytest.mark.parametrize("q", ALL_STATES)
def test_hadamard_matches_amplitude_oracle(q):
    got = apply_hadamard(q)
    expected = HADAMARD @ AMPLITUDES[(q.value, q.basis)]
    assert equal_up_to_phase(AMPLITUDES[(got.value, got.basis)], expected)


@pytest.mark.parametrize("q", ALL_STATES)
@pytest.mark.parametrize("p", list(Pauli))
def test_pauli_action_matches_amplitude_oracle(q, p):
    got = apply_pauli(q, p)
    expected = PAULI[p.name] @ AMPLITUDES[(q.value, q.basis)]
    assert equal_up_to_phase(AMPLITUDES[(got.value, got.basis)], expected)


def test_value_flip_specific_transitions():
    assert apply_value_flip(Qubit(0, 0)) == Qubit(1, 0)  # |0> -> |1>, sign dropped
    assert apply_value_flip(Qubit(0, 1)) == Qubit(1, 1)  # |+> -> |->


def test_hadamard_specific_transitions():
    assert apply_hadamard(Qubit(0, 0)) == Qubit(0, 1)  # |0> -> |+>
    assert apply_hadamard(Qubit(1, 1)) == Qubit(1, 0)  # |-> -> |1>


def test_pauli_specific_transitions():
    assert apply_pauli(Qubit(0, 0), Pauli.X) == Qubit(1, 0)
    assert apply_pauli(Qubit(1, 1), Pauli.X) == Qubit(1, 1)  # X|-> = -|->
    assert apply_pauli(Qubit(0, 1), Pauli.Z) == Qubit(1, 1)  # Z|+> = |->


@pytest.mark.parametrize("q", ALL_STATES)
def test_involutions(q):
    assert apply_value_flip(apply_value_flip(q)) == q
    assert apply_hadamard(apply_hadamard(q)) == q


def test_pauli_composition_is_klein_four():
    # Product modulo phase is the XOR of the (x, z) bits: X*Z = Y and every element squares to I.
    for p, r in itertools.product(Pauli, repeat=2):
        composed = Pauli((p.value[0] ^ r.value[0], p.value[1] ^ r.value[1]))
        for q in ALL_STATES:
            assert apply_pauli(apply_pauli(q, r), p) == apply_pauli(q, composed)


def test_four_state_family_closed_under_all_operations():
    ops = [apply_value_flip, apply_hadamard] + [
        lambda q, p=p: apply_pauli(q, p) for p in Pauli
    ]
    for q in ALL_STATES:
        for op in ops:
            out = op(q)
            assert isinstance(out, Qubit)
            assert (out.value, out.basis) in AMPLITUDES


def test_flip_then_swap_sequences_reduce_to_xor():
    """Alternating flip/swap rounds act as XOR on the index bits.

    Exhaustive: all 4 initial states, every (flip, swap) word up to eight
    rounds, walked as a tree so each prefix is asserted exactly once.
    """
    for q0 in ALL_STATES:
        # stack entries: (state after the word so far, value xor, basis xor, depth)
        stack = [(q0, 0, 0, 0)]
        visited = 0
        while stack:
            q, acc_v, acc_b, depth = stack.pop()
            assert q == Qubit(q0.value ^ acc_v, q0.basis ^ acc_b)
            visited += 1
            if depth == 8:
                continue
            for step in (0, 1, 2, 3):
                s, h = step & 1, step >> 1
                nq = apply_value_flip(q) if s else q
                nq = apply_hadamard(nq) if h else nq
                stack.append((nq, acc_v ^ s, acc_b ^ h, depth + 1))
        assert visited == sum(4**k for k in range(9))


def test_flip_swap_words_match_amplitude_oracle():
    # Composition cross-check at the amplitude level for every word up to
    # length four; longer words reduce to these by the XOR property above.
    for q0 in ALL_STATES:
        for length in range(1, 5):
            for word in itertools.product((0, 1, 2, 3), repeat=length):
                q = q0
                amp = AMPLITUDES[(q0.value, q0.basis)]
                for step in word:
                    if step & 1:
                        q = apply_value_flip(q)
                        amp = VALUE_FLIP @ amp
                    if step >> 1:
                        q = apply_hadamard(q)
                        amp = HADAMARD @ amp
                assert equal_up_to_phase(AMPLITUDES[(q.value, q.basis)], amp)


@given(
    st.integers(0, 1),
    st.integers(0, 1),
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=32),
)
def test_flip_swap_xor_property(value, basis, steps):
    q = Qubit(value, basis)
    acc_v = acc_b = 0
    for s, h in steps:
        if s:
            q = apply_value_flip(q)
        if h:
            q = apply_hadamard(q)
        acc_v ^= s
        acc_b ^= h
    assert q == Qubit(value ^ acc_v, basis ^ acc_b)


@pytest.mark.parametrize("q", ALL_STATES)
def test_matched_basis_measurement_is_deterministic(q):
    rng = random.Random(1)
    outcomes = {measure(q, q.basis, rng) for _ in range(64)}
    assert outcomes == {q.value}
    p0, p1 = outcome_probabilities(AMPLITUDES[(q.value, q.basis)], q.basis)
    assert (p0, p1) == pytest.approx((1.0, 0.0) if q.value == 0 else (0.0, 1.0))


def test_specific_measurement_examples():
    rng = random.Random(2)
    assert all(measure(Qubit(1, 0), 0, rng) == 1 for _ in range(16))
    assert all(measure(Qubit(0, 0), 0, rng) == 0 for _ in range(16))


@pytest.mark.parametrize("q", ALL_STATES)
def test_mismatched_basis_measurement_is_fair(q):
    # Born-rule oracle: the overlap of any state with either cross-basis
    # outcome is exactly one half.
    other = q.basis ^ 1
    p0, p1 = outcome_probabilities(AMPLITUDES[(q.value, q.basis)], other)
    assert p0 == pytest.approx(0.5) and p1 == pytest.approx(0.5)

    # 20,000 trials: sigma = 0.0035, so +-0.02 is 5.7 sigma. The binomial
    # test refuses with probability 0.001 at any count.
    rng = random.Random(20240 + q.value * 2 + q.basis)
    trials = 20_000
    ones = sum(measure(q, other, rng) for _ in range(trials))
    assert abs(ones / trials - 0.5) <= 0.02
    assert binomtest(ones, trials, 0.5).pvalue >= 0.001


def test_measurement_rejects_bad_basis():
    with pytest.raises(ValueError):
        measure(Qubit(0, 0), 2, random.Random(0))
