"""The bit-plane kernels against the per-qubit algebra, position by position.

Each kernel gets the same masks, bases and coins as the ``qubits`` functions
it vectorises; a coin is handed to ``qubits.measure`` through a stand-in
generator that returns it, so matched and mismatched readouts compare exactly.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import known_vectors as kv
from mpqss import (
    ChannelModel,
    ColluderInsider,
    Pauli,
    PreparerInsider,
    ProtocolConfig,
    Qubit,
    Variant,
    apply_hadamard,
    apply_pauli,
    apply_value_flip,
    collusion_attack,
    encode,
    encode_block,
    generate_secrets,
    measure,
    preparer_attack,
    prepare_block,
    run_protocol,
    split_for_receivers,
)
from mpqss.planes import UNUSABLE, as_plane, check_tally, combined_basis, key_block_mask, random_bits

bit = st.integers(0, 1)
qubit_or_lost = st.one_of(st.none(), st.builds(Qubit, bit, bit))
blocks = st.lists(qubit_or_lost, min_size=1, max_size=48)


class FixedCoin:
    """Stands in for the generator ``qubits.measure`` draws a mismatched outcome from."""

    def __init__(self, coin):
        self.coin = int(coin)

    def getrandbits(self, k):
        return self.coin


def draw_plane(data, size, dtype=np.uint8):
    return np.array(data.draw(st.lists(bit, min_size=size, max_size=size)), dtype=dtype)


@given(blocks, st.data())
def test_xor_is_value_flip_then_hadamard(qubits, data):
    flips = draw_plane(data, len(qubits))
    swaps = draw_plane(data, len(qubits))
    want = []
    for q, f, h in zip(qubits, flips, swaps):
        if q is not None:
            if f:
                q = apply_value_flip(q)
            if h:
                q = apply_hadamard(q)
        want.append(q)
    assert kv.from_qubits(qubits).xor(flips, swaps).qubits == want


@given(blocks, st.data())
def test_pauli_is_apply_pauli(qubits, data):
    paulis = data.draw(st.lists(st.sampled_from(list(Pauli)), min_size=len(qubits), max_size=len(qubits)))
    x = np.array([p.value[0] for p in paulis], dtype=bool)
    z = np.array([p.value[1] for p in paulis], dtype=bool)
    want = [None if q is None else apply_pauli(q, p) for q, p in zip(qubits, paulis)]
    assert kv.from_qubits(qubits).pauli(x, z).qubits == want


@given(blocks, st.data())
def test_loss_by_removal_and_by_substitution(qubits, data):
    size = len(qubits)
    mask = draw_plane(data, size, bool)
    values = draw_plane(data, size)
    bases = draw_plane(data, size)
    block = kv.from_qubits(qubits)

    removed = [None if q is None or gone else q for q, gone in zip(qubits, mask)]
    assert block.drop(mask).qubits == removed

    substituted = [
        q if q is None or not hit else encode(int(v), int(b))
        for q, hit, v, b in zip(qubits, mask, values, bases)
    ]
    assert block.substitute(mask, values, bases).qubits == substituted


@given(blocks, st.data())
def test_measure_is_qubits_measure(qubits, data):
    bases = draw_plane(data, len(qubits))
    coins = draw_plane(data, len(qubits))
    got = kv.from_qubits(qubits).measure(bases, coins)
    for k, q in enumerate(qubits):
        if q is not None:
            assert got[k] == measure(q, int(bases[k]), FixedCoin(coins[k]))


@pytest.mark.parametrize(
    "q, basis, coin",
    itertools.product([Qubit(v, b) for v in (0, 1) for b in (0, 1)], (0, 1), (0, 1)),
)
def test_matched_and_mismatched_measurement_exhaustive(q, basis, coin):
    got = kv.from_qubits([q]).measure(np.array([basis]), np.array([coin]))[0]
    assert got == measure(q, basis, FixedCoin(coin))
    assert got == (q.value if basis == q.basis else coin)


@given(blocks, st.data())
def test_collapse_is_measure_then_reencode(qubits, data):
    size = len(qubits)
    mask = draw_plane(data, size, bool)
    bases = draw_plane(data, size)
    coins = draw_plane(data, size)
    outcome, resent = kv.from_qubits(qubits).collapse(mask, bases, coins)
    after = resent.qubits
    for k, q in enumerate(qubits):
        if q is None:
            assert after[k] is None
            continue
        reading = measure(q, int(bases[k]), FixedCoin(coins[k]))
        assert outcome[k] == reading
        assert after[k] == (encode(reading, int(bases[k])) if mask[k] else q)


def insider_reference(qubits, plan, strip, coins):
    """(bits, certain, resent) of measuring every live position in ``plan``."""
    bits, certain, resent = [], [], []
    for q, b, s, c in zip(qubits, plan, strip, coins):
        if q is None:
            resent.append(None)
            continue
        reading = measure(q, int(b), FixedCoin(c))
        bits.append(reading ^ int(s))
        certain.append(q.basis == b)
        resent.append(encode(reading, int(b)))
    return bits, certain, resent


@given(blocks, st.data(), st.integers(0, 2**32))
def test_insider_collapses_match_per_qubit_readout(qubits, data, seed):
    size = len(qubits)
    block = kv.from_qubits(qubits)
    # An insider draws exactly one coin per position from the generator.
    coins = random_bits(random.Random(seed), size)
    live = [k for k, q in enumerate(qubits) if q is not None]

    prep_values, prep_bases = draw_plane(data, size), draw_plane(data, size)
    result, resent = preparer_attack(prep_values, prep_bases, block, random.Random(seed))
    bits, certain, want = insider_reference(qubits, prep_bases, prep_values, coins)
    assert result.positions.tolist() == live
    assert result.bases.tolist() == prep_bases[live].tolist()
    assert result.bits.tolist() == bits and result.certain.tolist() == certain
    assert resent.qubits == want

    known_values = {1: draw_plane(data, size), 2: draw_plane(data, size)}
    known_bases = {1: draw_plane(data, size)}  # sender 2 withholds her basis string
    result, resent = collusion_attack(known_values, known_bases, block, random.Random(seed))
    bits, certain, want = insider_reference(
        qubits, known_bases[1], known_values[1] ^ known_values[2], coins
    )
    assert result.bits.tolist() == bits and result.certain.tolist() == certain
    assert resent.qubits == want


def governing_bits(secrets, k, cfg, first):
    """Sender's (value, basis) bit at position k, expanded by hand per variant."""
    j = k // cfg.receivers
    if cfg.variant is Variant.MAIN:
        return secrets.value_bits[k], secrets.basis_bits[k]
    if cfg.variant is Variant.BLOCK_BASIS:
        return secrets.value_bits[k], secrets.basis_bits[j]
    value = secrets.value_shares[k] if first else secrets.value_bits[j]
    return value, secrets.basis_bits[j]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(list(Variant)),
    st.integers(2, 4),
    st.sampled_from([3, 5]),
    st.integers(2, 6),
    st.integers(0, 2**32),
)
def test_sender_chain_matches_per_qubit_path(variant, senders, receivers, blocks_, seed):
    cfg = ProtocolConfig(senders, receivers, blocks_, variant=variant, seed=seed)
    secrets = generate_secrets(cfg, random.Random(seed))
    block = prepare_block(secrets[0], cfg)
    for i in range(2, senders + 1):
        block = encode_block(block, secrets[i - 1], i, cfg)

    want = []
    for k in range(cfg.total_qubits):
        q = encode(*governing_bits(secrets[0], k, cfg, first=True))
        for s in secrets[1:]:
            flip, swap = governing_bits(s, k, cfg, first=False)
            if flip:
                q = apply_value_flip(q)
            if swap:
                q = apply_hadamard(q)
        want.append(q)
    assert block.qubits == want
    for l, dealt in enumerate(split_for_receivers(block, cfg), start=1):
        assert dealt.qubits == want[l - 1 :: receivers]


@pytest.mark.parametrize("variant", list(Variant))
def test_insider_runs_over_every_variant(variant):
    # Insider attacks read their planes through the variant's expansion; with
    # the target's basis mixing omitted they recover its value bits exactly.
    for adversary, senders, target in ((PreparerInsider(), 2, 2), (ColluderInsider(target=3), 3, 3)):
        cfg = ProtocolConfig(
            senders, 3, 4, variant=variant, seed=target, omit_hadamard=frozenset({target})
        )
        tr = run_protocol(cfg, ChannelModel(adversary=adversary))
        truth = [s for s in tr._secrets if s.party == f"alice{target}"][0]
        rec = tr.adversary
        assert all(rec.certain)
        for p, b in zip(rec.positions, rec.bits):
            assert b == governing_bits(truth, p, cfg, first=False)[0]


def test_planes_reject_non_bits():
    with pytest.raises(ValueError):
        as_plane((0, 2))
    with pytest.raises(ValueError):
        as_plane(np.array([1, -1]))


# ---------------------------------------------------------------------------
# The protocol's rules against their per-position definitions, on one trial's
# planes and on a batch of three.

batch_shapes = st.sampled_from([(), (3,)])


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), batch_shapes, st.data())
def test_combined_basis_is_the_xor_of_every_governing_basis(senders, n, blocks_, batch, data):
    per_block = data.draw(st.lists(st.booleans(), min_size=senders, max_size=senders))
    strings = [
        draw_plane(data, math.prod(batch) * (blocks_ if one else n * blocks_)).reshape(*batch, -1)
        for one in per_block
    ]
    got = combined_basis(strings, blocks_)
    assert got.shape == (*batch, blocks_, 1 if all(per_block) else n)
    got = np.broadcast_to(got, (*batch, blocks_, n)).reshape(*batch, n * blocks_)
    for row in np.ndindex(*batch):
        for j, l in itertools.product(range(blocks_), range(1, n + 1)):
            k = n * j + l - 1
            want = 0
            for s, one in zip(strings, per_block):
                want ^= int(s[row][j if one else k])
            assert got[row][k] == want


@given(batch_shapes, st.integers(0, 12), st.data())
def test_check_tally_counts_usable_reveals_and_their_disagreements(batch, size, data):
    count = math.prod(batch) * size
    codes = data.draw(st.lists(st.integers(0, UNUSABLE), min_size=count, max_size=count))
    revealed = np.array(codes, dtype=np.uint8).reshape(*batch, size)
    expected = draw_plane(data, count).reshape(*batch, size)
    compared, disagree = check_tally(revealed, expected, axis=-1 if batch else None)
    for row in np.ndindex(*batch):
        pairs = list(zip(revealed[row].tolist(), expected[row].tolist()))
        assert np.asarray(compared)[row] == sum(r != UNUSABLE for r, _ in pairs)
        assert np.asarray(disagree)[row] == sum(r != UNUSABLE and r != e for r, e in pairs)


@given(batch_shapes, st.integers(1, 4), st.integers(0, 8), st.data())
def test_key_blocks_are_unchecked_and_usable_at_every_receiver(batch, n, blocks_, data):
    size = math.prod(batch) * blocks_
    usable = [draw_plane(data, size, bool).reshape(*batch, blocks_) for _ in range(n)]
    checked = draw_plane(data, size, bool).reshape(*batch, blocks_)
    got = key_block_mask(usable, checked)
    assert got.shape == checked.shape
    for at in np.ndindex(*batch, blocks_):
        assert got[at] == (not checked[at] and all(u[at] for u in usable))
