"""Entropy/rate formulas, nested-code distillation, and one-time-pad discipline."""

import dataclasses
import hashlib
import itertools
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpqss import (
    CssPair,
    DecodeFailure,
    KeyMaterialError,
    LinearCode,
    OneTimePad,
    binary_entropy,
    build_canonical_css,
    draw_group_codeword,
    key_rate,
    otp_send,
    reconcile,
    reconcile_stream,
    syndrome_decode,
    xor_bits,
)
from mpqss.postprocessing import (
    HAMMING_PARITY_CHECK,
    as_bit_matrix,
    ReconcileResult,
    StreamResult,
    _block_values,
    bits_to_hex,
    gf2_matmul,
    reconcile_blocks,
)
from mpqss.planes import Substream


def entropy_oracle(delta: str) -> float:
    """High-precision independent evaluation of the two-outcome entropy."""
    d = mp.mpf(delta)
    if d == 0 or d == 1:
        return 0.0
    return float(-d * mp.log(d, 2) - (1 - d) * mp.log(1 - d, 2))


@pytest.fixture(scope="module")
def pair():
    return build_canonical_css()


class TestEntropyAndRate:
    def test_entropy_endpoints_and_maximum(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_entropy_matches_oracle_along_the_interval(self):
        for d in ("0.01", "0.05", "0.11", "0.2", "0.3", "0.47"):
            assert binary_entropy(float(d)) == pytest.approx(entropy_oracle(d), abs=1e-9)
        # Frozen oracle value at the abort threshold.
        assert binary_entropy(0.11) == pytest.approx(0.4999159581645280, abs=1e-12)

    def test_entropy_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    def test_key_rate_values(self):
        assert key_rate(0.0) == 1.0
        assert key_rate(0.5) == 0.0
        # Just above the floor: frozen from the high-precision oracle.
        assert key_rate(0.11) == pytest.approx(1 - 2 * entropy_oracle("0.11"), abs=1e-12)
        assert key_rate(0.11) == pytest.approx(1.68083670944e-4, rel=1e-9)
        assert key_rate(0.25) == 0.0  # deep in the zero region

    def test_key_rate_monotone_and_zero_crossing(self):
        xs = [i / 1000 for i in range(0, 501)]
        rates = [key_rate(x) for x in xs]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        # Bisection oracle for the last positive rate.
        lo, hi = 0.0, 0.5
        while hi - lo > 1e-7:
            mid = (lo + hi) / 2
            if key_rate(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert abs(lo - 0.110) <= 0.001
        assert lo == pytest.approx(0.11002786443836, abs=1e-4)


class TestLinearCode:
    def test_generator_orthogonal_to_parity_check(self, pair):
        for code in (pair.c1, pair.c2):
            assert not gf2_matmul(code.generator, code.parity_check.T).any()

    def test_hamming_shape(self, pair):
        assert (pair.c1.length, pair.c1.dimension) == (7, 4)
        assert (pair.c2.length, pair.c2.dimension) == (7, 3)
        assert pair.key_bits == 1
        assert repr(pair.c1) == "LinearCode[7,4] t=1"

    def test_minimum_distance_three_exhaustive(self, pair):
        weights = sorted(int(w.sum()) for w in pair.c1.codewords() if w.any())
        assert weights[0] == 3

    def test_small_code_weights_exhaustive(self, pair):
        # The nested code is constant-weight 4 apart from zero, which is what
        # makes wrong-codeword decodes land in the other coset.
        weights = {int(w.sum()) for w in pair.c2.codewords()}
        assert weights == {0, 4}

    def test_nesting_every_small_codeword_passes_big_checks(self, pair):
        for w in pair.c2.codewords():
            assert pair.c1.contains(w)

    def test_codeword_count_and_coset_partition(self, pair):
        words = [tuple(int(x) for x in w) for w in pair.c1.codewords()]
        assert len(set(words)) == 16
        by_label = {}
        for w in words:
            by_label.setdefault(pair.coset_key(w), []).append(w)
        assert set(by_label) == {(0,), (1,)}
        assert sorted(len(v) for v in by_label.values()) == [8, 8]

    def test_decoding_codewords_is_identity(self, pair):
        for w in pair.c1.codewords():
            assert np.array_equal(syndrome_decode(pair.c1, w), w)

    def test_single_errors_all_corrected_exhaustive(self, pair):
        for w in pair.c1.codewords():
            for pos in range(7):
                err = w.copy()
                err[pos] ^= 1
                assert np.array_equal(syndrome_decode(pair.c1, err), w)

    def test_double_errors_exceed_the_design(self, pair):
        # The [7,4] code is perfect, so a two-bit error decodes to some wrong
        # codeword rather than failing outright; either way the original is lost.
        w = pair.c1.codewords()[5]
        err = w.copy()
        err[0] ^= 1
        err[3] ^= 1
        decoded = syndrome_decode(pair.c1, err)
        assert pair.c1.contains(decoded)
        assert not np.array_equal(decoded, w)

    def test_decode_failure_signal_on_nonperfect_code(self):
        # A [4,1] repetition-style code leaves syndromes uncovered at radius 1.
        gen = as_bit_matrix(["1111"])
        code = LinearCode.from_generator(gen, radius=1)
        with pytest.raises(DecodeFailure):
            syndrome_decode(code, (1, 1, 0, 0))

    def test_word_length_checked(self, pair):
        with pytest.raises(ValueError):
            syndrome_decode(pair.c1, (0, 1, 0))


class TestBlockValues:
    @given(
        st.integers(0, 20),
        st.lists(st.integers(0, 3), max_size=3),
        st.sampled_from([np.uint8, np.bool_]),
        st.data(),
    )
    def test_each_row_reads_as_its_big_endian_integer(self, width, lead, dtype, data):
        count = math.prod(lead) * width
        flat = data.draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
        bits = np.array(flat, dtype=dtype).reshape(*lead, width)
        values = _block_values(bits)
        assert values.shape == tuple(lead) and values.dtype == np.intp
        rows = np.array(flat, dtype=int).reshape(math.prod(lead), width).tolist()
        assert np.ravel(values).tolist() == [int("0" + "".join(map(str, row)), 2) for row in rows]


class TestCosetKey:
    def test_small_code_words_label_zero(self, pair):
        for w in pair.c2.codewords():
            assert pair.coset_key(w) == (0,)

    def test_label_is_coset_invariant_exhaustive(self, pair):
        for u in pair.c1.codewords():
            for c in pair.c2.codewords():
                assert pair.coset_key(u ^ c) == pair.coset_key(u)

    def test_non_codeword_rejected(self, pair):
        with pytest.raises(ValueError):
            pair.coset_key((1, 0, 0, 0, 0, 0, 0))

    @given(st.integers(0, 15), st.integers(0, 7))
    def test_coset_invariance_property(self, msg, small):
        pair = build_canonical_css()
        u = gf2_matmul(
            np.array([(msg >> i) & 1 for i in range(4)], dtype=np.uint8), pair.c1.generator
        )
        c = gf2_matmul(
            np.array([(small >> i) & 1 for i in range(3)], dtype=np.uint8), pair.c2.generator
        )
        assert pair.coset_key(u ^ c) == pair.coset_key(u)


class TestReconcile:
    def test_noiseless_blocks_always_agree(self, pair):
        rng = random.Random(0)
        for _ in range(50):
            v = [rng.getrandbits(1) for _ in range(7)]
            u = draw_group_codeword(pair.c1, parties=3, rng=rng)
            res = reconcile(pair, v, v, u)
            assert res.agreed and res.key_alice == res.key_bob

    def test_single_errors_agree_exhaustively(self, pair):
        rng = random.Random(1)
        v = [rng.getrandbits(1) for _ in range(7)]
        for u in pair.c1.codewords():
            for pos in range(7):
                noisy = list(v)
                noisy[pos] ^= 1
                res = reconcile(pair, v, noisy, u)
                assert res.agreed, f"u={u}, pos={pos}"

    def test_announcement_masks_the_block(self, pair):
        rng = random.Random(2)
        v = [rng.getrandbits(1) for _ in range(7)]
        u = pair.c1.random_codeword(rng)
        res = reconcile(pair, v, v, u)
        assert res.public == tuple(int(x) for x in (u ^ np.array(v, dtype=np.uint8)))

    def test_bernoulli_noise_matches_binomial_yield_oracle(self, pair):
        # Oracle: per-block agreement is (1-p)^7 + 7 p (1-p)^6 at p = 0.02.
        p = 0.02
        oracle = (1 - p) ** 7 + 7 * p * (1 - p) ** 6
        # 2,500 blocks: sigma = 0.0018, so +-0.01 is 5.7 sigma.
        rng = random.Random(3)
        agreed = 0
        blocks = 2500
        for _ in range(blocks):
            v = [rng.getrandbits(1) for _ in range(7)]
            noisy = [b ^ (1 if rng.random() < p else 0) for b in v]
            u = draw_group_codeword(pair.c1, parties=2, rng=rng)
            agreed += reconcile(pair, v, noisy, u).agreed
        assert abs(agreed / blocks - oracle) <= 0.01

    def test_stream_pads_short_tails_and_drops_their_key_bits(self, pair):
        rng = random.Random(4)
        held = [rng.getrandbits(1) for _ in range(20)]  # 2 full blocks + 6 spare
        res = reconcile_stream(pair, held, list(held), rng)
        assert res.blocks_total == 3 and res.blocks_ok == 2  # the padded block is not ok
        assert len(res.padding) == 1
        assert len(res.final_alice) == 2  # padded block contributes nothing
        assert res.final_alice == res.final_bob
        assert res.block_yield == 1.0  # of the two unpadded blocks

    def test_a_key_shorter_than_one_block_yields_nothing(self, pair):
        # A 3-bit raw key is one block, mostly padding: it distills no bit, and
        # its yield is 0.0, not the 1.0 of counting the padded block as kept.
        from mpqss import ExperimentSpec, ProtocolConfig, run_experiment

        res = reconcile_stream(pair, (1, 0, 1), (1, 0, 1), random.Random(0))
        assert (res.blocks_total, res.blocks_ok, len(res.padding)) == (1, 0, 4)
        assert res.final_alice == () and res.block_yield == 0.0
        assert reconcile_stream(pair, (), (), random.Random(0)).block_yield == 0.0
        spec = ExperimentSpec(ProtocolConfig(2, 3, 6), trials=2, metrics=("block_yield",))
        report = run_experiment(spec)
        assert report.extras["final_key_bits"] == 0
        assert report.metrics["block_yield"].mean == 0.0

    def test_stream_requires_equal_lengths(self, pair):
        with pytest.raises(ValueError, match="equal length"):
            reconcile_stream(pair, [0, 1], [0], random.Random(0))

    def test_canonical_pair_is_built_once_and_read_only(self, pair):
        assert build_canonical_css() is pair
        tables = (
            pair.c1.generator, pair.c1.parity_check, pair.c1._errors, pair.c1._decodable,
            pair.c2.generator, pair._label_table, pair._keys, HAMMING_PARITY_CHECK,
            pair._decoded_labels, pair._codeword_values,
        )
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0


class TestRefusals:
    """Each input the post-processing refuses, refused with its own message."""

    def test_bit_matrix_needs_rows(self):
        with pytest.raises(ValueError, match="rectangular"):
            as_bit_matrix([])

    @pytest.mark.parametrize(
        "generator, parity_check, message",
        [
            ([[1, 1, 1, 0, 0, 0, 0]], HAMMING_PARITY_CHECK[:, :6], "disagree on code length"),
            ([[1, 0, 0, 0, 0, 0, 0]], HAMMING_PARITY_CHECK, "satisfy every parity check"),
            ([[1, 1, 1, 0, 0, 0, 0]] * 2, HAMMING_PARITY_CHECK, "linearly dependent"),
            ([[1, 1, 1, 0, 0, 0, 0]], HAMMING_PARITY_CHECK, "rank must equal"),
        ],
    )
    def test_inconsistent_code_matrices(self, generator, parity_check, message):
        with pytest.raises(ValueError, match=message):
            LinearCode(as_bit_matrix(generator), parity_check, radius=1)

    def test_codeword_enumeration_stops_above_dimension_twenty(self):
        code = LinearCode.from_generator(np.eye(21, dtype=np.uint8), radius=0)
        with pytest.raises(ValueError, match="desk-scale"):
            code.codewords()

    def test_nested_pairs(self, pair):
        longer = LinearCode.from_generator(as_bit_matrix([[1] * 8]), radius=0)
        with pytest.raises(ValueError, match="share a length"):
            CssPair(pair.c1, longer)
        with pytest.raises(ValueError, match="lie in the big one"):
            CssPair(pair.c2, pair.c1)
        with pytest.raises(ValueError, match="no key bits"):
            CssPair(pair.c1, pair.c1)

    def test_block_and_party_counts(self, pair):
        with pytest.raises(ValueError, match="at least one party"):
            draw_group_codeword(pair.c1, 0, random.Random(0))
        with pytest.raises(ValueError, match="length 7"):
            reconcile(pair, (0,) * 6, (0,) * 7, (0,) * 7)
        with pytest.raises(ValueError, match="at least one party"):
            reconcile_stream(pair, [0], [0], random.Random(0), group_size=0)
        # The kernel's coins come one row per entry of lengths, and its error bits fill every padded row.
        error = np.zeros(14, dtype=np.uint8)
        for rngs in ([random.Random(0)] * 3, [random.Random(0)], Substream([1], "pp")):
            with pytest.raises(ValueError, match="per row"):
                reconcile_blocks(pair, error, [7, 7], rngs)
        with pytest.raises(ValueError, match="must hold 14 bits"):
            reconcile_blocks(pair, error[:10], [7, 7], [random.Random(0)] * 2)
        # A negative row length is named, not left to fail inside the padding mask or the generator.
        for lengths, bits, row in (([-3], 0, 0), ([-7, 21], 14, 0), ([7, -1], 7, 1)):
            with pytest.raises(ValueError, match=f"row {row} has a negative length"):
                reconcile_blocks(pair, error[:bits], lengths, [random.Random(0)] * len(lengths))
        with pytest.raises(ValueError, match="equal length"):
            xor_bits((0, 1), (0,))


class TestOneTimePad:
    def test_round_trip_is_identity(self):
        rng = random.Random(5)
        message = [rng.getrandbits(1) for _ in range(64)]
        key = [rng.getrandbits(1) for _ in range(64)]
        assert xor_bits(xor_bits(message, key), key) == tuple(message)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=128))
    def test_round_trip_property(self, message):
        key = [(i * 7 + 3) % 2 for i in range(len(message))]
        sender = OneTimePad(key)
        receiver = OneTimePad(key)
        assert receiver.decrypt(sender.encrypt(message)) == tuple(message)

    def test_zero_message_exposes_the_key_stream(self):
        key = (1, 0, 1, 1, 0, 0, 1, 0)
        assert otp_send([0] * 8, [key]) == key

    def test_insufficient_key_refused(self):
        with pytest.raises(KeyMaterialError):
            otp_send([0] * 9, [(1, 0, 1)])

    def test_reuse_refused(self):
        pad = OneTimePad([1, 0, 1, 1])
        pad.encrypt([0, 1])
        pad.encrypt([1, 1])
        with pytest.raises(KeyMaterialError):
            pad.encrypt([0])
        assert pad.remaining == 0

    def test_block_key_concatenation(self):
        pad = OneTimePad.from_block_keys([(1,), (0,), (1,)])
        assert pad.encrypt([0, 0, 0]) == (1, 0, 1)

    def test_hex_rendering(self):
        assert bits_to_hex((1, 0, 1, 0, 1, 1, 1, 1)) == "af"
        assert bits_to_hex((1,)) == "8"
        assert bits_to_hex(()) == ""

    def test_hex_round_trip(self):
        from mpqss import hex_to_bits

        assert hex_to_bits("af") == (1, 0, 1, 0, 1, 1, 1, 1)
        assert hex_to_bits(bits_to_hex((1, 1, 0, 1))) == (1, 1, 0, 1)  # nibble aligned
        assert hex_to_bits("") == ()
        with pytest.raises(ValueError):
            hex_to_bits("0x41")


class TestEndToEnd:
    def test_protocol_key_through_distillation_and_messaging(self):
        """Raw key -> blocks -> reconcile -> one-time pad round trip, noiseless."""
        from mpqss import ProtocolConfig, run_protocol

        pair = build_canonical_css()
        cfg = ProtocolConfig(senders=3, receivers=3, blocks=60, seed=77)
        tr = run_protocol(cfg)
        assert tr.raw_key == tr.reference_key
        rng = random.Random(cfg.seed)
        stream = reconcile_stream(pair, tr.reference_key, tr.raw_key, rng, group_size=cfg.senders)
        assert stream.block_yield == 1.0
        assert stream.final_alice == stream.final_bob
        message = [rng.getrandbits(1) for _ in range(len(stream.final_alice))]
        ciphertext = otp_send(message, [stream.final_alice])
        assert xor_bits(ciphertext, stream.final_bob) == tuple(message)

    def test_noisy_yield_beats_binomial_prediction_minus_two_points(self):
        pair = build_canonical_css()
        rng = random.Random(6)
        p = 0.02
        held = [rng.getrandbits(1) for _ in range(7 * 500)]
        noisy = [b ^ (1 if rng.random() < p else 0) for b in held]
        stream = reconcile_stream(pair, held, noisy, rng)
        oracle = (1 - p) ** 7 + 7 * p * (1 - p) ** 6
        # 500 blocks: sigma = 0.0039, so +-0.02 is 5.1 sigma.
        assert stream.block_yield >= oracle - 0.02
        assert abs(stream.block_yield - oracle) <= 0.02
        # The disagreeing residue is exactly the beyond-radius blocks.
        mismatched = sum(a != b for a, b in zip(stream.final_alice, stream.final_bob))
        assert mismatched == stream.blocks_total - stream.blocks_ok - stream.blocks_discarded


# ---------------------------------------------------------------------------
# Per-block reference for the whole-array distillation: the block loop of
# version 0.2.0, syndrome decoding through a dict of error patterns, and coset
# labels by brute force over the small code. Since 0.5.0 a row's coins are the
# bits of one getrandbits call, coin i being bit i.


def coins_of(rng, count):
    """The ``count`` coins of one ``rng.getrandbits(count)``, lowest bit first."""
    drawn = rng.getrandbits(count)
    return iter([drawn >> i & 1 for i in range(count)])


def _span(generator):
    rows = [np.array(row, dtype=np.uint8) for row in generator]
    words = set()
    for coeffs in itertools.product((0, 1), repeat=len(rows)):
        word = np.zeros(len(rows[0]), dtype=np.uint8)
        for c, row in zip(coeffs, rows):
            if c:
                word ^= row
        words.add(tuple(int(x) for x in word))
    return sorted(words)


class ReferencePair:
    def __init__(self, pair):
        self.pair = pair
        self.n = pair.c1.length
        self.small = _span(pair.c2.generator)
        reps = sorted({self.rep(w) for w in _span(pair.c1.generator)})
        self.labels = {
            rep: tuple(int(b) for b in format(i, f"0{pair.key_bits}b")) for i, rep in enumerate(reps)
        }
        self.errors = {}
        for weight in range(pair.c1.radius + 1):
            for support in itertools.combinations(range(self.n), weight):
                err = tuple(int(i in support) for i in range(self.n))
                self.errors.setdefault(self.syndrome(err), err)

    def syndrome(self, word):
        return tuple(int(x) for x in (self.pair.c1.parity_check @ np.array(word)) % 2)

    def rep(self, word):
        return min(tuple(a ^ b for a, b in zip(word, c)) for c in self.small)

    def key(self, word):
        return self.labels[self.rep(word)]

    def decode(self, word):
        err = self.errors.get(self.syndrome(word))
        return None if err is None else tuple(a ^ b for a, b in zip(word, err))

    def group_codeword(self, coins, parties):
        gen = self.pair.c1.generator
        u = np.zeros(self.n, dtype=np.int64)
        for _ in range(parties):
            msg = [next(coins) for _ in range(len(gen))]
            u ^= np.array(msg) @ gen % 2
        return tuple(int(x) for x in u)

    def stream(self, held, noisy, rng, group_size):
        n = self.n
        held, noisy = [int(b) for b in held], [int(b) for b in noisy]
        pad = -len(held) % n
        coins = coins_of(rng, pad + (len(held) + pad) // n * group_size * len(self.pair.c1.generator))
        padding = [next(coins) for _ in range(pad)]
        held += padding
        noisy += padding
        alice, bob = [], []
        total = ok = dropped = 0
        for start in range(0, len(held), n):
            u = self.group_codeword(coins, group_size)
            v, w = held[start : start + n], noisy[start : start + n]
            decoded = self.decode(tuple(a ^ b ^ c for a, b, c in zip(w, u, v)))
            total += 1
            if decoded is None:
                dropped += 1
                continue
            key_a, key_b = self.key(u), self.key(decoded)
            if not (padding and start + n >= len(held)):
                ok += key_a == key_b
                alice.extend(key_a)
                bob.extend(key_b)
        return StreamResult(tuple(alice), tuple(bob), total, ok, dropped, tuple(padding))


def _extended_hamming_pair():
    """[8,4,4] over a [8,2] subcode: two key bits per block, and at radius 1
    seven of the sixteen syndromes stay uncovered, so blocks get discarded."""
    gen = as_bit_matrix("10000111 01001011 00101101 00011110".split())
    return CssPair(LinearCode.from_generator(gen, radius=1), LinearCode.from_generator(gen[:2], radius=1))


def _distance_two_pair():
    """[4,2] of distance 2 over the repetition code: weight-one errors tie on a
    syndrome, so the first pattern must claim it, and one syndrome stays uncovered."""
    gen = as_bit_matrix(["1100", "0011"])
    return CssPair(LinearCode.from_generator(gen, radius=1), LinearCode.from_generator(gen[:1] ^ gen[1:], radius=1))


def _twelve_bit_pair():
    """[12,5] of distance 3 over its first two rows: a block spans two bytes,
    and at radius 1 only 13 of the 128 syndromes are covered."""
    gen = as_bit_matrix("100001101000 010000110100 001000011010 000100001101 000011000110".split())
    return CssPair(LinearCode.from_generator(gen, radius=1), LinearCode.from_generator(gen[:2], radius=1))


REFERENCES = {
    "canonical": ReferencePair(build_canonical_css()),
    "uncovered": ReferencePair(_extended_hamming_pair()),
    "ties": ReferencePair(_distance_two_pair()),
    "two-byte": ReferencePair(_twelve_bit_pair()),
}


def test_reconcile_discards_a_block_outside_the_decoding_radius():
    pair, noisy = _extended_hamming_pair(), (1, 1, 0, 0, 0, 0, 0, 0)
    assert REFERENCES["uncovered"].decode(noisy) is None  # two errors, radius one
    result = reconcile(pair, (0,) * 8, noisy, (0,) * 8)
    assert result.discarded and result.key_bob is None and not result.agreed
    assert result.key_alice == pair.coset_key((0,) * 8)
    assert result.public == (0,) * 8


class TestAgainstPerBlockReference:
    @pytest.mark.parametrize("name", sorted(REFERENCES))
    def test_single_block_functions_exhaustive(self, name):
        ref = REFERENCES[name]
        pair, n = ref.pair, ref.n
        assert pair.cosets() == {rep: key for rep, key in ref.labels.items()}
        codewords = set(_span(pair.c1.generator))
        for index in range(2**n):
            word = tuple(int(b) for b in format(index, f"0{n}b"))
            if word in codewords:
                assert pair.coset_key(word) == ref.key(word)
            else:
                with pytest.raises(ValueError):
                    pair.coset_key(word)
            expected = ref.decode(word)
            if expected is None:
                with pytest.raises(DecodeFailure):
                    syndrome_decode(pair.c1, word)
            else:
                assert tuple(syndrome_decode(pair.c1, word).tolist()) == expected
        for parties in (1, 2, 5):
            rng, again = random.Random(parties), random.Random(parties)
            drawn = draw_group_codeword(pair.c1, parties, rng)
            coins = coins_of(again, parties * pair.c1.dimension)
            assert tuple(drawn.tolist()) == ref.group_codeword(coins, parties)
            assert rng.random() == again.random()
        # One block held as zeros announces u itself; every codeword up to 8 bits, four of two-byte's.
        words = list(itertools.product((0, 1), repeat=n))
        for u in sorted(codewords)[:: 1 if n <= 8 else 8]:
            for word in words:
                decoded = ref.decode(tuple(a ^ b for a, b in zip(word, u)))
                key_bob = None if decoded is None else ref.key(decoded)
                want = ReconcileResult(ref.key(u), key_bob, u, decoded is None)
                assert reconcile(pair, (0,) * n, word, u) == want

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(REFERENCES)),
        length=st.integers(0, 300),
        group_size=st.integers(1, 4),
        error_rate=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stream_matches_reference(self, name, length, group_size, error_rate, seed):
        ref = REFERENCES[name]
        data = random.Random(seed)
        held = [data.getrandbits(1) for _ in range(length)]
        noisy = [b ^ (data.random() < error_rate) for b in held]
        rng, again = random.Random(seed + 1), random.Random(seed + 1)
        got = reconcile_stream(ref.pair, held, noisy, rng, group_size=group_size)
        assert got == ref.stream(held, noisy, again, group_size)
        assert rng.random() == again.random()


# The sha256 of each pair's tables (dtype, shape and bytes), recorded with the
# place-value reading of bit rows that built them first.
TABLE_DIGESTS = {
    "canonical": "dab5500a5e10a4ee32a5baebcaa4cb735b08fdbb452435dd34b3e343dfbec987",
    "ties": "7b569122169152f0d02057b22e9c614ad54027d6af37030c22a9d37cd70aac0a",
    "two-byte": "a055c806866de3c0f8680e1de9a83203e8d373c92f71c2a94305d24c736fc07e",
    "uncovered": "6ae5eaab4bc9b34e7236e26d13738adac9cdf8c6034699b4d0e9247c1f460f0a",
}


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_pair_tables_are_pinned(name):
    pair, digest = REFERENCES[name].pair, hashlib.sha256()
    for table in (
        pair._label_table, pair._decoded_labels, pair._codeword_values, pair._keys,
        pair.c1._errors, pair.c1._decodable,
    ):
        digest.update(f"{table.dtype.str}{table.shape}".encode() + table.tobytes())
    assert digest.hexdigest() == TABLE_DIGESTS[name]


def test_streams_reconcile_by_table_lookups_alone(monkeypatch):
    from mpqss import postprocessing

    pair, held = REFERENCES["two-byte"].pair, [1, 0, 1] * 9
    want = reconcile_stream(pair, held, held[::-1], random.Random(3), group_size=2)

    def refuse(*args):
        raise AssertionError("a stream decodes or labels by table only")

    monkeypatch.setattr(postprocessing, "gf2_matmul", refuse)
    monkeypatch.setattr(LinearCode, "decode", refuse)
    monkeypatch.setattr(CssPair, "labels", refuse)
    assert reconcile_stream(pair, held, held[::-1], random.Random(3), group_size=2) == want


@st.composite
def stream_row(draw):
    """(held, noisy, generator seed) as list, tuple, int array or bytes. Values
    run over 0-3; each stands for its low bit, and a flip of 2 changes a noisy
    value but not its bit."""
    held = draw(st.lists(st.integers(0, 3), max_size=30))
    flips = draw(st.lists(st.integers(0, 3), min_size=len(held), max_size=len(held)))
    noisy = [b ^ f for b, f in zip(held, flips)]
    kind = draw(st.sampled_from([list, tuple, np.array, bytes]))
    return kind(held), kind(noisy), draw(st.integers(0, 2**32 - 1))


def _padded_error(pair, rows):
    """Each row's held XOR noisy by its low bit, then zeros to its last block's end, row after row."""
    bits = [[(int(h) ^ int(w)) & 1 for h, w in zip(held, noisy)] for held, noisy, *_ in rows]
    return np.array([b for row in bits for b in row + [0] * (-len(row) % pair.c1.length)], dtype=np.uint8)


def _each_row(pair, rec):
    """Each row of a ``Reconciled`` as (blocks, ok, decodable, padding, keys on each side, yield)."""
    out, key, fill = [], 0, 0
    for r, (kept, pad) in enumerate(zip(rec.kept.tolist(), rec.pads.tolist())):
        keys = [pair._keys[labels[key:key + kept]].ravel().tolist() for labels in (rec.alice, rec.bob)]
        out.append((rec.blocks[r], rec.ok[r], rec.decodable[r], rec.padding[fill:fill + pad].tolist(), *keys,
                    rec.block_yield[r]))
        key, fill = key + kept, fill + pad
    assert (key, fill) == (len(rec.alice), len(rec.padding))
    return out


def _stream_row(result):
    """A ``StreamResult`` in the terms of :func:`_each_row`."""
    return (result.blocks_total, result.blocks_ok, result.blocks_total - result.blocks_discarded,
            list(result.padding), list(result.final_alice), list(result.final_bob), result.block_yield)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(REFERENCES)), rows=st.lists(stream_row(), max_size=8), group_size=st.integers(1, 3))
def test_batched_streams_equal_one_stream_per_row(name, rows, group_size):
    """One kernel pass with a generator per row gives each row what ``reconcile_stream`` gives
    it alone, and leaves each generator in the state that call leaves it in."""
    pair = REFERENCES[name].pair
    rngs = [random.Random(seed) for _, _, seed in rows]
    got = reconcile_blocks(pair, _padded_error(pair, rows), [len(r[0]) for r in rows], rngs, group_size)
    alone = [random.Random(seed) for _, _, seed in rows]
    want = [reconcile_stream(pair, held, noisy, again, group_size) for (held, noisy, _), again in zip(rows, alone)]
    assert _each_row(pair, got) == [_stream_row(result) for result in want]
    for rng, again in zip(rngs, alone):
        assert rng.getrandbits(64) == again.getrandbits(64)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(REFERENCES)), row=stream_row(), group_size=st.integers(1, 3))
def test_rows_reconcile_as_their_values_mod_2(name, row, group_size):
    pair = REFERENCES[name].pair
    held, noisy, seed = row

    def low_bits(bits):
        return [int(b) % 2 for b in bits]

    assert reconcile_stream(pair, held, noisy, random.Random(seed), group_size) == reconcile_stream(
        pair, low_bits(held), low_bits(noisy), random.Random(seed), group_size)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(REFERENCES)),
    rows=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 2**64 - 1)), max_size=8),
    group_size=st.integers(1, 3),
    data=st.randoms(use_true_random=False),
)
def test_the_kernel_gives_each_row_what_it_gives_alone(name, rows, group_size, data):
    """Rows of no bits, of fewer than one block and of several, laid end to end: each row's
    counts, labels and padding are those of the row reconciled alone with its own substream row."""
    pair = REFERENCES[name].pair
    held = [[data.getrandbits(1) for _ in range(size)] for size, _ in rows]
    noisy = [[b ^ (data.random() < 0.1) for b in bits] for bits in held]
    lengths = [size for size, _ in rows]
    strings = list(zip(held, noisy))
    error = _padded_error(pair, strings)
    got = reconcile_blocks(pair, error, lengths, Substream([seed for _, seed in rows], "pp"), group_size)
    alone = [
        row
        for string, (size, seed) in zip(strings, rows)
        for row in _each_row(pair, reconcile_blocks(pair, _padded_error(pair, [string]), [size],
                                                    Substream([seed], "pp"), group_size))
    ]
    assert _each_row(pair, got) == alone
    # With a generator per row, each row's counts are those of the block-by-block reference.
    by_rows = reconcile_blocks(pair, error, lengths, [random.Random(seed) for _, seed in rows], group_size)
    want = [REFERENCES[name].stream(h, w, random.Random(seed), group_size) for h, w, (_, seed) in zip(held, noisy, rows)]
    assert by_rows.block_yield.tolist() == [r.block_yield for r in want]
    assert (by_rows.ok.tolist(), by_rows.kept.tolist()) == ([r.blocks_ok for r in want],
                                                            [len(r.final_alice) // pair.key_bits for r in want])


# ---------------------------------------------------------------------------
# Workload-scale pins: the sha256 of repr of each result, recorded at version
# 0.5.0, whose coins from a generator and from a "pp" substream they cover.


def _planted(seed, size, delta=0.03):
    data = random.Random(seed)
    held = [data.getrandbits(1) for _ in range(size)]
    return held, [b ^ (data.random() < delta) for b in held]


def test_distill_stream_shape_is_pinned():
    """10^5 raw bits as lists at 3% planted errors with a generator, as the
    distill-stream workload calls it; the pin covers the generator's state after."""
    held, noisy = _planted(19, 100_000)
    rng = random.Random(20)
    result = reconcile_stream(build_canonical_css(), held, noisy, rng)
    assert (result.blocks_total, result.blocks_ok, len(result.final_alice)) == (14286, 14025, 14285)
    digest = hashlib.sha256(repr((result, rng.getrandbits(64))).encode()).hexdigest()
    assert digest == "7c98c3823ac22e30304609032af92e44cf66a25a467b5079d558511fa3103740"


def test_substream_kernel_batch_is_pinned():
    """Five rows, as a sweep reconciles them, through the kernel: their error bits, each
    row's padded with zeros, and coins from a "pp" substream, the longest row drawing
    137,157 coins; the sha256 of repr of the ``Reconciled`` arrays as lists."""
    sizes = [120_003, 0, 9, 57_350, 4_001]
    rows = [_planted(21 + r, size) for r, size in enumerate(sizes)]
    error = np.array(
        [bit for held, noisy in rows for bit in [a ^ b for a, b in zip(held, noisy)] + [0] * (-len(held) % 7)],
        dtype=np.uint8,
    )
    got = reconcile_blocks(build_canonical_css(), error, sizes, Substream([31, 32, 33, 34, 35], "pp"), group_size=2)
    assert got.blocks.tolist() == [17144, 0, 2, 8193, 572]
    fields = [getattr(got, field.name).tolist() for field in dataclasses.fields(got)]
    digest = hashlib.sha256(repr(fields).encode()).hexdigest()
    assert digest == "41f17d1a3316706227d20b74c5ae7beb944d6f6ce6349a25d392aa0012cdfaff"
