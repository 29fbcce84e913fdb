"""Entropy/rate formulas, nested-code distillation, and one-time-pad discipline."""

import itertools
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
    load_matrix,
    otp_send,
    reconcile,
    reconcile_stream,
    reconcile_streams,
    syndrome_decode,
    xor_bits,
)
from mpqss.postprocessing import (
    HAMMING_PARITY_CHECK,
    StreamResult,
    bits_to_hex,
    dump_matrix,
    gf2_matmul,
)


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
        gen = load_matrix("1111\n")
        code = LinearCode.from_generator(gen, radius=1)
        with pytest.raises(DecodeFailure):
            syndrome_decode(code, (1, 1, 0, 0))

    def test_word_length_checked(self, pair):
        with pytest.raises(ValueError):
            syndrome_decode(pair.c1, (0, 1, 0))

    def test_matrix_round_trip_through_text_format(self, pair):
        text = dump_matrix(HAMMING_PARITY_CHECK)
        again = load_matrix(text)
        assert np.array_equal(again, HAMMING_PARITY_CHECK)
        rebuilt = LinearCode.from_parity_check(again, radius=1)
        assert rebuilt.dimension == 4

    def test_matrix_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_matrix("10a1\n")
        with pytest.raises(ValueError):
            load_matrix("101\n01\n")
        with pytest.raises(ValueError):
            load_matrix("# only a comment\n")


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
        rng = random.Random(3)
        agreed = 0
        blocks = 1000
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
        assert res.blocks_total == 3 and res.blocks_ok == 3
        assert len(res.padding) == 1
        assert len(res.final_alice) == 2  # padded block contributes nothing
        assert res.final_alice == res.final_bob

    def test_stream_requires_equal_lengths(self, pair):
        with pytest.raises(ValueError):
            reconcile_stream(pair, [0, 1], [0], random.Random(0))
        with pytest.raises(ValueError, match="equal length"):
            reconcile_streams(pair, [[0], [0, 1]], [[1], [0]], [random.Random(0)] * 2)
        with pytest.raises(ValueError, match="one generator per row"):
            reconcile_streams(pair, [[0]], [[1]], [])

    def test_canonical_pair_is_built_once_and_read_only(self, pair):
        assert build_canonical_css() is pair
        tables = (
            pair.c1.generator, pair.c1.parity_check, pair.c1._errors, pair.c1._decodable,
            pair.c2.generator, pair._label_table, pair._keys, HAMMING_PARITY_CHECK,
        )
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0


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
        assert stream.block_yield >= oracle - 0.02
        assert abs(stream.block_yield - oracle) <= 0.02
        # The disagreeing residue is exactly the beyond-radius blocks.
        mismatched = sum(a != b for a, b in zip(stream.final_alice, stream.final_bob))
        assert mismatched == stream.blocks_total - stream.blocks_ok - stream.blocks_discarded


# ---------------------------------------------------------------------------
# Per-block reference for the whole-array distillation: the block loop of
# version 0.2.0, one getrandbits(1) call per coin, syndrome decoding through a
# dict of error patterns, and coset labels by brute force over the small code.


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

    def group_codeword(self, rng, parties):
        gen = self.pair.c1.generator
        u = np.zeros(self.n, dtype=np.int64)
        for _ in range(parties):
            msg = [rng.getrandbits(1) for _ in range(len(gen))]
            u ^= np.array(msg) @ gen % 2
        return tuple(int(x) for x in u)

    def stream(self, held, noisy, rng, group_size):
        n = self.n
        held, noisy = [int(b) for b in held], [int(b) for b in noisy]
        padding = []
        if len(held) % n:
            padding = [rng.getrandbits(1) for _ in range(n - len(held) % n)]
            held += padding
            noisy += padding
        alice, bob = [], []
        total = ok = dropped = 0
        for start in range(0, len(held), n):
            u = self.group_codeword(rng, group_size)
            v, w = held[start : start + n], noisy[start : start + n]
            decoded = self.decode(tuple(a ^ b ^ c for a, b, c in zip(w, u, v)))
            total += 1
            if decoded is None:
                dropped += 1
                continue
            key_a, key_b = self.key(u), self.key(decoded)
            ok += key_a == key_b
            if not (padding and start + n >= len(held)):
                alice.extend(key_a)
                bob.extend(key_b)
        return StreamResult(tuple(alice), tuple(bob), total, ok, dropped, tuple(padding))


def _extended_hamming_pair():
    """[8,4,4] over a [8,2] subcode: two key bits per block, and at radius 1
    seven of the sixteen syndromes stay uncovered, so blocks get discarded."""
    gen = load_matrix("10000111\n01001011\n00101101\n00011110\n")
    return CssPair(LinearCode.from_generator(gen, radius=1), LinearCode.from_generator(gen[:2], radius=1))


def _distance_two_pair():
    """[4,2] of distance 2 over the repetition code: weight-one errors tie on a
    syndrome, so the first pattern must claim it, and one syndrome stays uncovered."""
    gen = load_matrix("1100\n0011\n")
    return CssPair(LinearCode.from_generator(gen, radius=1), LinearCode.from_generator(gen[:1] ^ gen[1:], radius=1))


REFERENCES = {
    "canonical": ReferencePair(build_canonical_css()),
    "uncovered": ReferencePair(_extended_hamming_pair()),
    "ties": ReferencePair(_distance_two_pair()),
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
            assert tuple(drawn.tolist()) == ref.group_codeword(again, parties)
            assert rng.random() == again.random()

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


@st.composite
def stream_rows(draw):
    """Rows of (held, noisy, generator seed) as list, tuple or array, with a group size."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        held = draw(st.lists(st.integers(0, 1), max_size=30))
        flips = draw(st.lists(st.booleans(), min_size=len(held), max_size=len(held)))
        noisy = [b ^ f for b, f in zip(held, flips)]
        kind = draw(st.sampled_from([list, tuple, np.array]))
        rows.append((kind(held), kind(noisy), draw(st.integers(0, 2**32 - 1))))
    return rows, draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(REFERENCES)), batch=stream_rows())
def test_batched_streams_equal_one_stream_per_row(name, batch):
    pair = REFERENCES[name].pair
    rows, group_size = batch
    rngs = [random.Random(seed) for _, _, seed in rows]
    got = reconcile_streams(pair, [r[0] for r in rows], [r[1] for r in rows], rngs, group_size)
    assert len(got) == len(rows)
    for (held, noisy, seed), result, rng in zip(rows, got, rngs):
        again = random.Random(seed)
        assert result == reconcile_stream(pair, held, noisy, again, group_size)
        assert rng.getrandbits(64) == again.getrandbits(64)
