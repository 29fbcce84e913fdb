"""Classical post-processing: error rate, nested GF(2) codes, key distillation, one-time pad.

Error correction and privacy amplification use a pair of binary linear codes
with the smaller one nested inside the larger: the big code's syndrome
decoding removes transmission errors, and the coset of the corrected word in
the small code becomes the shared key, erasing whatever an eavesdropper
learned about individual bits. The canonical desk-scale pair is the [7,4]
Hamming code over its [7,3] dual, giving one key bit per seven-bit block.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DecodeFailure, KeyMaterialError
from .planes import random_coins

Bits = tuple[int, ...]


def binary_entropy(delta: float) -> float:
    """Shannon entropy of a {delta, 1-delta} coin, in bits; 0 at both endpoints."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"entropy argument must be in [0, 1], got {delta}")
    if delta in (0.0, 1.0):
        return 0.0
    return -delta * math.log2(delta) - (1.0 - delta) * math.log2(1.0 - delta)


def key_rate(delta: float) -> float:
    """Asymptotic secure-key fraction max(1 - 2*H(delta), 0) at error rate delta."""
    return max(1.0 - 2.0 * binary_entropy(delta), 0.0)


# ---------------------------------------------------------------------------
# GF(2) linear algebra


def as_bit_matrix(rows: Iterable[Iterable[int]]) -> np.ndarray:
    mat = np.array([[int(x) & 1 for x in row] for row in rows], dtype=np.uint8)
    if mat.ndim != 2:
        raise ValueError("expected a rectangular bit matrix")
    return mat


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.uint8) @ b.astype(np.uint8)) % 2


def gf2_rref(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2); returns (rref, pivot columns)."""
    m = mat.copy().astype(np.uint8)
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i, c]), None)
        if pivot is None:
            continue
        m[[r, pivot]] = m[[pivot, r]]
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] ^= m[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def gf2_rank(mat: np.ndarray) -> int:
    return len(gf2_rref(mat)[1])


def gf2_nullspace(mat: np.ndarray) -> np.ndarray:
    """Row basis of {x : mat @ x = 0 over GF(2)}; shape (cols - rank, cols)."""
    rref, pivots = gf2_rref(mat)
    cols = mat.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for row, pc in zip(rref, pivots):
            if row[fc]:
                basis[i, pc] = 1
    return basis


def load_matrix(text: str) -> np.ndarray:
    """Parse the plain-text matrix format: one row per line of '0'/'1' characters."""
    rows = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if any(c not in "01" for c in line):
            raise ValueError(f"line {no}: rows must be '0'/'1' strings, got {line!r}")
        rows.append([int(c) for c in line])
    if not rows:
        raise ValueError("no matrix rows found")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("rows have differing lengths")
    return as_bit_matrix(rows)


def dump_matrix(mat: np.ndarray) -> str:
    return "\n".join("".join(str(int(x)) for x in row) for row in mat) + "\n"


def _place_values(width: int) -> np.ndarray:
    """Weights that read a row of ``width`` bits as a big-endian integer.

    Big-endian keeps integer order equal to the lexicographic order of the bit
    tuples, which is what coset labels are numbered by.
    """
    return 1 << np.arange(width - 1, -1, -1, dtype=np.int64)


def _read_only(*tables: np.ndarray) -> None:
    for table in tables:
        table.setflags(write=False)


def _all_words(width: int) -> np.ndarray:
    """Every ``width``-bit row in counting order (the order of ``itertools.product``)."""
    return ((np.arange(2**width)[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# Linear codes


class LinearCode:
    """Binary linear code with a syndrome table covering its designed radius.

    The table has one row per syndrome, 2^(length - dimension) in all, holding
    the lightest error pattern with that syndrome and whether any pattern
    within the radius has it; it is meant for desk-scale codes. The matrices
    and tables are read-only, so one code can be shared.
    """

    def __init__(self, generator: np.ndarray, parity_check: np.ndarray, radius: int):
        self.generator = generator.astype(np.uint8) % 2
        self.parity_check = parity_check.astype(np.uint8) % 2
        self.length = self.generator.shape[1]
        self.dimension = self.generator.shape[0]
        self.radius = radius
        if self.parity_check.shape[1] != self.length:
            raise ValueError("generator and parity check disagree on code length")
        if gf2_matmul(self.generator, self.parity_check.T).any():
            raise ValueError("generator rows must satisfy every parity check")
        if gf2_rank(self.generator) != self.dimension:
            raise ValueError("generator rows are linearly dependent")
        if gf2_rank(self.parity_check) != self.length - self.dimension:
            raise ValueError("parity check rank must equal length - dimension")
        self._syndrome_values = _place_values(self.length - self.dimension)
        self._errors, self._decodable = self._build_syndrome_table(radius)
        _read_only(
            self.generator, self.parity_check, self._syndrome_values, self._errors, self._decodable
        )

    @classmethod
    def from_parity_check(cls, parity_check: np.ndarray, radius: int) -> "LinearCode":
        return cls(gf2_nullspace(parity_check), parity_check, radius)

    @classmethod
    def from_generator(cls, generator: np.ndarray, radius: int) -> "LinearCode":
        return cls(generator, gf2_nullspace(generator), radius)

    def _build_syndrome_table(self, radius: int) -> tuple[np.ndarray, np.ndarray]:
        patterns = np.array(
            [
                [int(i in support) for i in range(self.length)]
                for weight in range(radius + 1)
                for support in itertools.combinations(range(self.length), weight)
            ],
            dtype=np.uint8,
        )
        errors = np.zeros((2 ** (self.length - self.dimension), self.length), dtype=np.uint8)
        decodable = np.zeros(len(errors), dtype=bool)
        # Patterns run from light to heavy, so the first one with a syndrome claims it.
        for pattern, index in zip(patterns, self._syndrome_index(patterns).tolist()):
            if not decodable[index]:
                errors[index] = pattern
                decodable[index] = True
        return errors, decodable

    def syndrome(self, word: Sequence[int]) -> bytes:
        w = np.asarray(word, dtype=np.uint8) % 2
        return gf2_matmul(self.parity_check, w).tobytes()

    def _syndrome_index(self, words: np.ndarray) -> np.ndarray:
        """Syndromes of the rows of ``words`` (shape (..., length)) as table indices."""
        return gf2_matmul(words, self.parity_check.T) @ self._syndrome_values

    def decode(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Correct every row of ``words`` through the syndrome table.

        Returns the corrected rows and a mask of the rows whose syndrome an
        error within the radius explains; the other rows come back unchanged.
        """
        index = self._syndrome_index(words)
        return words ^ self._errors[index], self._decodable[index]

    def contains(self, word: Sequence[int]) -> bool:
        return not any(self.syndrome(word))

    def encode(self, messages: np.ndarray) -> np.ndarray:
        """Codewords of the rows of ``messages`` (shape (..., dimension))."""
        return gf2_matmul(messages, self.generator)

    def codewords(self) -> list[np.ndarray]:
        """All 2^k codewords; intended for the small code sizes used here."""
        if self.dimension > 20:
            raise ValueError("codeword enumeration is for desk-scale codes only")
        return list(self.encode(_all_words(self.dimension)))

    def random_codeword(self, rng: random.Random) -> np.ndarray:
        return self.encode(random_coins([rng], [self.dimension]))

    def __repr__(self) -> str:
        return f"LinearCode[{self.length},{self.dimension}] t={self.radius}"


def syndrome_decode(code: LinearCode, word: Sequence[int]) -> np.ndarray:
    """Nearest codeword via the syndrome table; exact up to ``code.radius`` errors."""
    w = np.asarray(word, dtype=np.uint8) % 2
    if w.shape != (code.length,):
        raise ValueError(f"word length {w.shape} does not match code length {code.length}")
    decoded, decodable = code.decode(w)
    if not decodable:
        raise DecodeFailure(
            f"syndrome {code.syndrome(w).hex()} exceeds the designed radius {code.radius}"
        )
    return decoded


# ---------------------------------------------------------------------------
# Nested pair and key extraction


class CssPair:
    """Nested codes (small inside big) whose coset structure yields the key.

    Key bits per block = dim(big) - dim(small). Coset labels are fixed by
    sorting the lexicographically smallest member of each coset and numbering
    in order, so both sides derive identical labels with no negotiation. The
    labels sit in a read-only table over all 2^length words, built once here.
    """

    def __init__(self, c1: LinearCode, c2: LinearCode):
        if c1.length != c2.length:
            raise ValueError("nested codes must share a length")
        for row in c2.generator:
            if not c1.contains(row):
                raise ValueError("every codeword of the small code must lie in the big one")
        self.c1 = c1
        self.c2 = c2
        self.key_bits = c1.dimension - c2.dimension
        if self.key_bits < 1:
            raise ValueError("the nesting yields no key bits")
        self._word_values = _place_values(c1.length)
        big = np.array(c1.codewords()) @ self._word_values
        small = np.array(c2.codewords()) @ self._word_values
        # A coset's lexicographically smallest member is its least integer.
        least = (big[:, None] ^ small[None, :]).min(axis=1).tolist()
        self._reps = sorted(set(least))
        if len(self._reps) != 2**self.key_bits:
            raise ValueError("coset count does not match 2^(k1 - k2)")
        label_of = {rep: label for label, rep in enumerate(self._reps)}
        self._label_table = np.full(2**c1.length, -1, dtype=np.int64)
        self._label_table[big] = [label_of[rep] for rep in least]
        self._keys = _all_words(self.key_bits)  # row i: the bits of label i
        _read_only(self._word_values, self._label_table, self._keys)

    def labels(self, words: np.ndarray) -> np.ndarray:
        """Coset label of every row of ``words`` (shape (..., length)); -1 off the big code."""
        return self._label_table[words @ self._word_values]

    def coset_key(self, u: Sequence[int]) -> Bits:
        """Label of u's coset; equal for inputs differing by a small-code word."""
        w = np.asarray(u, dtype=np.uint8) % 2
        label = self.labels(w) if w.shape == (self.c1.length,) else -1
        if label < 0:
            raise ValueError("coset keys are defined on codewords of the big code only")
        return tuple(self._keys[label].tolist())

    def cosets(self) -> dict[Bits, Bits]:
        """Each coset's representative (its smallest member) and its key bits."""
        return {
            tuple(int(b) for b in format(rep, f"0{self.c1.length}b")): tuple(key.tolist())
            for rep, key in zip(self._reps, self._keys)
        }


HAMMING_PARITY_CHECK = as_bit_matrix(
    [
        [1, 0, 1, 0, 1, 0, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
    ]
)
HAMMING_PARITY_CHECK.setflags(write=False)


@functools.cache
def build_canonical_css() -> CssPair:
    """[7,4] Hamming over its [7,3] dual: one key bit per block, radius 1.

    Built on the first call; every later call returns the same read-only pair.
    """
    c1 = LinearCode.from_parity_check(HAMMING_PARITY_CHECK, radius=1)
    c2 = LinearCode.from_generator(HAMMING_PARITY_CHECK, radius=1)
    return CssPair(c1, c2)


def draw_group_codeword(code: LinearCode, parties: int, rng: random.Random) -> np.ndarray:
    """XOR of one random codeword per party; still uniform over the code."""
    if parties < 1:
        raise ValueError("need at least one party")
    coins = random_coins([rng], [parties * code.dimension])
    return _group_codewords(code, coins.reshape(1, parties, code.dimension))[0]


def _group_codewords(code: LinearCode, messages: np.ndarray) -> np.ndarray:
    """One codeword per block from messages of shape (blocks, parties, dimension).

    The XOR of the parties' codewords is the codeword of the XOR of their
    messages, so each block costs one product with the generator.
    """
    return code.encode(np.bitwise_xor.reduce(messages, axis=1))


@dataclass
class ReconcileResult:
    key_alice: Bits
    key_bob: Bits | None
    public: Bits  # the announced u + v block
    discarded: bool

    @property
    def agreed(self) -> bool:
        return not self.discarded and self.key_alice == self.key_bob


def reconcile(
    pair: CssPair, held: Sequence[int], noisy: Sequence[int], u: Sequence[int]
) -> ReconcileResult:
    """One block of error correction plus coset key extraction.

    The holders of ``held`` announce u XOR held. The other side XORs the
    announcement into its noisy copy, leaving u plus the channel error, decodes
    back to a codeword, and both sides take that codeword's coset label as the
    key. Keys agree whenever the error weight stays within the code radius;
    blocks whose syndrome falls outside the table are discarded.
    """
    v = np.asarray(held, dtype=np.uint8) % 2
    w = np.asarray(noisy, dtype=np.uint8) % 2
    uu = np.asarray(u, dtype=np.uint8) % 2
    if v.shape != (pair.c1.length,) or w.shape != (pair.c1.length,):
        raise ValueError(f"blocks must have length {pair.c1.length}")
    key_alice = pair.coset_key(uu)
    public = (uu ^ v).astype(np.uint8)
    received = (w ^ public).astype(np.uint8)  # u xor error
    try:
        decoded = syndrome_decode(pair.c1, received)
    except DecodeFailure:
        return ReconcileResult(key_alice, None, tuple(public.tolist()), True)
    return ReconcileResult(key_alice, pair.coset_key(decoded), tuple(public.tolist()), False)


@dataclass
class StreamResult:
    final_alice: Bits
    final_bob: Bits
    blocks_total: int
    blocks_ok: int  # kept by both sides with agreeing keys (simulation statistic)
    blocks_discarded: int  # decode failures, dropped by both sides
    padding: Bits  # publicly announced tail fill, excluded from the final keys

    @property
    def block_yield(self) -> float:
        return self.blocks_ok / self.blocks_total if self.blocks_total else 0.0


def reconcile_stream(
    pair: CssPair,
    held: Sequence[int],
    noisy: Sequence[int],
    rng: random.Random,
    group_size: int = 1,
) -> StreamResult:
    """Blockwise reconciliation of two equal-length bit strings.

    A short final block is padded with publicly announced random bits on both
    sides; the padded block's key bits are dropped from the final keys since
    part of that block is public. Each block's codeword is drawn as the XOR of
    ``group_size`` random codewords, one per cooperating sender.

    ``blocks_ok`` counts blocks whose two keys actually agree, which an error
    beyond the code radius can silently break; the parties would confirm this
    with a hash in deployment, the simulator just compares.

    All blocks are handled at once as rows of arrays, with the result
    :func:`reconcile` gives block by block for the codewords
    :func:`draw_group_codeword` would draw from the same ``rng``. This is the
    one-row case of :func:`reconcile_streams`.
    """
    return reconcile_streams(pair, [held], [noisy], [rng], group_size)[0]


def _row_bytes(bits) -> bytes:
    """A row of bits as bytes: ``astype`` for an array, ``bytes()`` for a list or tuple.

    ``bytes()`` takes about half the time ``np.asarray`` takes on a list.
    """
    return bits.astype(np.uint8).tobytes() if isinstance(bits, np.ndarray) else bytes(bits)


def reconcile_streams(
    pair: CssPair,
    held_rows: Sequence[Sequence[int]],
    noisy_rows: Sequence[Sequence[int]],
    rngs: Sequence[random.Random],
    group_size: int = 1,
) -> list[StreamResult]:
    """:func:`reconcile_stream` of every row, each with its own generator.

    The blocks of all rows, padding included, are stacked as one
    (blocks, length) matrix that is decoded and labelled once. Row r draws its
    coins with one ``getrandbits`` call on ``rngs[r]``, in the order a lone
    call draws them, so each result, and the state each generator is left in,
    is that of :func:`reconcile_stream` on the row.
    """
    if not len(held_rows) == len(noisy_rows) == len(rngs):
        raise ValueError("need one held string, one noisy string and one generator per row")
    if group_size < 1:
        raise ValueError("need at least one party")
    lengths = [len(bits) for bits in held_rows]
    if lengths != [len(bits) for bits in noisy_rows]:
        raise ValueError("both strings must have equal length")
    code = pair.c1
    pads = np.array([-size % code.length for size in lengths], dtype=np.intp)
    blocks = (np.array(lengths, dtype=np.intp) + pads) // code.length
    # Row by row: the padding first, then every block's messages party by
    # party, the order in which one getrandbits(1) call per coin would draw them.
    counts = (pads + blocks * (group_size * code.dimension)).tolist()
    coins = random_coins(rngs, counts).tobytes()
    padding, messages, start = [], [], 0
    for pad, count in zip(pads.tolist(), counts):
        padding.append(coins[start:start + pad])
        messages.append(coins[start + pad:start + count])
        start += count

    def stacked(rows) -> np.ndarray:
        """Every row followed by its padding, as (blocks, length)."""
        parts = [part for bits, pad in zip(rows, padding) for part in (_row_bytes(bits), pad)]
        return np.frombuffer(b"".join(parts), dtype=np.uint8).reshape(-1, code.length) % 2

    u = _group_codewords(
        code, np.frombuffer(b"".join(messages), dtype=np.uint8).reshape(-1, group_size, code.dimension)
    )
    decoded, decodable = code.decode(stacked(noisy_rows) ^ u ^ stacked(held_rows))  # u xor error
    key_alice, key_bob = pair.labels(u), pair.labels(decoded)
    kept = decodable.copy()
    kept[(np.cumsum(blocks) - 1)[pads > 0]] = False  # part of a padded row's last block is public
    row = np.repeat(np.arange(len(rngs)), blocks)  # the row of each block

    def per_row(mask: np.ndarray) -> list[int]:
        """How many of each row's blocks ``mask`` holds."""
        return np.bincount(row[mask], minlength=len(rngs)).tolist()

    ok, decodable_count, kept_count = (
        per_row(mask) for mask in (decodable & (key_alice == key_bob), decodable, kept)
    )
    alice, bob = (pair._keys[key[kept]].tobytes() for key in (key_alice, key_bob))
    results, start = [], 0
    for r, total in enumerate(blocks.tolist()):
        end = start + kept_count[r] * pair.key_bits
        results.append(
            StreamResult(
                tuple(alice[start:end]), tuple(bob[start:end]), total, ok[r],
                total - decodable_count[r], tuple(padding[r]),
            )
        )
        start = end
    return results


# ---------------------------------------------------------------------------
# One-time pad


def xor_bits(a: Sequence[int], b: Sequence[int]) -> Bits:
    if len(a) != len(b):
        raise ValueError("XOR operands must have equal length")
    return tuple(int(x) ^ int(y) for x, y in zip(a, b))


def otp_send(message: Sequence[int], keys: Sequence[Sequence[int]]) -> Bits:
    """Encrypt by XOR against the concatenated block keys.

    Refuses when the key material is shorter than the message; decryption is
    the same XOR. Use :class:`OneTimePad` when the same material serves several
    messages, so reuse is refused too.
    """
    return OneTimePad.from_block_keys(keys).encrypt(message)


class OneTimePad:
    """Key-stream holder that consumes bits exactly once."""

    def __init__(self, key_bits: Sequence[int]):
        self._bits = [int(b) for b in key_bits]
        self._used = 0

    @classmethod
    def from_block_keys(cls, keys: Sequence[Sequence[int]]) -> "OneTimePad":
        return cls([int(b) for block in keys for b in block])

    @property
    def remaining(self) -> int:
        return len(self._bits) - self._used

    def _take(self, count: int) -> list[int]:
        if count > self.remaining:
            raise KeyMaterialError(
                f"need {count} key bits but only {self.remaining} are unused; pad bits are never reused"
            )
        chunk = self._bits[self._used : self._used + count]
        self._used += count
        return chunk

    def encrypt(self, message: Sequence[int]) -> Bits:
        return xor_bits(message, self._take(len(message)))

    def decrypt(self, ciphertext: Sequence[int]) -> Bits:
        return xor_bits(ciphertext, self._take(len(ciphertext)))


def bits_to_hex(bits: Sequence[int]) -> str:
    """Hex rendering for reports; pads the tail with zeros to a nibble."""
    if not bits:
        return ""
    text = "".join(str(int(b)) for b in bits)
    text += "0" * (-len(text) % 4)
    return "".join(format(int(text[i : i + 4], 2), "x") for i in range(0, len(text), 4))


def hex_to_bits(text: str) -> Bits:
    """Inverse of :func:`bits_to_hex` up to nibble padding."""
    text = text.strip().lower()
    if text and any(c not in "0123456789abcdef" for c in text):
        raise ValueError(f"not a hex string: {text!r}")
    return tuple(int(b) for c in text for b in format(int(c, 16), "04b"))
