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
from .planes import Substream

Bits = tuple[int, ...]


def random_coins(rngs: Substream | Sequence[random.Random], counts: Sequence[int]) -> np.ndarray:
    """``counts[r]`` coins for every row r, concatenated in row order.

    From a ``Substream`` with one seed per row, row r's coins are the first
    ``counts[r]`` bits of one draw of ``max(counts)`` bits, which are those of
    a draw of ``counts[r]`` bits alone. From a list of generators, row r's
    coin i is bit i of one ``rngs[r].getrandbits(counts[r])``.
    """
    if isinstance(rngs, Substream):
        [bits] = rngs.draw((1, max(counts, default=0)))
        return bits.reshape(len(counts), bits.shape[-1])[np.arange(bits.shape[-1]) < np.array(counts)[:, None]]
    rows = [(r.getrandbits(c).to_bytes(-(-c // 8), "little"), c) for r, c in zip(rngs, counts)]
    bits = [np.unpackbits(np.frombuffer(row, np.uint8), count=c, bitorder="little") for row, c in rows]
    return np.concatenate([np.zeros(0, np.uint8), *bits])


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


def _block_values(bits: np.ndarray) -> np.ndarray:
    """Each row of a (..., width) 0/1 array as a big-endian integer, in an array of shape (...).

    Big-endian keeps integer order equal to the lexicographic order of the bit
    tuples, which is what coset labels are numbered by.
    """
    width = bits.shape[-1]
    # Narrow weights, as with intp ones matmul would first copy the rows to intp, eight bytes a bit.
    weights = 1 << np.arange(width - 1, -1, -1, dtype=np.min_scalar_type((1 << width) - 1))
    return (bits @ weights).astype(np.intp)


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
        self._errors, self._decodable = self._build_syndrome_table(radius)
        _read_only(self.generator, self.parity_check, self._errors, self._decodable)

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

    def _syndrome_index(self, words: np.ndarray) -> np.ndarray:
        """Syndromes of the rows of ``words`` (shape (..., length)) as table indices."""
        return _block_values(gf2_matmul(words, self.parity_check.T))

    def decode(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Correct every row of ``words`` through the syndrome table.

        Returns the corrected rows and a mask of the rows whose syndrome an
        error within the radius explains; the other rows come back unchanged.
        """
        index = self._syndrome_index(words)
        return words ^ self._errors[index], self._decodable[index]

    def contains(self, word: Sequence[int]) -> bool:
        return not self._syndrome_index(np.asarray(word, dtype=np.uint8) % 2)

    def encode(self, messages: np.ndarray) -> np.ndarray:
        """Codewords of the rows of ``messages`` (shape (..., dimension))."""
        return gf2_matmul(messages, self.generator)

    def codewords(self) -> list[np.ndarray]:
        """All 2^k codewords; intended for the small code sizes used here."""
        if self.dimension > 20:
            raise ValueError("codeword enumeration is for desk-scale codes only")
        return list(self.encode(_all_words(self.dimension)))

    def random_codeword(self, rng: random.Random) -> np.ndarray:
        return draw_group_codeword(self, 1, rng)

    def __repr__(self) -> str:
        return f"LinearCode[{self.length},{self.dimension}] t={self.radius}"


def syndrome_decode(code: LinearCode, word: Sequence[int]) -> np.ndarray:
    """Nearest codeword via the syndrome table; exact up to ``code.radius`` errors."""
    w = np.asarray(word, dtype=np.uint8) % 2
    if w.shape != (code.length,):
        raise ValueError(f"word length {w.shape} does not match code length {code.length}")
    decoded, decodable = code.decode(w)
    if not decodable:
        syndrome = f"{code._syndrome_index(w):0{code.length - code.dimension}b}"
        raise DecodeFailure(f"syndrome {syndrome} exceeds the designed radius {code.radius}")
    return decoded


# ---------------------------------------------------------------------------
# Nested pair and key extraction


class CssPair:
    """Nested codes (small inside big) whose coset structure yields the key.

    Key bits per block = dim(big) - dim(small). Coset labels are fixed by
    sorting the lexicographically smallest member of each coset and numbering
    in order, so both sides derive identical labels with no negotiation. Tables
    built once here and read-only give each of the 2^length words its label and
    its label after decoding (-1 for none), and each message its codeword.
    """

    def __init__(self, c1: LinearCode, c2: LinearCode):
        if c1.length != c2.length:
            raise ValueError("nested codes must share a length")
        if c1._syndrome_index(c2.generator).any():
            raise ValueError("every codeword of the small code must lie in the big one")
        self.c1 = c1
        self.c2 = c2
        self.key_bits = c1.dimension - c2.dimension
        if self.key_bits < 1:
            raise ValueError("the nesting yields no key bits")
        big, small = (_block_values(code.encode(_all_words(code.dimension))) for code in (c1, c2))
        # A coset's lexicographically smallest member is its least integer.
        least = (big[:, None] ^ small[None, :]).min(axis=1).tolist()
        # The small code is a subgroup of the big one of index 2^(k1 - k2), so
        # there are exactly that many cosets, each with one least member.
        self._reps = sorted(set(least))
        label_of = {rep: label for label, rep in enumerate(self._reps)}
        self._label_table = np.full(2**c1.length, -1, dtype=np.int64)
        self._label_table[big] = [label_of[rep] for rep in least]
        self._keys = _all_words(self.key_bits)  # row i: the bits of label i
        decoded, decodable = c1.decode(_all_words(c1.length))
        self._decoded_labels = np.where(decodable, self._label_table[_block_values(decoded)], -1)
        self._codeword_values = big  # the messages in counting order, as codewords() has them
        _read_only(self._label_table, self._keys, self._decoded_labels, big)

    def labels(self, words: np.ndarray) -> np.ndarray:
        """Coset label of every row of ``words`` (shape (..., length)); -1 off the big code."""
        return self._label_table[_block_values(words)]

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
    # The XOR of the parties' codewords is the codeword of the XOR of their messages.
    return code.encode(np.bitwise_xor.reduce(coins.reshape(parties, code.dimension)))


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
    blocks whose syndrome falls outside the table are discarded. The other
    side's key is read from the pair's tables, as :func:`reconcile_blocks` reads it.
    """
    v = np.asarray(held, dtype=np.uint8) % 2
    w = np.asarray(noisy, dtype=np.uint8) % 2
    uu = np.asarray(u, dtype=np.uint8) % 2
    if v.shape != (pair.c1.length,) or w.shape != (pair.c1.length,):
        raise ValueError(f"blocks must have length {pair.c1.length}")
    key_alice = pair.coset_key(uu)
    public = (uu ^ v).astype(np.uint8)
    label = int(pair._decoded_labels[_block_values(w ^ public)])  # w ^ public is u xor error
    key_bob = tuple(pair._keys[label].tolist()) if label >= 0 else None
    return ReconcileResult(key_alice, key_bob, tuple(public.tolist()), label < 0)


@dataclass
class StreamResult:
    final_alice: Bits
    final_bob: Bits
    blocks_total: int  # the padded last block included
    blocks_ok: int  # unpadded blocks kept by both sides with agreeing keys (simulation statistic)
    blocks_discarded: int  # decode failures, dropped by both sides
    padding: Bits  # publicly announced tail fill, excluded from the final keys

    @property
    def block_yield(self) -> float:
        """The share of unpadded blocks that are ok; 0.0 for a key shorter than one block."""
        unpadded = self.blocks_total - (len(self.padding) > 0)
        return self.blocks_ok / unpadded if unpadded else 0.0


@dataclass(frozen=True)
class Reconciled:
    """What :func:`reconcile_blocks` gives for rows of blocks laid end to end.

    Each count is an array with one entry per row, as the fields of a row's
    ``StreamResult`` count; the labels are the kept blocks', row after row.
    """

    blocks: np.ndarray  # the padded last block included
    pads: np.ndarray  # the padding bits that fill a row's last block
    ok: np.ndarray  # kept blocks whose keys agree
    decodable: np.ndarray  # blocks whose syndrome the table covers
    kept: np.ndarray  # decodable blocks holding no padding: the final keys' blocks
    alice: np.ndarray  # the kept blocks' labels on the holders' side
    bob: np.ndarray  # and on the other side
    padding: np.ndarray  # each row's padding bits, row after row

    @property
    def block_yield(self) -> np.ndarray:
        """Each row's ``StreamResult.block_yield``: ok over unpadded blocks, 0.0 where there are none."""
        unpadded = self.blocks - (self.pads > 0)
        return np.divide(self.ok, unpadded, out=np.zeros(len(unpadded)), where=unpadded > 0)


def reconcile_blocks(
    pair: CssPair,
    error: np.ndarray,
    lengths: np.ndarray,
    rngs: Substream | Sequence[random.Random],
    group_size: int = 1,
) -> Reconciled:
    """Blockwise reconciliation of many rows at once, each with its own coins.

    Row r holds ``lengths[r]`` bits. ``error`` is every row's error (held XOR
    noisy, 0/1) followed by ``-lengths[r] % pair.c1.length`` zeros, row after
    row: both sides pad a row with the same public bits, so its padding holds
    no error. A row draws its padding, then every block's messages party by
    party, from its own coins of ``rngs`` (:func:`random_coins`). A block's
    codeword u is the XOR of its messages' codewords; the holders' key is u's
    label, the other side's the label of u plus the error once decoded. The
    blocks of all rows are read as one integer each, whose keys the pair's
    tables give with no matrix product.
    """
    if group_size < 1:
        raise ValueError("need at least one party")
    code = pair.c1
    lengths = np.asarray(lengths, dtype=np.intp)
    if (lengths < 0).any():
        row = int(np.argmax(lengths < 0))
        raise ValueError(f"row {row} has a negative length, {lengths[row]}")
    pads = -lengths % code.length
    if len(rngs) != len(lengths):
        raise ValueError(f"need one generator or substream seed per row: {len(rngs)} for {len(lengths)} rows")
    if len(error) != (lengths + pads).sum():
        raise ValueError(f"error must hold {(lengths + pads).sum()} bits, each row's and its padding, not {len(error)}")
    blocks = (lengths + pads) // code.length
    messages = blocks * (group_size * code.dimension)
    coins = random_coins(rngs, (pads + messages).tolist())
    # Row by row: the padding first, then the messages.
    is_pad = np.repeat(np.arange(2 * len(pads)) % 2 == 0, np.column_stack([pads, messages]).ravel())
    sent = _block_values(coins[~is_pad].reshape(-1, code.dimension))
    u = pair._codeword_values[np.bitwise_xor.reduce(sent.reshape(-1, group_size), axis=1)]
    key_alice = pair._label_table[u]
    key_bob = pair._decoded_labels[u ^ _block_values(error.reshape(-1, code.length))]
    decodable = key_bob >= 0
    kept = decodable.copy()
    starts = np.cumsum(blocks) - blocks
    kept[(starts + blocks - 1)[pads > 0]] = False  # part of a padded row's last block is public
    # Each row's count of each mask, summed over its blocks; a row of no blocks counts none.
    masks, filled = np.array([kept & (key_alice == key_bob), decodable, kept]), blocks > 0
    counts = np.zeros((3, len(blocks)), dtype=np.intp)
    counts[:, filled] = np.add.reduceat(masks, starts[filled], axis=1, dtype=np.intp)
    ok, decodable_count, kept_count = counts
    return Reconciled(blocks, pads, ok, decodable_count, kept_count, key_alice[kept], key_bob[kept], coins[is_pad])


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

    Each string is bytes, or a list or tuple of values in ``range(256)``, or an
    array, cast by ``astype(np.uint8)``; each value then stands for its low bit.
    All blocks are handled at once by :func:`reconcile_blocks`, the string
    being its one row, with the result :func:`reconcile` gives block by block,
    each block's codeword the XOR of its parties' messages read in turn from
    the coins of ``rng`` (:func:`random_coins`).
    """
    size = len(held)
    if len(noisy) != size:
        raise ValueError("both strings must have equal length")
    error = np.zeros(size + -size % pair.c1.length, dtype=np.uint8)
    # bytearray() reads a list or tuple faster than bytes() or numpy does, and refuses a value outside range(256).
    # The two strings' bytes are freed before the kernel runs.
    np.bitwise_xor(*(
        bits.astype(np.uint8) if isinstance(bits, np.ndarray) else np.frombuffer(bytearray(bits), np.uint8)
        for bits in (held, noisy)
    ), out=error[:size])
    error &= 1
    rec = reconcile_blocks(pair, error, [size], [rng], group_size)
    blocks, ok, decodable = (count.item() for count in (rec.blocks, rec.ok, rec.decodable))
    alice, bob = (tuple(pair._keys[labels].tobytes()) for labels in (rec.alice, rec.bob))
    return StreamResult(alice, bob, blocks, ok, blocks - decodable, tuple(rec.padding.tobytes()))


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

    decrypt = encrypt  # the same XOR


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
