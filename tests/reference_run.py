"""A whole run, position by position, through the per-qubit algebra of ``mpqss.qubits``.

The reference model of the engine: ``reference_run`` follows one trial qubit
by qubit with ``Qubit``, ``encode``, ``apply_value_flip``, ``apply_hadamard``,
``apply_pauli`` and ``measure``, and derives every per-run fact the engine
reports (``facts``). It draws nothing itself. ``recorded_draws`` wraps
``Substream.draw`` and logs each call as (phase, request, planes); the
reference reads the planes the engine drew from that log, and first checks
that each phase asked for what the protocol says it asks for. So it holds for
any random stream, and compares only how the engine wires the draws into a run.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

from mpqss import (
    ColluderInsider,
    InterceptResend,
    LossStrategy,
    OrderingAttack,
    PreparerInsider,
    Substream,
    Variant,
)
from mpqss.qubits import Pauli, apply_hadamard, apply_pauli, apply_value_flip, encode, measure

PAULI_OF_BIN = {1: Pauli.X, 2: Pauli.Y, 3: Pauli.Z}  # a bin of 4, or none drawn, is no error


@contextlib.contextmanager
def recorded_draws():
    """A list that collects (phase, request, planes) for every ``Substream.draw`` while open.

    Each plane has a row per trial, also for a stream of one seed.
    """
    log = []
    draw = Substream.draw

    def recording(self, *request):
        planes = draw(self, *request)
        rows = [plane[None] if isinstance(self.seeds, int) else plane for plane in planes]
        log.append((self.phase, request, [plane.tolist() for plane in rows]))
        return planes

    Substream.draw = recording
    try:
        yield log
    finally:
        Substream.draw = draw


class _Coin:
    """A generator whose ``getrandbits(1)`` gives a coin that the engine drew."""

    def __init__(self, bit: int):
        self.bit = bit

    def getrandbits(self, k: int) -> int:
        assert k == 1
        return self.bit


def _thresholds(*probabilities: float) -> list[int]:
    return [math.floor(c * 2.0**32) for c in probabilities]


def _xor(bits) -> int:
    out = 0
    for b in bits:
        out ^= b
    return out


def _bitmap(flags) -> str:
    return "".join("1" if f else "0" for f in flags)


def _shown(bits) -> str:
    """A payload of outcomes, '?' for None."""
    return "".join("?" if b is None else str(b) for b in bits)


@dataclass
class _Draws:
    """One trial's row of every phase's planes, handed out once per phase."""

    by_phase: dict

    def take(self, phase: str, *request) -> list[list[int]]:
        asked, planes = self.by_phase.pop(phase)
        asked = [(kind if isinstance(kind, int) else list(kind), units) for kind, units in asked]
        assert asked == list(request), phase
        return planes


def trial_draws(log, row: int) -> _Draws:
    """Row ``row`` of a log holding each phase's draw at most once, as one chunk draws them."""
    by_phase = {}
    for phase, request, planes in log:
        assert phase not in by_phase, f"phase {phase!r} drawn twice"
        by_phase[phase] = (request, [plane[row] for plane in planes])
    return _Draws(by_phase)


def reference_run(cfg, channel, draws: _Draws) -> dict:
    """The facts of one trial of ``cfg`` over ``channel``, qubit by qubit, from the engine's draws."""
    m, n, blocks = cfg.senders, cfg.receivers, cfg.blocks
    size = n * blocks
    adv = channel.adversary
    facts = {"losses": {}, "adversary": None}

    # Every sender's strings; a string of N bits governs each block's n positions.
    shared = cfg.variant is Variant.BLOCK_SHARED
    n_value = blocks if shared else size
    n_basis = size if cfg.variant is Variant.MAIN else blocks
    request = [(1, n_value), (1, n_basis)] * m + [(1, blocks * (n - 1))] * shared
    strings = draws.take("secrets", *request)

    def per_position(bits):
        return bits if len(bits) == size else [bits[k // n] for k in range(size)]

    values, bases = [], []
    for i in range(1, m + 1):
        value, basis = strings[2 * i - 2], strings[2 * i - 1]
        if i in cfg.omit_hadamard:
            basis = [0] * len(basis)
        if shared and i == 1:  # n-1 free shares per block, and the last share takes the parity
            free = strings[-1]
            value = [
                free[j * (n - 1) + l] if l < n - 1 else value[j] ^ _xor(free[j * (n - 1):(j + 1) * (n - 1)])
                for j in range(blocks) for l in range(n)
            ]
        values.append(per_position(value))
        bases.append(per_position(basis))
    combined = [_xor(b[k] for b in bases) for k in range(size)]
    expected = [_xor(v[k] for v in values) for k in range(size)]

    def intercept(kind, qubits, hit, plan, strip, coins):
        record = []
        for k in range(size):
            if hit[k]:
                q = qubits[k]
                outcome = measure(q, plan[k], _Coin(coins[k]))
                record.append((k, plan[k], outcome ^ strip[k], plan[k] == q.basis))
                qubits[k] = encode(outcome, plan[k])
        facts["adversary"] = (kind, *map(list, zip(*record))) if record else (kind, [], [], [], [])

    def hop(qubits, leaving):
        phase = f"hop{leaving}"
        if channel.loss_prob > 0.0 or channel.p_x + channel.p_y + channel.p_z > 0.0:
            kept = 1.0 - channel.loss_prob
            to_x = channel.loss_prob + kept * channel.p_x
            to_y = to_x + kept * channel.p_y
            to_z = to_y + kept * channel.p_z
            substitute = channel.loss_strategy is LossStrategy.SUBSTITUTE
            decision = (_thresholds(channel.loss_prob, to_x, to_y, to_z), size)
            bins, *fill = draws.take(phase, decision, *[(1, size)] * (2 if substitute else 0))
            newly = [False] * size
            for k in range(size):
                if qubits[k] is None:
                    continue
                if bins[k] == 0:
                    qubits[k] = encode(fill[0][k], fill[1][k]) if substitute else None
                    newly[k] = not substitute
                else:
                    qubits[k] = apply_pauli(qubits[k], PAULI_OF_BIN.get(bins[k], Pauli.I))
            if leaving < m and any(newly):
                facts["losses"][f"alice{leaving + 1}"] = _bitmap(newly)
        arrived = [q is not None for q in qubits]
        if isinstance(adv, InterceptResend) and leaving == m:  # on the last hop only
            if adv.fraction < 1.0:
                decision = (_thresholds(adv.fraction), size)
                chosen, plan, coins = draws.take("attack", decision, (1, size), (1, size))
                hit = [a and c == 0 for a, c in zip(arrived, chosen)]
            else:
                plan, coins = draws.take("attack", (1, size), (1, size))
                hit = arrived
            intercept("intercept-resend", qubits, hit, plan, [0] * size, coins)
        elif isinstance(adv, PreparerInsider) and leaving == adv.target:
            [coins] = draws.take("attack", (1, size))
            intercept("preparer-insider", qubits, arrived, bases[0], values[0], coins)
        elif isinstance(adv, ColluderInsider) and leaving == adv.target:
            [coins] = draws.take("attack", (1, size))
            shown = [i for i in adv.pool if i not in adv.withheld_bases]
            plan = [_xor(bases[i - 1][k] for i in shown) for k in range(size)]
            strip = [_xor(values[i - 1][k] for i in adv.pool) for k in range(size)]
            intercept("colluder-insider", qubits, arrived, plan, strip, coins)
        elif isinstance(adv, OrderingAttack) and leaving == m:
            guessed, coins = draws.take("attack", (1, size), (1, size))
            kind = "ordering-violation" if adv.use_announced_bases else "ordering-violation-blind"
            plan = combined if adv.use_announced_bases else guessed
            intercept(kind, qubits, arrived, plan, [0] * size, coins)
        return qubits

    qubits = [encode(values[0][k], bases[0][k]) for k in range(size)]
    for i in range(2, m + 1):
        qubits = hop(qubits, leaving=i - 1)
        for k in range(size):
            if qubits[k] is not None:
                q = apply_value_flip(qubits[k]) if values[i - 1][k] else qubits[k]
                qubits[k] = apply_hadamard(q) if bases[i - 1][k] else q

    if isinstance(adv, OrderingAttack) and adv.use_announced_bases and cfg.enforce_ordering:
        # The senders announce before any receiver acknowledged, which the run refuses.
        facts["abort_reason"] = "ordering violation"
        assert not draws.by_phase, sorted(draws.by_phase)
        return facts

    qubits = hop(qubits, leaving=m)
    # Receiver l holds position n*j + l-1 of block j.
    held = {l: [qubits[n * j + l - 1] for j in range(blocks)] for l in range(1, n + 1)}
    for l, mine in held.items():
        if None in mine:
            facts["losses"][f"bob{l}"] = _bitmap(q is None for q in mine)

    if cfg.quantum_memory:
        [coins] = draws.take("measure", (1, size))
        measured_in = combined
    else:
        coins, measured_in = draws.take("measure", (1, size), (1, size))
    outcomes, usable = {}, {}
    for l, mine in held.items():
        at = [n * j + l - 1 for j in range(blocks)]
        outcomes[l] = [
            None if q is None else measure(q, measured_in[k], _Coin(coins[k])) for q, k in zip(mine, at)
        ]
        usable[l] = [q is not None and measured_in[k] == combined[k] for q, k in zip(mine, at)]
    facts.update(outcomes=outcomes, usable=usable)

    # The check reveals the blocks of the ``want`` smallest keys, receivers in turn within each.
    [keys] = draws.take("check", (64, blocks))
    want = cfg.checked_block_count
    checked = sorted(sorted(range(blocks), key=keys.__getitem__)[:want])
    reveals = {l: [outcomes[l][j] if usable[l][j] else None for j in checked] for l in held}
    facts["check_blocks"] = tuple(checked)
    facts["check_senders"] = {
        i: _shown(values[i - 1][n * j + l - 1] for j in checked for l in held) for i in range(1, m + 1)
    }
    facts["check_receivers"] = {l: _shown(bits) for l, bits in reveals.items()}
    truth = {l: [expected[n * j + l - 1] for j in checked] for l in held}
    compared = sum(b is not None for l in held for b in reveals[l])
    disagreements = sum(b is not None and b != t for l in held for b, t in zip(reveals[l], truth[l]))
    qber = disagreements / compared if compared else 0.0
    threshold = cfg.qber_abort_threshold
    passed = qber <= threshold
    facts.update(compared=compared, disagreements=disagreements, qber=qber)
    facts["abort_reason"] = None if passed else f"error rate {qber:.6f} above threshold {threshold:.6f}"

    # Key bits: unchecked blocks usable at every receiver, each the XOR across receivers.
    key_blocks = [j for j in range(blocks) if j not in checked and all(usable[l][j] for l in held)]
    facts["key_blocks"] = tuple(key_blocks) if passed else ()
    facts["raw_key"] = tuple(_xor(outcomes[l][j] for l in held) for j in key_blocks) if passed else None
    facts["reference_key"] = (
        tuple(_xor(expected[n * j + l - 1] for l in held) for j in key_blocks) if passed else None
    )
    received = size - sum(q is None for q in qubits)
    kept = sum(usable[l][j] for l in held for j in range(blocks) if j not in checked)
    sifted = sum(sum(u) for u in usable.values())
    facts["sift_rate"] = sifted / received if received else 0.0
    facts["efficiency"] = kept / ((blocks - want) * n)
    assert not draws.by_phase, sorted(draws.by_phase)
    return facts


def facts(tr) -> dict:
    """The facts ``reference_run`` derives, as the engine's transcript ``tr`` reports them."""
    events = tr.events
    out = {
        "losses": {ev.party: ev.payload for ev in events if ev.kind == "loss"},
        "adversary": None,
        "abort_reason": tr.abort_reason,
    }
    if (rec := tr.adversary) is not None:
        planes = (rec.positions, rec.bases, rec.bits, rec.certain)
        out["adversary"] = (rec.kind, *(plane.tolist() for plane in planes))
    if tr.abort_reason is not None and tr.abort_reason.startswith("ordering violation"):
        out["abort_reason"] = "ordering violation"
        return out
    out.update(
        outcomes=tr.outcomes,
        usable=tr.usable,
        check_blocks=tr.check_blocks,
        check_senders={int(ev.party[5:]): ev.payload for ev in events if ev.kind == "check-sender"},
        check_receivers={int(ev.party[3:]): ev.payload for ev in events if ev.kind == "check-receiver"},
        compared=tr.compared,
        disagreements=tr.disagreements,
        qber=tr.qber,
        key_blocks=tr.key_blocks,
        raw_key=tr.raw_key,
        reference_key=tr.reference_key,
        sift_rate=tr.sift_rate,
        efficiency=tr.efficiency,
    )
    return out
