"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Statistical criteria use fixed seeds, stated
tolerances, and independently computed oracles.
"""

import math
import random
import time

import pytest

import known_vectors as kv
from mpqss import (
    ChannelModel,
    ColluderInsider,
    ConfigError,
    ExperimentSpec,
    InterceptResend,
    OrderingAttack,
    OrderingError,
    PreparerInsider,
    ProtocolConfig,
    Transcript,
    Variant,
    announce_bases,
    build_canonical_css,
    encode_block,
    expanded_bit_vectors,
    key_rate,
    otp_send,
    position,
    prepare_block,
    reconcile,
    reconcile_stream,
    recovered_raw_key,
    run_experiment,
    run_protocol,
    split_for_receivers,
    xor_bits,
)


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_worked_example_bit_exact():
    """The fixed 18-qubit strings reproduce every intermediate, bit for bit."""
    cfg = kv.config()
    s1, s2 = kv.secrets()

    first = prepare_block(s1, cfg)
    assert " ".join(q.ket() for q in first.qubits) == kv.FIRST_BLOCK_KETS
    second = encode_block(first, s2, 2, cfg)
    assert " ".join(q.ket() for q in second.qubits) == kv.SECOND_BLOCK_KETS
    for got, want in zip(split_for_receivers(second, cfg), kv.RECEIVER_KETS):
        assert " ".join(q.ket() for q in got) == want

    tr = run_protocol(cfg, secrets=kv.secrets(), check_blocks=kv.CHECK_BLOCKS)
    assert tuple(tr.outcomes[1]) == (0, 1, 1, 0, 1, 0)
    assert tuple(tr.outcomes[2]) == (1, 0, 0, 0, 0, 1)
    assert tuple(tr.outcomes[3]) == (1, 0, 1, 1, 0, 1)
    assert tr.raw_key == (1, 0, 1, 0)

    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        run_protocol(kv.config(), secrets=kv.secrets(), check_blocks=kv.CHECK_BLOCKS)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3, f"single run took {best*1e3:.3f} ms"
    report("criterion 1", f"reference vectors exact, run in {best*1e3:.3f} ms")


def test_criterion_2_randomized_honest_correctness():
    """1000 honest ideal runs over the full party grid: zero key mismatches.

    A single-block geometry cannot hold back both a checked and an unchecked
    block, so those draws must be rejected at configuration time; they are
    verified as rejections and redrawn.
    """
    rng = random.Random(20_2020)
    runs = 0
    rejected_single_block = 0
    mismatches = 0
    while runs < 1000:
        variant = rng.choice(list(Variant))
        senders = rng.randint(2, 5)
        receivers = rng.randint(2, 5)
        if variant is Variant.BLOCK_SHARED and receivers % 2 == 0:
            receivers += 1
        blocks = rng.randint(1, 32)
        if blocks == 1:
            with pytest.raises(ConfigError):
                ProtocolConfig(senders=senders, receivers=receivers, blocks=1, variant=variant)
            rejected_single_block += 1
            continue
        cfg = ProtocolConfig(
            senders=senders,
            receivers=receivers,
            blocks=blocks,
            variant=variant,
            seed=rng.getrandbits(48),
        )
        tr = run_protocol(cfg)
        assert tr.abort_reason is None and tr.qber == 0.0
        values, _ = expanded_bit_vectors(tr._secrets, cfg)
        for l in range(1, receivers + 1):
            for j in range(blocks):
                expected = 0
                for sender_bits in values:
                    expected ^= sender_bits[position(j, l, receivers)]
                if tr.outcomes[l][j] != expected:
                    mismatches += 1
        if tr.raw_key != tr.reference_key:
            mismatches += 1
        runs += 1
    assert mismatches == 0
    report(
        "criterion 2",
        f"{runs} honest runs, 0 mismatches ({rejected_single_block} single-block draws rejected)",
    )


def test_criterion_3_interception_statistics():
    """Full interception: 25% checked-position disagreement and 1-(3/4)^c detection."""
    eve = ChannelModel(adversary=InterceptResend())

    cfg = ProtocolConfig(
        senders=2, receivers=4, blocks=5000, qber_abort_threshold=0.11, seed=333
    )
    tr = run_protocol(cfg, eve)
    compared = tr.compared
    assert compared == 10_000
    assert abs(tr.qber - 0.25) <= 0.02
    assert 0.23 <= tr.qber <= 0.27

    details = [f"qber {tr.qber:.4f} over {compared} positions"]
    for c, blocks, trials in ((5, 2, 10_000), (10, 4, 10_000), (20, 8, 1000)):
        spec = ExperimentSpec(
            protocol=ProtocolConfig(senders=2, receivers=5, blocks=blocks, seed=0),
            channel=eve,
            trials=trials,
            metrics=("detection_prob",),
            seed=4001,
        )
        got = run_experiment(spec).metrics["detection_prob"].mean
        want = 1 - 0.75**c
        assert abs(got - want) <= 0.02, f"c={c}: {got} vs {want}"
        details.append(f"detect(c={c}) {got:.4f} vs {want:.4f}")
    report("criterion 3", "; ".join(details))


def test_criterion_4_efficiency_with_and_without_storage():
    stored = ExperimentSpec(
        protocol=ProtocolConfig(senders=2, receivers=3, blocks=6),
        trials=50,
        metrics=("efficiency",),
        seed=44,
    )
    with_memory = run_experiment(stored).metrics["efficiency"]
    assert with_memory.mean == 1.0 and with_memory.stderr == 0.0

    unstored = ExperimentSpec(
        protocol=ProtocolConfig(senders=2, receivers=3, blocks=6, quantum_memory=False),
        trials=1000,
        metrics=("efficiency",),
        seed=45,
    )
    without_memory = run_experiment(unstored).metrics["efficiency"]
    assert abs(without_memory.mean - 0.5) <= 0.02
    report(
        "criterion 4",
        f"stored {with_memory.mean:.1f} exactly, unstored {without_memory.mean:.4f}",
    )


def _insider_certain_accuracy(adversary, senders, target, omit, trials, seed0):
    """Mean provably-recovered fraction over seeded trials.

    'Recovered' counts positions the interceptor decodes in a valid basis
    (knowable once the basis strings go public); positions that merely match
    by coin flip are not recoveries.
    """
    total = 0.0
    for i in range(trials):
        cfg = ProtocolConfig(
            senders=senders,
            receivers=3,
            blocks=4,
            seed=seed0 + i,
            omit_hadamard=frozenset({target}) if omit else frozenset(),
        )
        tr = run_protocol(cfg, ChannelModel(adversary=adversary))
        rec = tr.adversary
        truth = [s for s in tr._secrets if s.party == f"alice{target}"][0].value_bits
        hits = sum(
            1 for p, b, ok in zip(rec.positions, rec.bits, rec.certain) if ok and b == truth[p]
        )
        total += hits / len(rec.positions)
    return total / trials


def test_criterion_5_insider_attacks_need_the_basis_mix():
    trials = 1000
    case1_off = _insider_certain_accuracy(PreparerInsider(), 2, 2, True, trials, 50_000)
    case1_on = _insider_certain_accuracy(PreparerInsider(), 2, 2, False, trials, 60_000)
    assert case1_off == 1.0
    assert abs(case1_on - 0.5) <= 0.02

    colluders = ColluderInsider(target=3)
    case2_off = _insider_certain_accuracy(colluders, 3, 3, True, trials, 70_000)
    case2_on = _insider_certain_accuracy(colluders, 3, 3, False, trials, 80_000)
    assert case2_off == 1.0
    assert abs(case2_on - 0.5) <= 0.02
    report(
        "criterion 5",
        f"preparer {case1_off:.1f}/{case1_on:.4f}, colluders {case2_off:.1f}/{case2_on:.4f} "
        "(mix omitted / applied)",
    )


def test_criterion_6_announcement_ordering_gate():
    # Enforcement on: the early broadcast is refused outright, both at the
    # operation level and inside an attack-driven run.
    cfg = ProtocolConfig(senders=2, receivers=3, blocks=6, seed=61)
    bare = Transcript(cfg.snapshot())
    with pytest.raises(OrderingError):
        announce_bases(bare, 1, (0,) * 18, cfg)
    tr = run_protocol(cfg, ChannelModel(adversary=OrderingAttack()))
    assert tr.abort_reason is not None and "ordering" in tr.abort_reason
    assert tr.raw_key is None and tr.adversary is None

    # Enforcement off: the interceptor reads the whole raw key, exactly.
    exact = 0
    for seed in range(20):
        cfg = ProtocolConfig(
            senders=3, receivers=3, blocks=8, seed=seed, enforce_ordering=False
        )
        tr = run_protocol(cfg, ChannelModel(adversary=OrderingAttack()))
        rec = tr.adversary
        recovered = recovered_raw_key(rec.bits, rec.positions, tr.key_blocks, cfg)
        assert recovered == tr.raw_key
        exact += 1
    report("criterion 6", f"early announcement rejected; {exact}/20 attack runs read the key exactly")


def test_criterion_7_shared_block_variant_needs_odd_receivers():
    with pytest.raises(ConfigError, match="odd receiver"):
        ProtocolConfig(senders=3, receivers=4, blocks=8, variant=Variant.BLOCK_SHARED)

    # Diagnostic with validation bypassed: the key collapses onto the first
    # sender's bits, so knowing those alone predicts it perfectly.
    hits = total = 0
    for seed in range(20):
        cfg = ProtocolConfig(
            senders=3,
            receivers=4,
            blocks=8,
            variant=Variant.BLOCK_SHARED,
            seed=seed,
            unsafe_skip_validation=True,
        )
        tr = run_protocol(cfg)
        first_sender_bits = tr._secrets[0].value_bits
        for idx, j in enumerate(tr.key_blocks):
            total += 1
            hits += tr.raw_key[idx] == first_sender_bits[j]
    assert hits == total
    report("criterion 7", f"even receiver count rejected; bypassed runs leak {hits}/{total} key bits")


def test_criterion_8_postprocessing_pipeline():
    assert key_rate(0.0) == 1.0
    assert key_rate(0.5) == 0.0
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-7:
        mid = (lo + hi) / 2
        if key_rate(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(lo - 0.110) <= 0.001

    pair = build_canonical_css()
    for w in pair.c2.codewords():
        assert pair.c1.contains(w)
    weights = sorted(int(w.sum()) for w in pair.c1.codewords() if w.any())
    assert weights[0] == 3
    assert pair.key_bits == 1 and len(pair.cosets()) == 2

    rng = random.Random(88)
    v = [rng.getrandbits(1) for _ in range(7)]
    for u in pair.c1.codewords():
        for pos in range(7):
            noisy = list(v)
            noisy[pos] ^= 1
            assert reconcile(pair, v, noisy, u).agreed

    p = 0.02
    oracle = (1 - p) ** 7 + 7 * p * (1 - p) ** 6
    agreed = 0
    for _ in range(1000):
        blk = [rng.getrandbits(1) for _ in range(7)]
        noisy = [b ^ (1 if rng.random() < p else 0) for b in blk]
        agreed += reconcile(pair, blk, noisy, pair.c1.random_codeword(rng)).agreed
    assert abs(agreed / 1000 - oracle) <= 0.01

    cfg = ProtocolConfig(senders=2, receivers=3, blocks=80, seed=89)
    tr = run_protocol(cfg)
    stream = reconcile_stream(pair, tr.reference_key, tr.raw_key, rng, group_size=2)
    assert stream.final_alice == stream.final_bob and stream.block_yield == 1.0
    message = [rng.getrandbits(1) for _ in range(len(stream.final_alice))]
    ciphertext = otp_send(message, [stream.final_alice])
    assert xor_bits(ciphertext, stream.final_bob) == tuple(message)
    report(
        "criterion 8",
        f"rate zero-crossing at {lo:.6f}; code checks exhaustive; "
        f"yield {agreed/1000:.4f} vs oracle {oracle:.4f}; one-time pad round trip exact",
    )
