"""The engine against the whole-run reference of ``reference_run``, over the space of runs.

Each example runs ``run_protocol`` for one seed and ``run_chunks`` for a
batch of seeds with every ``Substream.draw`` recorded, and checks every
trial's facts against the per-qubit reference run on the same draws.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from mpqss import (
    ChannelModel,
    ColluderInsider,
    InterceptResend,
    LossStrategy,
    OrderingAttack,
    PreparerInsider,
    ProtocolConfig,
    Variant,
    run_chunks,
    run_protocol,
)
from reference_run import facts, recorded_draws, reference_run, trial_draws

SEEDS = st.integers(0, 2**64 - 1)


@st.composite
def runs(draw):
    """A (config, channel) pair: m, n in 2..4, N up to 24, any variant, loss, noise and adversary."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    variant = draw(st.sampled_from(Variant))
    if variant is Variant.BLOCK_SHARED:
        n = 3  # needs an odd receiver count
    cfg = ProtocolConfig(
        m, n, draw(st.integers(2, 24)),
        variant=variant,
        check_fraction=draw(st.sampled_from([0.25, 0.5])),
        qber_abort_threshold=draw(st.sampled_from([0.11, 0.99])),  # 0.99 lets most runs reach a key
        quantum_memory=draw(st.booleans()),
        enforce_ordering=draw(st.booleans()),
        omit_hadamard=frozenset(draw(st.sets(st.integers(2, m)))),
    )
    adversaries = [st.none(), st.builds(InterceptResend, st.sampled_from([0.3, 1.0])), st.just(PreparerInsider()),
                   st.builds(OrderingAttack, st.booleans())]
    if m >= 3:
        adversaries.append(colluders(m))
    channel = ChannelModel(
        loss_prob=draw(st.sampled_from([0.0, 0.2])),
        p_x=draw(st.sampled_from([0.0, 0.1])),
        p_y=draw(st.sampled_from([0.0, 0.1])),
        p_z=draw(st.sampled_from([0.0, 0.1])),
        loss_strategy=draw(st.sampled_from(LossStrategy)),
        adversary=draw(st.one_of(adversaries)),
    )
    return cfg, channel


@st.composite
def colluders(draw, senders):
    target = draw(st.integers(3, senders))
    pool = draw(st.one_of(st.none(), st.sets(st.integers(1, target - 1)).map(frozenset)))
    known = range(1, target) if pool is None else pool
    withheld = frozenset(draw(st.sets(st.sampled_from(sorted(known)))) if known else ())
    return ColluderInsider(target, pool, withheld)


@settings(max_examples=150, deadline=None)
@given(runs(), SEEDS)
def test_one_run_is_its_reference(run, seed):
    cfg, channel = run
    cfg = replace(cfg, seed=seed)
    with recorded_draws() as log:
        tr = run_protocol(cfg, channel)
    assert facts(tr) == reference_run(cfg, channel, trial_draws(log, 0))


@settings(max_examples=60, deadline=None)
@given(runs(), st.lists(SEEDS, min_size=1, max_size=4))
def test_every_row_of_a_batch_is_its_reference(run, seeds):
    cfg, channel = run
    with recorded_draws() as log:
        chunk = next(run_chunks(cfg, channel, seeds))
    assert len(chunk) == len(seeds)  # one chunk: each phase drew once, a row per trial
    for t, tr in enumerate(chunk):
        assert facts(tr) == reference_run(cfg, channel, trial_draws(log, t))
