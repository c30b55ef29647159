"""Flow-class aggregation vs the per-session oracle.

The tentpole guarantee (DESIGN.md section 15): with unit usage
coefficients and no floor, serving k same-profile sessions through one
scaled aggregate flow completes every member at the bitwise-identical
instant the per-session solve would have -- across arrival patterns,
class mixes, and 200 seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore.env import Environment
from repro.simcore.flowclass import (
    FlowClass,
    FlowClassPool,
    _bank_columns,
    _ClassState,
)
from repro.simcore.fluid import FluidResource, FluidScheduler
from repro.util.rng import spawn_rngs


def _build_pool(aggregate):
    env = Environment()
    sched = FluidScheduler(env)
    wan = sched.add_resource(FluidResource("wan", 100.0))
    edge = sched.add_resource(FluidResource("edge", 60.0))
    pool = FlowClassPool(env, sched, aggregate=aggregate)
    classes = (
        FlowClass("bulk", {wan: 1.0}),
        FlowClass("interactive", {wan: 1.0, edge: 1.0}),
        FlowClass("local", {edge: 1.0}),
    )
    return env, pool, classes


def _run_workload(aggregate, seed, n_sessions=24):
    """Random arrivals against three classes; returns completion times."""
    env, pool, classes = _build_pool(aggregate)
    rng = spawn_rngs(seed, 1)[0]
    finished = {}

    def driver():
        for i in range(n_sessions):
            yield env.timeout(float(rng.exponential(0.4)))
            spec = classes[int(rng.integers(len(classes)))]
            work = float(rng.uniform(5.0, 150.0))
            done = pool.submit(spec, work, name=f"m{i}")
            done.callbacks.append(
                lambda _ev, name=f"m{i}": finished.__setitem__(name, env.now)
            )

    env.process(driver())
    env.run()
    return finished


@pytest.mark.parametrize("seed", range(200))
def test_aggregate_matches_oracle_bitwise(seed):
    """200 seeds: every member completes at the bitwise-same instant."""
    oracle = _run_workload(False, seed)
    aggregate = _run_workload(True, seed)
    assert oracle.keys() == aggregate.keys()
    for name in oracle:
        assert oracle[name] == aggregate[name], (
            f"seed {seed}: member {name} completed at "
            f"{aggregate[name]!r} aggregated vs {oracle[name]!r} oracle"
        )


def test_allocator_cost_scales_with_classes_not_members():
    """One class, many members: the solver touches one flow."""
    env, pool, classes = _build_pool(True)
    for i in range(50):
        pool.submit(classes[0], 10.0, name=f"m{i}")
    env.run()
    assert pool.stats.members_completed == 50
    assert pool.stats.classes == 1


def test_zero_work_completes_immediately():
    env, pool, classes = _build_pool(True)
    done = pool.submit(classes[0], 0.0, name="empty")
    assert done.triggered
    assert done.value == 0.0


def test_negative_work_rejected():
    env, pool, classes = _build_pool(True)
    with pytest.raises(ValueError, match="work"):
        pool.submit(classes[0], -1.0, name="bad")


def test_duplicate_member_name_rejected():
    env, pool, classes = _build_pool(True)
    pool.submit(classes[0], 5.0, name="twin")
    with pytest.raises(ValueError, match="duplicate member"):
        pool.submit(classes[0], 5.0, name="twin")


def test_class_redefinition_rejected():
    """Same class name with a different profile is a config error."""
    env = Environment()
    sched = FluidScheduler(env)
    wan = sched.add_resource(FluidResource("wan", 100.0))
    pool = FlowClassPool(env, sched, aggregate=True)
    pool.submit(FlowClass("fc", {wan: 1.0}), 5.0, name="a")
    with pytest.raises(ValueError, match="redefined"):
        pool.submit(FlowClass("fc", {wan: 1.0}, cap=3.0), 5.0, name="b")


def test_cap_is_per_member():
    """A capped class serves every member at the cap, not cap/k."""
    env = Environment()
    sched = FluidScheduler(env)
    wan = sched.add_resource(FluidResource("wan", 1000.0))
    pool = FlowClassPool(env, sched, aggregate=True)
    spec = FlowClass("capped", {wan: 1.0}, cap=10.0)
    done = []
    for i in range(4):
        done.append(pool.submit(spec, 100.0, name=f"m{i}"))
    assert pool.class_rate("capped") == 10.0
    env.run()
    # 100 units at 10/s each: all four finish together at t=10.
    assert [ev.value for ev in done] == [10.0] * 4


def test_set_class_cap_retunes_live_members():
    env = Environment()
    sched = FluidScheduler(env)
    wan = sched.add_resource(FluidResource("wan", 1000.0))
    pool = FlowClassPool(env, sched, aggregate=True)
    spec = FlowClass("capped", {wan: 1.0}, cap=10.0)
    done = pool.submit(spec, 100.0, name="m0")
    pool.set_class_cap(spec, 50.0)
    assert pool.class_rate("capped") == 50.0
    env.run()
    assert done.value == 2.0  # 100 units at 50/s from t=0


def test_oracle_mode_uses_one_flow_per_member():
    """aggregate=False is the per-session model: no class state."""
    env, pool, classes = _build_pool(False)
    for i in range(8):
        pool.submit(classes[0], 10.0, name=f"m{i}")
    assert pool.stats.classes == 0
    assert pool.active_members("bulk") == 0
    env.run()


def test_members_complete_in_admit_order_within_class():
    """Equal work at a shared rate: strict FIFO completion."""
    env, pool, classes = _build_pool(True)
    order = []
    for i in range(6):
        done = pool.submit(classes[0], 30.0, name=f"m{i}")
        done.callbacks.append(
            lambda _ev, i=i: order.append(i)
        )
    env.run()
    assert order == list(range(6))


def test_rejected_submit_is_not_counted():
    """A rejected duplicate or redefinition leaves the counters whole."""
    env, pool, classes = _build_pool(True)
    pool.submit(classes[0], 5.0, name="a")
    with pytest.raises(ValueError, match="duplicate member"):
        pool.submit(classes[0], 5.0, name="a")
    redefined = FlowClass("bulk", classes[0].usage, cap=1.0)
    with pytest.raises(ValueError, match="redefined"):
        pool.submit(redefined, 5.0, name="b")
    env.run()
    assert pool.stats.members_submitted == 1
    assert pool.stats.members_completed == 1


# -- the columnar banking sweep, bit for bit ----------------------------
def _scalar_bank(remaining, synced, old, now):
    """The per-member loop the columnar sweep replaces."""
    banked = []
    for rem, syn in zip(remaining, synced):
        mdt = now - syn
        if mdt > 0:
            rem = max(rem - old * mdt, 0.0)
        banked.append(rem)
    return np.array(banked, dtype=np.float64)


def _assert_bank_bitwise(remaining, synced, old, now):
    rem = np.array(remaining, dtype=np.float64)
    syn = np.array(synced, dtype=np.float64)
    expected = _scalar_bank(list(remaining), list(synced), old, now)
    with np.errstate(over="ignore"):
        _bank_columns(rem, syn, old, now)
    assert rem.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    assert (syn == now).all()


@pytest.mark.parametrize(
    "remaining", [0.0, -0.0, float("nan"), -1.0, 3.0, 1e-300]
)
@pytest.mark.parametrize("mdt", [0.0, 0.5, 1e9])
@pytest.mark.parametrize("old", [0.0, 2.0, float("inf")])
def test_bank_columns_edge_cases_match_scalar_max(remaining, mdt, old):
    now = 10.0
    _assert_bank_bitwise([remaining, 1.0], [now - mdt, now], old, now)


_bank_floats = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(
    columns=st.lists(st.tuples(_bank_floats, _bank_floats), max_size=40),
    old=st.floats(min_value=0.0, allow_infinity=True),
    now=st.floats(allow_nan=False, allow_infinity=False),
)
def test_bank_columns_matches_scalar_loop(columns, old, now):
    remaining = [rem for rem, _ in columns]
    synced = [syn for _, syn in columns]
    _assert_bank_bitwise(remaining, synced, old, now)


# -- the no-sweep submit path -------------------------------------------
def _capped_workload(aggregate, seed, n_sessions=18):
    """A cap-pinned class beside an uncapped one, with small late joiners.

    The capped class's cap (4/s) stays below its fair share of the
    100/s link for every mix of at most 18 members, so a join leaves
    its per-member rate bitwise unchanged and no banking sweep runs.
    Returns the completion times and, per capped join into a live
    class, whether the joiner skipped the sweep and became the head.
    """
    env = Environment()
    sched = FluidScheduler(env)
    wan = sched.add_resource(FluidResource("wan", 100.0))
    pool = FlowClassPool(env, sched, aggregate=aggregate)
    capped = FlowClass("capped", {wan: 1.0}, cap=4.0)
    bulk = FlowClass("bulk", {wan: 1.0})
    rng = spawn_rngs(seed, 1)[0]
    finished = {}
    quiet_joins = []

    def driver():
        for i in range(n_sessions):
            yield env.timeout(float(rng.exponential(0.5)))
            spec = capped if rng.random() < 0.6 else bulk
            late = i >= n_sessions // 3 and rng.random() < 0.5
            work = float(
                rng.uniform(0.2, 2.0) if late else rng.uniform(20.0, 60.0)
            )
            state = pool._classes.get(spec.name)
            live = state is not None and state.agg is not None
            epoch = state.epoch if live else None
            done = pool.submit(spec, work, name=f"m{i}")
            if live and spec is capped:
                quiet = state.epoch == epoch
                head = state.order[0][2].name == f"m{i}"
                quiet_joins.append((quiet, quiet and head))
            done.callbacks.append(
                lambda _ev, name=f"m{i}": finished.__setitem__(name, env.now)
            )

    env.process(driver())
    env.run()
    return finished, quiet_joins


@pytest.mark.parametrize("seed", range(100))
def test_no_sweep_joins_match_oracle_bitwise(seed, monkeypatch):
    """Joins that leave the class rate unchanged, 100 seeds, bitwise."""
    oracle, _ = _capped_workload(False, seed)
    inner_removals = []
    swap_remove = _ClassState.swap_remove

    def watched(state, member):
        inner_removals.append(member.slot != len(state.members) - 1)
        swap_remove(state, member)

    monkeypatch.setattr(_ClassState, "swap_remove", watched)
    aggregate, quiet_joins = _capped_workload(True, seed)
    assert oracle.keys() == aggregate.keys()
    for name in oracle:
        assert oracle[name] == aggregate[name], (
            f"seed {seed}: member {name} completed at "
            f"{aggregate[name]!r} aggregated vs {oracle[name]!r} oracle"
        )
    assert any(head for _, head in quiet_joins), "no quiet join led"
    assert any(inner_removals), "no completion left from a non-last slot"
