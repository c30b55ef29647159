"""Flow classes: aggregate same-profile sessions into one fluid flow.

A :class:`FlowClass` describes a *profile* -- the per-member usage
coefficients, rate cap and QoS floor shared by every session of that
profile (e.g. "home viewer behind a 45 Mb/s WAN path"). A
:class:`FlowClassPool` admits individual member transfers against a
class and serves them through **one** aggregate
:class:`~repro.simcore.fluid.FluidTask` per class, so the allocator's
re-solve cost scales with the number of *profiles*, not the number of
concurrent sessions (DESIGN.md section 15).

The aggregate flow is a *per-member representative*: its usage
coefficients are the class coefficients scaled by the live member
count ``k`` (``usage[r] = k * c_r``) while its cap and floor stay
per-member, so the rate the solver assigns **is** the per-member rate
-- no division round-trip. Member progress is banked with exactly the
arithmetic :class:`~repro.simcore.fluid.FluidScheduler` uses
(``remaining = max(remaining - rate*dt, 0)`` at each bitwise rate
change, ``eta = now + remaining/rate``), at exactly the instants the
allocator banks (the ``FluidTask.on_rate`` hook), which makes member
completion times bitwise identical to running one fluid flow per
member whenever

* the class usage coefficients are ``1.0`` (``k`` repeated additions
  of 1.0 equal ``k * 1.0`` exactly -- integer float sums), and
* the class floor is 0 (phase-1 floor grants sum per flow).

With non-unit coefficients or floors the aggregation is still exact
weighted max-min fairness, but float rounding may differ from the
per-session solve by ulps. ``FlowClassPool(aggregate=False)`` runs the
same API as a per-session oracle (PR 5 style: one FluidTask per
member) -- parity tests pin the two modes against each other.

Within one class, members complete in fixed order (all members
progress at the shared per-member rate, so relative order is set by
remaining work at join time); the pool tracks that order with a
cumulative-progress threshold heap. Member progress lives in two
float64 columns per class, ``remaining`` and ``synced`` (grown by
doubling, swap-removed on completion), so a bitwise rate change banks
the whole class in one vectorised pass whose elements carry exactly
the bits of the scalar loop. Only the class head's ETA is ever read,
so only the head's is computed (``_refresh_member``, from its column
entries and the class rate) when it is queued on the pool wake heap;
a wake-heap entry stays valid while the class *epoch* -- bumped at
every banking sweep -- is unchanged. A rate change therefore costs
O(1) Python work per class plus one vectorised pass over its
members, and a join/complete O(log members) -- never a per-session
flow in the solver.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.simcore.events import Event
from repro.simcore.fluid import (
    _CAP_SENTINEL,
    _WORK_EPS,
    FluidResource,
    FluidScheduler,
    FluidTask,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.env import Environment


class FlowClass:
    """A session profile: per-member usage, rate cap and QoS floor."""

    def __init__(
        self,
        name: str,
        usage: Mapping[FluidResource, float],
        cap: float = float("inf"),
        floor: float = 0.0,
    ):
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        if floor < 0:
            raise ValueError(f"floor must be >= 0, got {floor}")
        for coeff in usage.values():
            if coeff < 0:
                raise ValueError(f"usage must be >= 0, got {coeff}")
        self.name = name
        self.usage = dict(usage)
        self.cap = float(cap)
        self.floor = float(floor)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FlowClass({self.name!r}, cap={self.cap:.3g})"


_MIN_COLUMN = 8  # initial column capacity of a class


class _Member:
    """One admitted transfer inside a class.

    Its progress lives in the class's columns at ``slot``; the slot
    moves when another member is swap-removed from the class.
    """

    __slots__ = ("name", "slot", "seq", "active", "done", "state")

    def __init__(self, name: str, seq: int, state: "_ClassState", done: Event):
        self.name = name
        self.slot = -1
        self.seq = seq  # global admit order; breaks completion ties
        self.active = True
        self.done = done
        self.state = state


class _ClassState:
    """Live members, their progress columns and the class's aggregate."""

    __slots__ = (
        "spec",
        "agg",
        "names",
        "members",
        "remaining",
        "synced",
        "order",
        "progress",
        "p_synced",
        "rate",
        "epoch",
    )

    def __init__(self, spec: FlowClass):
        self.spec = spec
        self.agg: Optional[FluidTask] = None
        self.names: Set[str] = set()
        #: live members by slot; ``remaining[i]`` and ``synced[i]``
        #: (work left as of ``synced[i]``) belong to ``members[i]``.
        #: Only the first ``len(members)`` column entries are live.
        self.members: List[_Member] = []
        self.remaining = np.empty(_MIN_COLUMN, dtype=np.float64)
        self.synced = np.empty(_MIN_COLUMN, dtype=np.float64)
        #: completion-order heap keyed by the cumulative per-member
        #: progress at which each member finishes (progress-at-join +
        #: work). All members drain at the shared rate, so this order
        #: is invariant between joins.
        self.order: List[Tuple[float, int, _Member]] = []
        self.progress = 0.0  # cumulative per-member work served
        self.p_synced = 0.0
        self.rate = 0.0  # mirror of agg.rate (per-member)
        #: banking sweeps so far; a wake entry is live only while the
        #: epoch it was pushed at is current.
        self.epoch = 0

    def append(self, member: _Member, work: float, now: float) -> None:
        slot = len(self.members)
        if slot == len(self.remaining):
            self.remaining = np.resize(self.remaining, 2 * slot)
            self.synced = np.resize(self.synced, 2 * slot)
        self.remaining[slot] = work
        self.synced[slot] = now
        member.slot = slot
        self.members.append(member)

    def swap_remove(self, member: _Member) -> None:
        last = self.members.pop()
        if last is not member:
            slot, tail = member.slot, len(self.members)
            self.remaining[slot] = self.remaining[tail]
            self.synced[slot] = self.synced[tail]
            self.members[slot] = last
            last.slot = slot


def _bank_columns(
    remaining: np.ndarray, synced: np.ndarray, old: float, now: float
) -> None:
    """Bank every member's progress at rate ``old`` up to ``now``.

    Elementwise the scalar fluid banking, ``if mdt > 0: remaining =
    max(remaining - old*mdt, 0.0)``, with the same bits:
    ``np.where(x < 0.0, 0.0, x)`` keeps ``-0.0`` and NaN exactly as
    ``max(x, 0.0)`` does (``np.maximum`` would not), and the
    ``mdt > 0`` mask discards the ``inf*0`` lanes.
    """
    mdt = now - synced
    with np.errstate(invalid="ignore"):
        x = remaining - old * mdt
        np.copyto(remaining, np.where(x < 0.0, 0.0, x), where=mdt > 0)
    synced.fill(now)


@dataclass
class FlowClassStats:
    """Counters for the pool (``FlowClassPool.stats``)."""

    classes: int = 0  # aggregate flows created (class activations)
    members_submitted: int = 0
    members_completed: int = 0
    disaggregations: int = 0  # banking sweeps (aggregate rate changes)
    wakes_scheduled: int = 0
    stale_wakes: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "classes": self.classes,
            "members_submitted": self.members_submitted,
            "members_completed": self.members_completed,
            "disaggregations": self.disaggregations,
            "wakes_scheduled": self.wakes_scheduled,
            "stale_wakes": self.stale_wakes,
        }


# Pool wake-heap entry: (eta, push id, member, class epoch, horizon,
# anchor) -- same shape and arming discipline as the fluid ETA heap.
_HeapEntry = Tuple[float, int, _Member, int, float, float]


class FlowClassPool:
    """Admits member transfers against flow classes.

    ``aggregate=True`` (default) serves each class through one scaled
    aggregate flow; ``aggregate=False`` is the per-session oracle --
    every member becomes its own :class:`FluidTask`, exactly the PR 4/5
    serving model. Both return an event whose value is the member's
    completion time.
    """

    def __init__(
        self,
        env: "Environment",
        sched: FluidScheduler,
        *,
        aggregate: bool = True,
    ):
        self.env = env
        self.sched = sched
        self.aggregate = bool(aggregate)
        self._classes: Dict[str, _ClassState] = {}
        self._heap: List[_HeapEntry] = []
        self._push_ids = 0
        self._seq_ids = 0
        self._wake_token = 0
        self._next_wake = float("inf")
        self.stats = FlowClassStats()

    # -- introspection -------------------------------------------------------
    def active_members(self, class_name: str) -> int:
        """Live member count of ``class_name`` (0 if idle/unknown)."""
        state = self._classes.get(class_name)
        return len(state.members) if state is not None else 0

    def class_rate(self, class_name: str) -> float:
        """Current per-member rate of ``class_name`` (0 if idle)."""
        state = self._classes.get(class_name)
        return state.rate if state is not None and state.agg is not None else 0.0

    # -- admission -----------------------------------------------------------
    def submit(self, spec: FlowClass, work: float, name: str) -> Event:
        """Admit one member transfer of ``work`` units against ``spec``.

        Returns the event fired at completion; its value is the
        completion time (matching ``FluidScheduler.submit``). A
        rejected submit (negative work, duplicate member name, class
        redefinition) leaves the pool and its counters untouched.
        """
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        if not self.aggregate:
            task = FluidTask(
                name, work, spec.usage, cap=spec.cap, floor=spec.floor
            )
            done = self.sched.submit(task)
            self.stats.members_submitted += 1
            return done
        now = self.env.now
        if work <= _WORK_EPS:
            done = Event(self.env)
            done.succeed(now)
            self.stats.members_submitted += 1
            self.stats.members_completed += 1
            return done
        state = self._state_of(spec)
        if name in state.names:
            raise ValueError(f"duplicate member name {name!r}")
        self.stats.members_submitted += 1
        work = float(work)
        self._seq_ids += 1
        member = _Member(name, self._seq_ids, state, Event(self.env))
        # Sync cumulative progress to now so the ordering threshold is
        # comparable with members admitted at other instants.
        if state.agg is not None:
            dt = now - state.p_synced
            if dt > 0:
                state.progress += state.rate * dt
        state.p_synced = now
        state.names.add(name)
        state.append(member, work, now)
        heapq.heappush(
            state.order, (state.progress + work, member.seq, member)
        )
        epoch = state.epoch
        if state.agg is None:
            agg = FluidTask(
                f"fc:{spec.name}",
                float("inf"),
                spec.usage,
                cap=self._member_cap(state),
                floor=spec.floor,
            )
            agg.on_rate = (
                lambda task, old, new, t, st=state:  # type: ignore[misc]
                self._on_agg_rate(st, old, new, t)
            )
            state.agg = agg
            state.rate = 0.0
            self.stats.classes += 1
            self.sched.submit(agg)
        else:
            agg = state.agg
            agg.cap = self._member_cap(state)
            self.sched.set_usage(agg, self._scaled_usage(state))
        # If the solve left the per-member rate bitwise unchanged (a
        # cap-pinned class with slack), no banking sweep ran, and the
        # newcomer may now be the head: queue the head at the
        # standing rate.
        if state.epoch == epoch:
            self._push_head(state)
            self._arm_wake()
        return member.done

    def set_class_cap(self, spec: FlowClass, cap: float) -> None:
        """Change a class's per-member cap for current and future members."""
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        spec.cap = float(cap)
        state = self._classes.get(spec.name)
        if state is not None and state.agg is not None:
            self.sched.set_cap(state.agg, self._member_cap(state))

    # -- internals -----------------------------------------------------------
    def _state_of(self, spec: FlowClass) -> _ClassState:
        state = self._classes.get(spec.name)
        if state is None:
            state = _ClassState(spec)
            self._classes[spec.name] = state
        elif state.spec is not spec:
            same = (
                state.spec.usage == spec.usage
                and state.spec.cap == spec.cap
                and state.spec.floor == spec.floor
            )
            if not same:
                raise ValueError(
                    f"flow class {spec.name!r} redefined with a different "
                    f"profile"
                )
        return state

    def _scaled_usage(self, state: _ClassState) -> Dict[FluidResource, float]:
        k = len(state.members)
        return {r: c * k for r, c in state.spec.usage.items()}

    def _member_cap(self, state: _ClassState) -> float:
        """Finite per-member cap, mirroring the fluid stand-in.

        An uncapped per-session flow gets ``min(capacity/coeff)`` as
        its finite stand-in; the aggregate must carry the *per-member*
        number (its scaled coefficients would otherwise shrink the
        stand-in by ``k``), so the pool computes it here from current
        capacities at every membership change.
        """
        if state.spec.cap != float("inf"):
            return state.spec.cap
        best = float("inf")
        for res, coeff in state.spec.usage.items():
            if coeff > 0:
                best = min(best, res.capacity / coeff)
        return best if best != float("inf") else _CAP_SENTINEL

    def _on_agg_rate(
        self, state: _ClassState, old: float, new: float, now: float
    ) -> None:
        """Bank every member at the outgoing rate; re-queue the head.

        Runs from inside the allocator's solve (the ``on_rate`` hook),
        so it must not mutate the scheduler -- it only touches pool
        state and arms the pool's own wake timeout.
        """
        state.rate = new
        dt = now - state.p_synced
        if dt > 0:
            state.progress += old * dt
        state.p_synced = now
        n = len(state.members)
        _bank_columns(state.remaining[:n], state.synced[:n], old, now)
        state.epoch += 1
        self.stats.disaggregations += 1
        self._push_head(state)
        self._arm_wake()

    def _refresh_member(
        self, state: _ClassState, member: _Member
    ) -> Tuple[float, float, float]:
        """``member``'s ``(eta, horizon, anchor)`` at the class rate."""
        anchor = float(state.synced[member.slot])
        if state.rate > 0:
            horizon = float(state.remaining[member.slot]) / state.rate
            return anchor + horizon, horizon, anchor
        return float("inf"), float("inf"), anchor

    def _push_head(self, state: _ClassState) -> None:
        """Queue the class's next completion on the pool wake heap."""
        order = state.order
        while order and not order[0][2].active:
            heapq.heappop(order)
        if not order:
            return
        head = order[0][2]
        eta, horizon, anchor = self._refresh_member(state, head)
        if eta == float("inf"):
            return
        self._push_ids += 1
        heapq.heappush(
            self._heap,
            (eta, self._push_ids, head, state.epoch, horizon, anchor),
        )

    def _arm_wake(self) -> None:
        """One outstanding timeout covering the earliest member ETA.

        Identical discipline to ``FluidScheduler._arm_wake``: lazy
        deletion of superseded entries, re-arm only when the earliest
        completion moved earlier, and the raw horizon reused when
        arming at the anchor instant so the wake lands exactly on
        ``fl(anchor + horizon)``.
        """
        heap = self._heap
        while heap:
            _eta, _pid, member, epoch, _horizon, _t0 = heap[0]
            if member.active and member.state.epoch == epoch:
                break
            heapq.heappop(heap)
        if not heap:
            self._next_wake = float("inf")
            return
        eta, _pid, _member, _epoch, horizon, t0 = heap[0]
        if eta >= self._next_wake:
            return
        self._wake_token += 1
        self._next_wake = eta
        self.stats.wakes_scheduled += 1
        token = self._wake_token
        delay = horizon if self.env.now == t0 else max(eta - self.env.now, 0.0)
        wake = self.env.timeout(delay)
        wake.callbacks.append(lambda _ev, tok=token: self._on_wake(tok))

    def _on_wake(self, token: int) -> None:
        if token != self._wake_token:
            self.stats.stale_wakes += 1
            return
        self._next_wake = float("inf")
        now = self.env.now
        heap = self._heap
        while heap:
            eta, _pid, member, epoch, _horizon, _t0 = heap[0]
            if not (member.active and member.state.epoch == epoch):
                heapq.heappop(heap)
                continue
            if eta > now:
                break
            heapq.heappop(heap)
            self._complete_member(member, now)
        self._arm_wake()

    def _complete_member(self, member: _Member, now: float) -> None:
        state = member.state
        member.active = False
        state.names.remove(member.name)
        state.swap_remove(member)
        self.stats.members_completed += 1
        member.done.succeed(now)
        if not state.members:
            agg = state.agg
            state.agg = None
            state.rate = 0.0
            state.order = []
            state.progress = 0.0
            if agg is not None:
                agg.on_rate = None  # no members left to disaggregate to
                self.sched.withdraw(agg)
        else:
            agg = state.agg
            assert agg is not None  # members imply a live aggregate
            agg.cap = self._member_cap(state)
            self.sched.set_usage(agg, self._scaled_usage(state))
            # If the per-member rate survived bitwise, no sweep ran and
            # the next head still needs queueing.
            self._push_head(state)
