"""Sharded serving: per-site verdicts, FIFO handoff, 10k-scale parity."""

from collections import Counter

import pytest

from repro.config import FlowClassConfig, SiteSpec, TopologyConfig
from repro.netlogger.events import Tags, parse_ulm
from repro.service.admission import AdmissionVerdict, QueueFull, SlotQueue
from repro.service.shard import ShardCampaign, run_shard_campaign
from repro.service.workload import ViewerProfile, WorkloadSpec
from repro.simcore.env import Environment


def _mini_campaign(
    *, spill=True, placement="nearest", queue_depth=1, n=4, seed=0
):
    """Four near-simultaneous arrivals pinned to a 1-slot home site."""
    topology = TopologyConfig(
        sites=(
            SiteSpec(name="home", max_sessions=1, queue_depth=queue_depth),
            SiteSpec(name="remote", max_sessions=1),
        ),
        placement=placement,
        spill=spill,
    )
    workload = WorkloadSpec(
        mode="open",
        n_viewers=n,
        arrival_rate=1e6,
        profiles=(ViewerProfile(name="pinned", region="home"),),
    )
    return ShardCampaign(
        name="mini", topology=topology, workload=workload, seed=seed
    )


def _assert_sessions_conserved(result, ulm_path):
    """Every admitted member completes, and every session ends once."""
    assert result.flows["members_submitted"] == result.flows[
        "members_completed"
    ]
    events = (parse_ulm(line) for line in ulm_path.read_text().splitlines())
    ends = Counter(
        ev.get("session") for ev in events if ev.event == Tags.SVC_END
    )
    assert None not in ends and max(ends.values()) == 1
    assert sum(ends.values()) == result.metrics.service.completed


class TestPlacementVerdicts:
    def test_local_spill_queue_reject_in_order(self):
        result = run_shard_campaign(_mini_campaign())
        verdicts = [r.verdict for r in result.records]
        assert verdicts == [
            AdmissionVerdict.LOCAL,
            AdmissionVerdict.SPILL,
            AdmissionVerdict.QUEUED,
            AdmissionVerdict.REJECTED,
        ]
        assert result.metrics.verdicts == {
            "local": 1, "spill": 1, "queued": 1, "rejected": 1
        }

    def test_spilled_session_serves_at_the_remote_site(self):
        result = run_shard_campaign(_mini_campaign())
        spilled = result.records[1]
        assert (spilled.home, spilled.served) == ("home", "remote")
        assert result.metrics.sites["home"].spilled_out == 1
        assert result.metrics.sites["remote"].spilled_in == 1

    def test_spill_false_pins_sessions_to_home(self):
        result = run_shard_campaign(_mini_campaign(spill=False))
        verdicts = [r.verdict for r in result.records]
        assert verdicts == [
            AdmissionVerdict.LOCAL,
            AdmissionVerdict.QUEUED,
            AdmissionVerdict.REJECTED,
            AdmissionVerdict.REJECTED,
        ]
        assert all(r.served in ("home", "") for r in result.records)

    def test_least_loaded_balances_before_queueing(self):
        result = run_shard_campaign(
            _mini_campaign(placement="least-loaded")
        )
        verdicts = [r.verdict for r in result.records]
        assert verdicts == [
            AdmissionVerdict.LOCAL,
            AdmissionVerdict.SPILL,
            AdmissionVerdict.QUEUED,
            AdmissionVerdict.REJECTED,
        ]

    def test_queued_session_eventually_serves_at_home(self):
        result = run_shard_campaign(_mini_campaign())
        queued = result.records[2]
        assert queued.served == "home"
        assert queued.ended is not None
        assert queued.admitted is not None
        assert queued.admitted > queued.arrival

    def test_every_resolved_session_is_accounted(self):
        result = run_shard_campaign(_mini_campaign())
        service = result.metrics.service
        assert service.offered == 4
        assert service.admitted == 3
        assert service.completed == 3
        assert service.rejected == 1


class TestShardCampaignValidation:
    def test_unknown_region_rejected(self):
        workload = WorkloadSpec(
            mode="open",
            n_viewers=1,
            profiles=(ViewerProfile(name="lost", region="atlantis"),),
        )
        with pytest.raises(ValueError, match="atlantis"):
            ShardCampaign(name="bad", workload=workload)

    def test_closed_loop_rejected(self):
        with pytest.raises(ValueError, match="open"):
            ShardCampaign(
                name="bad", workload=WorkloadSpec(mode="closed")
            )

    def test_bad_frames_rejected(self):
        with pytest.raises(ValueError, match="frames"):
            ShardCampaign(name="bad", frames=0)


class TestSlotQueueAtDepth:
    def test_fifo_handoff_stays_in_arrival_order_at_10k(self):
        env = Environment()
        queue = SlotQueue(env, max_slots=1, queue_depth=10000)
        assert queue.acquire() is None  # the slot holder
        waiters = [queue.acquire() for _ in range(10000)]
        assert all(ev is not None for ev in waiters)
        with pytest.raises(QueueFull):
            queue.acquire()
        order = []
        for i, ev in enumerate(waiters):
            ev.callbacks.append(lambda _e, i=i: order.append(i))
        for _ in range(10001):
            queue.release()
        env.run()
        assert order == list(range(10000))
        assert queue.active == 0
        assert queue.depth == 0

    def test_active_count_untouched_while_waiters_drain(self):
        env = Environment()
        queue = SlotQueue(env, max_slots=2, queue_depth=4)
        assert queue.acquire() is None
        assert queue.acquire() is None
        queue.acquire()  # waiter
        assert queue.active == 2
        queue.release()  # hands the slot to the waiter, active stays 2
        assert queue.active == 2
        assert queue.depth == 0


class TestServe10k:
    @pytest.fixture(scope="class")
    def quick(self):
        return ShardCampaign.sc99_serve10k(n_sessions=400)

    def test_quick_campaign_admits_everyone(self, quick, tmp_path):
        ulm = tmp_path / "quick.ulm"
        result = run_shard_campaign(quick, ulm_path=str(ulm))
        service = result.metrics.service
        assert service.offered == 400
        assert service.admitted == 400
        assert service.completed == 400
        assert service.rejected == 0
        _assert_sessions_conserved(result, ulm)

    def test_aggregate_matches_oracle_record_for_record(self, quick):
        oracle = run_shard_campaign(
            quick.with_changes(flow_classes=FlowClassConfig(enabled=False))
        )
        aggregate = run_shard_campaign(quick)
        assert aggregate.records == oracle.records
        assert aggregate.total_time == oracle.total_time

    def test_aggregation_touches_fewer_flows(self, quick):
        oracle = run_shard_campaign(
            quick.with_changes(flow_classes=FlowClassConfig(enabled=False))
        )
        aggregate = run_shard_campaign(quick)
        assert (
            aggregate.alloc["flows_touched"]
            < oracle.alloc["flows_touched"] / 4
        )

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_parity_across_seeds(self, seed, tmp_path):
        config = ShardCampaign.sc99_serve10k(n_sessions=120, seed=seed)
        oracle = run_shard_campaign(
            config.with_changes(flow_classes=FlowClassConfig(enabled=False))
        )
        ulm = tmp_path / "aggregate.ulm"
        aggregate = run_shard_campaign(config, ulm_path=str(ulm))
        assert aggregate.records == oracle.records
        _assert_sessions_conserved(aggregate, ulm)

    def test_ulm_log_is_deterministic(self, quick, tmp_path):
        config = quick.with_changes(
            workload=quick.workload.with_changes(n_viewers=50)
        )
        paths = [tmp_path / "a.ulm", tmp_path / "b.ulm"]
        for path in paths:
            run_shard_campaign(config, ulm_path=str(path))
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert first  # the log actually recorded events


class TestShardResultPayload:
    def test_versioned_envelope(self):
        result = run_shard_campaign(_mini_campaign())
        payload = result.to_payload()
        assert payload["schema_version"] == 1
        assert payload["kind"] == "shard"
        assert payload["campaign"]["sites"] == ["home", "remote"]
        assert payload["campaign"]["flow_classes"] is True
        assert payload["metrics"]["service"]["offered"] == 4
        assert set(payload["metrics"]["sites"]) == {"home", "remote"}
        assert payload["total_time"] == result.total_time

    def test_summary_mentions_mode_and_sites(self):
        result = run_shard_campaign(_mini_campaign())
        text = result.summary()
        assert "flow-class aggregation" in text
        assert "2 sites" in text
        oracle = run_shard_campaign(
            _mini_campaign().with_changes(
                flow_classes=FlowClassConfig(enabled=False)
            )
        )
        assert "per-session oracle" in oracle.summary()
