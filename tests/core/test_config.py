"""Consolidated-config tests: dataclasses, JSON, the facade."""

import json

import pytest

from repro.config import ExperimentConfig, NetworkConfig
from repro.core.campaign import campaign_names, named_campaign
from repro.faults import FaultPlan, RequestPolicy, ServerCrash
from repro.netsim import TcpParams


class TestNetworkConfig:
    def test_defaults(self):
        cfg = NetworkConfig()
        assert cfg.tcp == TcpParams()
        assert cfg.compression is None and cfg.policy is None

    def test_with_changes(self):
        cfg = NetworkConfig().with_changes(policy=RequestPolicy())
        assert cfg.policy == RequestPolicy()


class TestCampaignRegistry:
    def test_names_stable(self):
        assert campaign_names() == [
            "esnet_anl",
            "lan_e4500",
            "nton_cplant4",
            "nton_cplant8",
            "sc99-flaky",
            "sc99-multiviewer",
            "sc99-serve10k",
            "sc99_cosmology",
            "sc99_showfloor",
        ]

    def test_overlapped_flag_respected(self):
        cfg = named_campaign("lan_e4500", overlapped=True)
        assert cfg.overlapped

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown campaign"):
            named_campaign("atari_2600")


class TestExperimentConfig:
    def test_json_round_trip(self):
        exp = ExperimentConfig(
            campaign="sc99_showfloor",
            scaled=True,
            seed=7,
            sanitize=True,
            faults=FaultPlan.of([
                ServerCrash(at=1.0, duration=2.0, server="dpss0")
            ]),
            policy=RequestPolicy.aggressive(),
        )
        assert ExperimentConfig.from_json(exp.to_json()) == exp

    def test_from_json_requires_campaign(self):
        with pytest.raises(ValueError, match="campaign"):
            ExperimentConfig.from_json(json.dumps({"scaled": True}))

    def test_policy_presets_in_json(self):
        exp = ExperimentConfig.from_json(json.dumps({
            "campaign": "lan_e4500", "policy": "aggressive",
        }))
        assert exp.policy == RequestPolicy.aggressive()

    def test_to_campaign_config_applies_overrides(self):
        exp = ExperimentConfig(
            campaign="lan_e4500", frames=2, scaled=True, seed=9,
        )
        cfg = exp.to_campaign_config()
        assert cfg.n_timesteps == 2 and cfg.seed == 9
        assert cfg.shape == (160, 64, 64)
        assert cfg.dataset_timesteps == 8

    def test_topology_knobs_round_trip(self):
        exp = ExperimentConfig(
            campaign="sc99-serve10k",
            topology="serve10k",
            flow_classes=False,
            seed=3,
        )
        assert ExperimentConfig.from_json(exp.to_json()) == exp

    def test_to_campaign_config_dispatches_shard_campaigns(self):
        from repro.service.shard import ShardCampaign

        exp = ExperimentConfig(
            campaign="sc99-serve10k",
            flow_classes=False,
            seed=3,
            frames=2,
        )
        cfg = exp.to_campaign_config()
        assert isinstance(cfg, ShardCampaign)
        assert cfg.flow_classes.enabled is False
        assert cfg.seed == 3 and cfg.frames == 2

    def test_topology_knob_rejected_on_non_shard_campaigns(self):
        exp = ExperimentConfig(campaign="lan_e4500", topology="sc99-wan")
        with pytest.raises(ValueError, match="shard campaigns only"):
            exp.to_campaign_config()

    def test_faults_and_policy_thread_through(self):
        plan = FaultPlan.of([
            ServerCrash(at=1.0, duration=2.0, server="dpss0")
        ])
        exp = ExperimentConfig(
            campaign="lan_e4500", faults=plan,
            policy=RequestPolicy(timeout=1.0),
        )
        cfg = exp.to_campaign_config()
        assert cfg.faults == plan and cfg.policy.timeout == 1.0


class TestRunExperiment:
    def test_facade_smoke(self):
        from repro import api

        exp = api.ExperimentConfig(
            campaign="sc99_showfloor", scaled=True, frames=2,
        )
        result = api.run_experiment(exp)
        assert result.n_frames == 2
        assert result.viewer_frames_complete == 2

    def test_accepts_concrete_campaign(self):
        from repro import api

        cfg = api.Campaign.sc99_showfloor().with_changes(
            shape=(160, 64, 64), dataset_timesteps=8, n_timesteps=2,
        )
        result = api.run_experiment(cfg)
        assert result.n_frames == 2
