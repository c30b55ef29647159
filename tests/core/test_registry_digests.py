"""Golden ULM digests for every registry campaign.

Each campaign in :func:`campaign_names` runs at a test size that keeps
its code paths, and the sha256 of its ULM event stream must match the
committed digest byte for byte.  ``sc99-flaky`` runs at full size: shrunk,
it finishes before its first fault at t=0.6 s and logs exactly what
``sc99_showfloor`` does, so the retry and fault paths would go unpinned.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import CampaignConfig, run_campaign
from repro.core.campaign import campaign_names, named_campaign

# These digests change only when a change deliberately changes output.
GOLDEN_SHA256 = {
    "esnet_anl": "384b48813209cc873b2d40ef9f243447b11704e6362acdc1993c5f6301415c57",
    "lan_e4500": "cb8d5d2a870b4c20cbfb0907153feea39f2307b5598b6636b17810ce14be54a5",
    "nton_cplant4": "e792bbb740f2ccdff158606b7264f6748c91ea87d9e046a10731f00a370c9b03",
    "nton_cplant8": "61bca8d7c35334f18acd1f1999e2b6c8cf447316a58da561a56a7f018b698c25",
    "sc99-flaky": "82abdc9b9f1492dfdc5f09f6e5fe729990f9a01dff493f02867b88eceff8793d",
    "sc99-multiviewer": "fe40fda599e12ac3f6f5d00673d0a8c907e6e5caf7062fd10d689e1cc7ba2f44",
    "sc99-serve10k": "4dbbf4e5f8ea9adeaf6f39d79a7204de8b11011c350067a7733a13c32938003d",
    "sc99_cosmology": "9485c0873a3e68350192660787e2fc2815a43371ed10f6b5e776c09f9f5bba61",
    "sc99_showfloor": "8e333e7d7c9a862d3061b4e0c1cabafbbc6d2bace0aa7534ce5fccd2a17ffb61",
}


def _test_sized(name: str):
    """A registry campaign at test size (same code paths)."""
    config = named_campaign(name)
    if name == "sc99-flaky":
        return config
    if name == "sc99-serve10k":
        from repro.service.shard import ShardCampaign

        return ShardCampaign.sc99_serve10k(n_sessions=60)
    if name == "sc99-multiviewer":
        return config.with_changes(
            workload=config.workload.with_changes(n_viewers=3),
            base=config.base.with_changes(
                n_timesteps=2, shape=(96, 48, 48), dataset_timesteps=8
            ),
        )
    assert isinstance(config, CampaignConfig)
    return config.with_changes(
        shape=(64, 32, 32), dataset_timesteps=8, n_timesteps=2
    )


def test_every_registry_campaign_has_a_digest():
    assert sorted(GOLDEN_SHA256) == campaign_names()


@pytest.mark.parametrize("name", campaign_names())
def test_registry_ulm_matches_golden_digest(name, tmp_path):
    path = tmp_path / "run.ulm"
    run_campaign(_test_sized(name), ulm_path=str(path))
    data = path.read_bytes()
    assert data, f"campaign {name} produced an empty ULM log"
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[name]
