"""Tests of the benchmark itself: its contract file, its workload
generators, its output checks, its counters and its profile rollup.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The workloads run here at reduced sizes; the full ones are exercised
by ``perfbench/run.py``.
"""

import cProfile
import json
import os
import pstats
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import catalog, checks, rollup, run, workloads
from repro.protocol import HeavyPayload, decode_message, encode_message
from repro.service.shard import ShardCampaign
from repro.volren import composite_stack

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def small(name, seed):
    """A workload shrunk so one timed call takes well under a second."""
    wl = workloads.make(name, seed)
    if name == "serve10k":
        campaign = ShardCampaign.sc99_serve10k(n_sessions=300).with_changes(
            seed=seed
        )
        wl.inputs = lambda: campaign
    elif name == "ibravr_orbit":
        wl.shape, wl.n_slabs, wl.n_timesteps = (16, 16, 16), 4, 2
        wl.redraws, wl.viewport = 3, 32
    return wl


def run_once(wl):
    state = wl.setup(wl.inputs())
    return state, wl.finish(state, wl.run(state), 0.0)


# -- the contract file ---------------------------------------------------
def test_benchmark_json_is_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        assert json.load(f) == catalog.benchmark_json()


def test_benchmark_json_within_contract_limits():
    doc = catalog.benchmark_json()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in doc[group]]
        for metric in doc[group]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]


def test_every_layer_metric_names_what_it_moves():
    e2e = {m.name for m, _b in catalog.END_TO_END}
    e2e |= {m.name for m in catalog.PER_LAYER if not m.moves}
    known = set(catalog.workload_names())
    for metric in catalog.PER_LAYER:
        assert not metric.moves or metric.moves in e2e, metric
        assert set(metric.on) <= known, metric


# -- workload generators -------------------------------------------------
@pytest.mark.parametrize("name", catalog.workload_names())
def test_inputs_are_a_function_of_the_seed(name):
    first = small(name, 11)
    again = small(name, 11)
    other = small(name, 12)
    digest = first.input_digest(first.inputs())
    assert digest == again.input_digest(again.inputs())
    assert digest != other.input_digest(other.inputs())


# -- output checks -------------------------------------------------------
def test_clean_small_runs_pass_every_check():
    for name in catalog.workload_names():
        if name == "fig14_cplant8_overlapped":
            continue  # same code path as fig10, several seconds longer
        _state, it = run_once(small(name, 3))
        assert it.attempted > 0 and it.failed == 0, (name, it.problems)


def test_dropped_or_doubled_session_is_flagged():
    wl = small("serve10k", 5)
    manager, it = run_once(wl)
    assert it.failed == 0 and it.attempted == 300
    manager.records[7].ended = None  # dropped: neither done nor refused
    end = next(e for e in manager.daemon.events if e.event == "SVC_END")
    manager.daemon.submit(end)  # the same session ends a second time
    bad = wl.finish(manager, None, 0.0)
    assert bad.failed == 2
    assert any("session 7" in p for p in bad.problems)
    assert any("ended 2 times" in p for p in bad.problems)


def test_session_conservation_rules():
    assert checks.check_sessions([0, 1, 2], [0, 1], [2], [0, 1])[1] == 0
    assert checks.check_sessions([0, 1], [0, 1], [1], [0, 1])[1] == 1
    assert checks.check_sessions([0], [0, 5], [], [0, 5])[1] == 1


def test_corrupted_texture_is_flagged():
    texture = np.arange(8 * 8 * 4, dtype=np.uint8).reshape(8, 8, 4)
    msg_type, body = encode_message(
        HeavyPayload(rank=0, frame=0, texture=texture)
    )
    assert checks.check_codec(texture, decode_message(msg_type, body)
                              .texture) == []
    corrupt = bytearray(body)
    corrupt[-1] ^= 0xFF
    got = decode_message(msg_type, bytes(corrupt)).texture
    assert checks.check_codec(texture, got) == [
        "texture differs in 1 byte(s) after decode"
    ]


def test_bad_frames_are_flagged():
    frame = np.zeros((4, 4, 4), dtype=np.float32)
    assert checks.check_frame(frame) == []
    frame[0, 0, 3] = 1.5
    assert checks.check_frame(frame)
    frame[0, 0, 3] = np.nan
    assert checks.check_frame(frame)


def test_missing_slab_degraded_frame_and_short_read_are_flagged():
    complete = {0: {0, 1}, 1: {0, 1}, 2: {0, 1}}
    ok = checks.check_campaign(3, 2, complete, [], 30.0, 30.0)
    assert ok == (3, 0, [])
    assert checks.check_campaign(3, 2, {0: {0, 1}, 1: {0}, 2: {0, 1}},
                                 [], 30.0, 30.0)[1] == 1
    assert checks.check_campaign(3, 2, complete, [2], 30.0, 30.0)[1] == 1
    assert checks.check_campaign(3, 2, complete, [], 20.0, 30.0)[1] == 3


# -- counters ------------------------------------------------------------
def test_counter_mismatch_is_reported():
    same = {"a": 1, "b": 2.5}
    assert checks.counter_mismatches([same, dict(same)]) == {}
    assert checks.counter_mismatches([same, {"a": 1, "b": 2.0}]) == {
        "b": [2.5, 2.0]
    }


def test_same_seed_runs_repeat_every_counter():
    wl = small("serve10k", 9)
    first, stats_a = run._traced(wl)
    second, stats_b = run._traced(wl)
    runs = [first.counters, second.counters]
    for stats in (stats_a, stats_b):
        runs.append({
            name: rollup.call_count(stats.stats, module, func)
            for name, module, func in (
                ("steps", "simcore/env.py", "step"),
                ("refreshes", "simcore/flowclass.py", "_refresh_member"),
                ("solves", "simcore/fairshare.py", "_fill_rates_scalar"),
            )
        })
    assert checks.counter_mismatches(runs[:2]) == {}
    assert runs[2] == runs[3] and runs[2]["refreshes"] > 0
    assert first.digests == second.digests


# -- profile rollup ------------------------------------------------------
def test_builtin_time_is_charged_through_its_callers():
    repro = "/x/src/repro"
    vol = (f"{repro}/volren/raycast.py", 1, "render")
    scene = (f"{repro}/scenegraph/raster.py", 1, "draw")
    helper = ("/lib/numpy/core/fromnumeric.py", 1, "clip")
    builtin = ("~", 0, "<built-in method numpy.core._multiarray.sum>")
    orphan = ("~", 0, "<built-in method time.perf_counter>")
    stats = {
        vol: (1, 1, 0.5, 2.0, {}),
        scene: (1, 1, 0.25, 1.5, {}),
        # numpy's Python wrapper is only ever called from the raster.
        helper: (2, 2, 0.25, 1.25, {scene: (2, 2, 0.25, 1.25)}),
        # The builtin's own time arrives over two edges: 1.5 s direct
        # from volren, 1.0 s under the wrapper (so, in the end, from
        # scenegraph).
        builtin: (4, 4, 2.5, 2.5, {vol: (2, 2, 1.5, 1.5),
                                   helper: (2, 2, 1.0, 1.0)}),
        orphan: (1, 1, 0.125, 0.125, {}),
    }
    layers = rollup.Rollup(repro, "/x/perfbench").self_times(stats)
    assert layers == {"volren": 2.0, "scenegraph": 1.5,
                      "unattributed": 0.125}
    assert sum(layers.values()) == sum(e[2] for e in stats.values())


def test_real_profile_rolls_up_to_the_traced_total():
    images = [np.random.default_rng(i).random((64, 64, 4), dtype=np.float32)
              for i in range(6)]
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(20):
        composite_stack(images)
    profiler.disable()
    stats = pstats.Stats(profiler)
    layers = rollup.Rollup(os.path.join(ROOT, "src", "repro"),
                           os.path.join(ROOT, "perfbench")).self_times(
        stats.stats
    )
    assert sum(layers.values()) == pytest.approx(stats.total_tt, rel=1e-9)
    # NumPy does the compositing; its time belongs to volren.
    assert layers["volren"] > 0.5 * stats.total_tt


def test_layer_of_module():
    assert rollup.layer_of_module("simcore/env.py") == "simcore.env"
    assert rollup.layer_of_module("simcore/calendar.py") == "simcore.env"
    assert rollup.layer_of_module("simcore/flowclass.py") == \
        "simcore.flowclass"
    assert rollup.layer_of_module("service/shard.py") == "service"
    assert rollup.layer_of_module("core/campaign.py") == "other"


# -- the command ---------------------------------------------------------
def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_metrics_and_self_times_sum_to_total():
    proc = _cli(ROOT, "--workload", "fig10_cplant4", "--seed", "2",
                "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m.name for m in catalog.PER_LAYER]
    self_s = sum(metrics[f"{layer}.self_s"]["value"]
                 for layer in catalog.LAYERS)
    assert self_s == pytest.approx(metrics["trace_total_s"]["value"],
                                   rel=1e-9)
    assert metrics["simcore.fairshare.solves_scalar"]["value"] == 13490
    assert metrics["simcore.fairshare.solves_matrix"]["value"] == 0
    for name, _bound in catalog.END_TO_END:
        assert f"  {name.name} " in proc.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path, "--workload", "fig10_cplant4", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
