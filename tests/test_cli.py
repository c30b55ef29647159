"""Tests for the visapult command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_campaigns(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lan_e4500" in out
        assert "esnet_anl" in out


class TestCampaign:
    def test_scaled_campaign_runs(self, capsys):
        code = main(
            ["campaign", "lan_e4500", "--scaled", "--frames", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign lan-e4500-serial" in out
        assert "Mbps" in out

    def test_overlapped_flag(self, capsys):
        code = main(
            ["campaign", "lan_e4500", "--scaled", "--frames", "2",
             "--overlapped"]
        )
        assert code == 0
        assert "overlapped" in capsys.readouterr().out

    def test_nlv_plot(self, capsys):
        code = main(
            ["campaign", "lan_e4500", "--scaled", "--frames", "2", "--nlv"]
        )
        assert code == 0
        assert "BE_LOAD_START" in capsys.readouterr().out

    def test_striped_flaky_campaign_reads_without_retries(
        self, capsys, tmp_path
    ):
        """Parity reads ride out the sc99-flaky drill end to end:
        every frame arrives and no read is retried."""
        import json

        json_path = tmp_path / "flaky.json"
        code = main(["campaign", "sc99-flaky", "--stripe", "4+1",
                     "--json", str(json_path)])
        assert code == 0
        metrics = json.loads(json_path.read_text())["metrics"]
        assert metrics["viewer_frames_complete"] == metrics["n_frames"] == 6
        assert metrics["retries"] == 0

    def test_unknown_campaign(self, capsys):
        assert main(["campaign", "nope"]) == 2
        assert "unknown campaign" in capsys.readouterr().err


class TestServeSim:
    def test_scaled_service_run_with_json(self, capsys, tmp_path):
        json_path = tmp_path / "BENCH_service.json"
        code = main(
            ["serve-sim", "sc99-multiviewer", "--scaled", "--frames", "2",
             "--viewers", "3", "--json", str(json_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "service campaign sc99-multiviewer" in out
        assert "cache hit ratio" in out
        import json

        payload = json.loads(json_path.read_text())
        assert payload["schema_version"] == 1
        assert payload["kind"] == "service"
        metrics = payload["metrics"]
        assert metrics["offered"] == 3
        assert {"aggregate_frame_rate", "cache_hit_ratio",
                "ttff_p95"} <= metrics.keys()

    def test_no_cache_flag(self, capsys):
        code = main(
            ["serve-sim", "--scaled", "--frames", "2", "--viewers", "2",
             "--no-cache"]
        )
        assert code == 0
        assert "0 hits" in capsys.readouterr().out

    def test_single_session_campaign_is_refused(self, capsys):
        assert main(["serve-sim", "lan_e4500"]) == 2
        assert "single-session" in capsys.readouterr().err

    def test_unknown_name(self, capsys):
        assert main(["serve-sim", "nope"]) == 2
        assert "unknown campaign" in capsys.readouterr().err


class TestBench:
    PAYLOAD = {
        "benchmarks": {
            "disjoint_sessions": {
                "oracle_s": 1.0, "fast_s": 0.2, "speedup": 5.0
            }
        }
    }

    def test_quick_micro_suite_writes_json(self, capsys, tmp_path, monkeypatch):
        # a stubbed run: this exercises the plumbing, not the numbers
        import repro.core.bench as bench

        monkeypatch.setattr(bench, "run_suite", lambda: self.PAYLOAD)
        json_path = tmp_path / "BENCH.json"
        code = main(["bench", "--output", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "disjoint_sessions" in out and "5.00x" in out
        import json

        payload = json.loads(json_path.read_text())
        assert payload["benchmarks"]["disjoint_sessions"]["speedup"] == 5.0

    def test_check_fails_on_regression(self, capsys, tmp_path, monkeypatch):
        import repro.core.bench as bench

        monkeypatch.setattr(bench, "run_suite", lambda: self.PAYLOAD)
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"disjoint_sessions": 8.0}\n')
        code = main(["bench", "--check", "--baseline", str(baseline)])
        assert code == 1
        assert "regressions" in capsys.readouterr().err

    def test_check_missing_baseline(self, capsys, tmp_path, monkeypatch):
        import repro.core.bench as bench

        monkeypatch.setattr(bench, "run_suite", lambda: {"benchmarks": {}})
        code = main(["bench", "--check",
                     "--baseline", str(tmp_path / "absent.json")])
        assert code == 2
        assert "cannot read baseline" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--suite", "render"], ["--quick"],
                                      ["--no-e2e"]])
    def test_removed_switches_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestIperf:
    def test_esnet_single_stream(self, capsys):
        assert main(["iperf", "--wan", "esnet", "--megabytes", "50"]) == 0
        out = capsys.readouterr().out
        assert "Mbps" in out and "esnet" in out

    def test_parallel_streams(self, capsys):
        assert main(
            ["iperf", "--wan", "lan", "--streams", "4",
             "--megabytes", "20"]
        ) == 0
        assert "4 stream(s)" in capsys.readouterr().out


class TestArtifacts:
    def test_sweep_prints_angles(self, capsys):
        code = main(
            ["artifacts", "--angles", "0", "20", "--size", "24",
             "--image-size", "32"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.0 deg" in out and "20.0 deg" in out

    def test_axis_switching_mode(self, capsys):
        code = main(
            ["artifacts", "--angles", "80", "--size", "24",
             "--image-size", "32", "--axis-switching"]
        )
        assert code == 0
        assert "axis switching" in capsys.readouterr().out


class TestLive:
    def test_live_run(self, capsys, tmp_path):
        out_path = str(tmp_path / "frame.ppm")
        code = main(
            ["live", "--pes", "2", "--steps", "2", "--size", "24",
             "--image-size", "48", "--output", out_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "assembled 2 frames" in out
        assert open(out_path, "rb").read(2) == b"P6"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
