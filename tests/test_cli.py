"""Tests for the command-line interface (fast commands only)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_device_default(self):
        args = build_parser().parse_args(["fig4"])
        assert args.device == "2080Ti"

    def test_codegen_shape(self):
        args = build_parser().parse_args(
            ["codegen", "--shape", "32", "32", "14", "14"]
        )
        assert args.shape == [32, 32, 14, 14]

    def test_e2e_backend_choices_follow_registry(self):
        args = build_parser().parse_args(
            ["e2e", "--backend", "auto", "tdc-oracle", "--models", "resnet18"]
        )
        assert args.backend == ["auto", "tdc-oracle"]
        assert args.models == ["resnet18"]

    def test_e2e_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["e2e", "--backend", "cutlass"])

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.router == "least-loaded"
        assert args.chaos is False
        assert args.fallback_budget == 0.3
        assert args.priorities == "high,normal,low"

    def test_fleet_chaos_flags(self):
        args = build_parser().parse_args(
            ["fleet", "--devices", "A100,2080Ti", "--chaos",
             "--chaos-crash-p", "0.5", "--chaos-fraction", "0.5"]
        )
        assert args.devices == "A100,2080Ti"
        assert args.chaos and args.chaos_crash_p == 0.5
        assert args.chaos_fraction == 0.5

    def test_fleet_unknown_router_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--router", "random"])


class TestCommands:
    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out

    def test_codegen(self, capsys):
        assert main(["codegen", "--shape", "32", "32", "14", "14"]) == 0
        out = capsys.readouterr().out
        assert "__global__ void tdc_core_conv" in out
        assert "#define C 32" in out

    def test_oracle_gap(self, capsys):
        assert main(["oracle-gap", "--device", "2080Ti"]) == 0
        assert "MEAN" in capsys.readouterr().out

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError):
            main(["fig4", "--device", "h100"])

    def test_fleet_chaos_serves_all_requests(self, capsys):
        assert main([
            "fleet", "--requests", "24", "--replicas", "2",
            "--clients", "2", "--chaos", "--timeout", "30",
        ]) == 0
        out = capsys.readouterr().out
        assert "repro fleet" in out
        assert "requests completed" in out
        assert "replica resnet_tiny@A100#0" in out

    def test_calibrate_reports_each_core_site_and_persists_nothing(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.calibration import CORE_KINDS
        from repro.codesign.pipeline import decompose_for_device
        from repro.gpusim.device import A100
        from repro.inference import plan_model
        from repro.models.registry import build_model

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main([
            "calibrate", "--device", "A100", "--repeats", "1",
            "--warmup", "0",
        ]) == 0
        rows = [line.split(" | ")[0].strip()
                for line in capsys.readouterr().out.splitlines()]
        # The same deploy the command measures (its defaults).
        model = build_model("resnet_tiny", seed=0)
        decompose_for_device(model, A100, (8, 8), budget=0.5, rank_step=2)
        plan = plan_model(model.eval(), A100, (8, 8), core_backend="auto")
        sites = [k.layer.removesuffix(".core") for k in plan.kernels
                 if k.kind in CORE_KINDS]
        assert sites
        for site in sites:
            assert rows.count(site) == 1, site
        assert list(tmp_path.iterdir()) == []

    def test_backends_list(self, capsys):
        from repro.backends import known_backend_names

        assert main(["backends", "list"]) == 0
        out = capsys.readouterr().out
        for name in known_backend_names():
            assert name in out


class TestReport:
    def test_report_command(self, capsys):
        assert main(["report", "--no-e2e"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "Figure 6" in out and "Figure 7" in out
        assert "tiling-selection quality" in out
        assert "kernel-tensor layout" in out

    def test_generate_report_function(self):
        from repro.experiments.report import generate_report

        text = generate_report(include_e2e=False)
        assert "Average TDC speedups" in text
