"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_predict_args(self):
        args = build_parser().parse_args(
            ["predict", "vectoradd", "--cores", "4", "--scale", "tiny",
             "--scheduler", "gto", "--strategy", "max"]
        )
        assert args.command == "predict"
        assert args.kernel == "vectoradd"
        assert args.cores == 4
        assert args.scheduler == "gto"
        assert args.strategy == "max"

    def test_experiment_name_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure99"])

    def test_invalid_scheduler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "saxpy",
                                       "--scheduler", "fifo"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "vectoradd" in out
        assert "40 kernels" in out

    def test_predict(self, capsys):
        assert main(["predict", "vectoradd", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "CPI" in out and "BASE" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "vectoradd", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "vectoradd" in out and "CPI" in out

    def test_validate(self, capsys):
        assert main(
            ["validate", "strided_deg8", "--scale", "tiny", "--warps", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "Naive_Interval" in out
        assert "oracle" in out

    def test_predict_with_machine_overrides(self, capsys):
        assert main(
            ["predict", "strided_deg8", "--scale", "tiny", "--mshrs", "64",
             "--bandwidth", "96", "--warps", "4"]
        ) == 0
        assert "CPI" in capsys.readouterr().out

    def test_jobs_and_cache_dir_flags(self, capsys, tmp_path):
        cache = str(tmp_path / "artifacts")
        argv = ["validate", "vectoradd", "--scale", "tiny",
                "--jobs", "2", "--cache-dir", cache]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # A rerun serves every stage from the on-disk store and must
        # print the identical table.
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert "oracle" in first


class TestLint:
    def test_single_kernel_clean(self, capsys):
        assert main(["lint", "vectoradd", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "vectoradd: clean" in out
        assert "0 error(s)" in out

    def test_suite_is_clean(self, capsys):
        assert main(["lint", "--suite", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "40 kernel(s): 0 error(s), 0 warning(s)" in out

    def test_all_is_the_suite(self, capsys):
        assert main(["lint", "all", "--scale", "tiny"]) == 0
        assert "40 kernel(s)" in capsys.readouterr().out

    def test_json_format(self, capsys):
        import json

        assert main(
            ["lint", "vectoradd", "--scale", "tiny", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_errors"] == 0
        assert payload["kernels"][0]["kernel"] == "vectoradd"

    def test_broken_kernel_exits_nonzero(self, capsys, monkeypatch):
        from repro.isa import Imm, Instruction, Kernel, Reg
        from repro.workloads import suite as suite_mod

        program = (
            Instruction("iadd", dst=Reg(1), srcs=(Reg(0), Imm(1))),
            Instruction("st", srcs=(Imm(0), Reg(1))),
            Instruction("exit"),
        )
        kernel = Kernel("broken", program, n_threads=32, block_size=32)
        spec = suite_mod.KernelSpec(
            name="broken", suite="test", tags=frozenset(),
            description="uninitialized read",
            _factory=lambda scale: (kernel, None),
        )
        monkeypatch.setitem(suite_mod.SUITE, "broken", spec)
        assert main(["lint", "broken", "--scale", "tiny"]) == 1
        out = capsys.readouterr().out
        assert "uninit-read" in out and "error" in out

    def test_cost_flag_renders_cost_model(self, capsys):
        assert main(["lint", "vectoradd", "--scale", "tiny", "--cost"]) == 0
        out = capsys.readouterr().out
        assert "cost model: vectoradd" in out
        assert "loop @" in out

    def test_cost_flag_json(self, capsys):
        import json

        assert main(
            ["lint", "strided_deg8", "--scale", "tiny", "--cost",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        cost = payload["kernels"][0]["cost"]
        assert cost["kernel"] == "strided_deg8"
        assert cost["loops"][0]["exact"]
        assert any(
            a["class"] == "strided-8" for a in cost["accesses"]
        )


class TestAnalyze:
    def test_single_kernel(self, capsys):
        assert main(["analyze", "vectoradd", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "cost model: vectoradd" in out
        assert "xcheck vectoradd: clean" in out
        assert "0 xcheck error(s)" in out

    def test_static_only_skips_xcheck(self, capsys):
        assert main(
            ["analyze", "vectoradd", "--scale", "tiny", "--static-only"]
        ) == 0
        out = capsys.readouterr().out
        assert "cost model: vectoradd" in out
        assert "xcheck" not in out

    def test_suite_json(self, capsys):
        import json

        assert main(
            ["analyze", "--suite", "--scale", "tiny", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_kernels"] == 40
        assert payload["n_xcheck_errors"] == 0
        names = {entry["kernel"] for entry in payload["kernels"]}
        assert "vectoradd" in names and "mandelbrot" in names
        entry = next(
            e for e in payload["kernels"] if e["kernel"] == "vectoradd"
        )
        assert entry["cost"]["loops"][0]["exact"]
        assert entry["xcheck"]["n_errors"] == 0

    def test_unknown_kernel_rejected(self, capsys):
        assert main(["analyze", "nope", "--scale", "tiny"]) == 2

    def test_xcheck_mismatch_exits_nonzero(self, capsys, monkeypatch):
        # A deliberately mis-modelled kernel: the trace comes from an
        # iters=2 build while analyze sees an iters=3 program, so the
        # exact trip count must flag a mismatch and fail the run.
        from repro.trace.emulator import emulate
        from repro.workloads import suite as suite_mod
        from repro.workloads.generators import Scale

        spec = suite_mod.SUITE["vectoradd"]

        def drifting_build(scale):
            return spec.build(
                Scale(scale.n_blocks, scale.block_size, scale.iters + 1)
            )

        import repro.pipeline.stages as stages_mod

        real_compute_xcheck = stages_mod.compute_xcheck

        def corrupted_xcheck(kernel_name, scale, trace, cost, config):
            kernel, memory = spec.build(
                Scale(scale.n_blocks, scale.block_size, scale.iters + 1)
            )
            drifted = emulate(kernel, config, memory=memory)
            return real_compute_xcheck(
                kernel_name, scale, drifted, cost, config
            )

        monkeypatch.setattr(
            "repro.pipeline.pipeline.compute_xcheck", corrupted_xcheck
        )
        assert main(["analyze", "vectoradd", "--scale", "tiny"]) == 1
        out = capsys.readouterr().out
        assert "xcheck-trip-count" in out


class TestObservabilityFlags:
    def test_quiet_suppresses_report(self, capsys):
        assert main(["-q", "list"]) == 0
        assert capsys.readouterr().out == ""

    def test_quiet_after_subcommand(self, capsys):
        assert main(["list", "-q"]) == 0
        assert capsys.readouterr().out == ""

    def test_quiet_keeps_machine_readable_json(self, capsys):
        import json

        assert main(
            ["lint", "vectoradd", "--scale", "tiny", "--format", "json",
             "-q"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_errors"] == 0

    def test_verbose_diagnostics_go_to_stderr(self, capsys):
        assert main(
            ["-v", "validate", "vectoradd", "--scale", "tiny",
             "--jobs", "2"]
        ) == 0
        captured = capsys.readouterr()
        assert "oracle" in captured.out  # report stays on stdout

    def test_trace_out_on_any_subcommand(self, capsys, tmp_path):
        from repro.obs.schema import validate_file

        trace = str(tmp_path / "trace.json")
        assert main(
            ["validate", "vectoradd", "--scale", "tiny",
             "--trace-out", trace]
        ) == 0
        assert validate_file("trace", trace) == []

    def test_global_tracer_reset_after_main(self):
        from repro.obs import get_tracer

        assert main(["-q", "list"]) == 0
        assert get_tracer().enabled is False


class TestProfile:
    def _profile(self, tmp_path, *extra):
        trace = str(tmp_path / "trace.json")
        metrics = str(tmp_path / "metrics.json")
        argv = ["profile", "--suite-kernel", "vectoradd",
                "--scale", "tiny", "--warps", "4",
                "--trace-out", trace, "--metrics-out", metrics]
        argv += list(extra)
        return argv, trace, metrics

    def test_profile_emits_valid_trace_and_metrics(self, capsys, tmp_path):
        import json

        from repro.obs.schema import validate_file

        argv, trace, metrics = self._profile(tmp_path)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "profile (1 kernels" in out
        assert "pipeline stages" in out and "oracle" in out
        assert validate_file("trace", trace) == []
        assert validate_file("metrics", metrics) == []
        doc = json.load(open(trace, encoding="utf-8"))
        events = doc["traceEvents"]
        stage_spans = {e["name"] for e in events
                       if e["ph"] == "X" and e.get("cat") == "stage"}
        assert {"trace", "cache_sim", "oracle", "predict"} <= stage_spans
        tracks = {e["name"] for e in events if e["ph"] == "C"}
        assert any("occupancy" in t for t in tracks)
        assert any("activity" in t for t in tracks)
        payload = json.load(open(metrics, encoding="utf-8"))
        counters = {c["name"] for c in payload["counters"]}
        assert "pipeline.stage_executions" in counters
        assert "oracle.core_mshr_stall_cycles" in counters

    def test_profile_parallel_matches_serial_counters(self, capsys,
                                                      tmp_path):
        import json

        serial_argv, _, serial_metrics = self._profile(
            tmp_path / "serial", "--suite-kernel", "strided_deg8")
        parallel_argv, _, parallel_metrics = self._profile(
            tmp_path / "parallel", "--suite-kernel", "strided_deg8",
            "--jobs", "2")
        (tmp_path / "serial").mkdir()
        (tmp_path / "parallel").mkdir()
        assert main(serial_argv) == 0
        assert main(parallel_argv) == 0
        capsys.readouterr()

        def stage_runs(path):
            payload = json.load(open(path, encoding="utf-8"))
            return {
                tuple(sorted(c["labels"].items())): c["value"]
                for c in payload["counters"]
                if c["name"] == "pipeline.stage_executions"
            }

        assert stage_runs(parallel_metrics) == stage_runs(serial_metrics)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_profile_sample_writes_collapsed_stacks(self, capsys, tmp_path,
                                                    jobs):
        samples = tmp_path / "samples.txt"
        argv, _, _ = self._profile(
            tmp_path, "--suite-kernel", "strided_deg8", "--jobs", jobs,
            "--sample", "--sample-out", str(samples),
            "--sample-interval", "0.001")
        assert main(argv) == 0
        out = capsys.readouterr().out
        lines = samples.read_text().splitlines()
        assert lines
        total = 0
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            # Every sample lands inside the CLI's own command span.
            assert stack.startswith("stage:profile;")
            total += int(count)
        assert ("sampling profile by pipeline stage (%d samples)" % total
                in out)

    def test_profile_rejects_unknown_kernel(self, capsys, tmp_path):
        argv, _, _ = self._profile(tmp_path, "--suite-kernel", "nope")
        assert main(argv) == 2

    def test_profile_defaults_trace_out(self, capsys, tmp_path,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["profile", "--suite-kernel", "vectoradd",
                     "--scale", "tiny", "--warps", "4", "-q"]) == 0
        assert (tmp_path / "repro-trace.json").exists()
