"""Tests for the command-line interface."""

import json
import logging
from types import SimpleNamespace

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.core import trace
from repro.obs import slo


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        actions = {
            name
            for action in parser._subparsers._group_actions
            for name in action.choices
        }
        assert {"fig4", "fig5", "fig6", "fig7", "table4", "table5",
                "observations", "tables", "strategy1", "modes",
                "sensitivity", "microburst", "report", "faults",
                "trace"} <= actions

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_global_flags(self):
        args = build_parser().parse_args(["--samples", "10", "fig7"])
        assert args.samples == 10

    def test_faults_flags(self):
        args = build_parser().parse_args(["faults", "--smoke"])
        assert args.command == "faults"
        assert args.smoke

    def test_jobs_flag(self):
        args = build_parser().parse_args(["--jobs", "4", "fig4"])
        assert args.jobs == 4
        assert build_parser().parse_args(["fig4"]).jobs == 1

    def test_cache_dir_flag(self):
        args = build_parser().parse_args(["--cache-dir", "/tmp/c", "fig4"])
        assert args.cache_dir == "/tmp/c"

    def test_trace_flags_before_or_after_verb(self):
        before = build_parser().parse_args(["--trace-dir", "/tmp/t", "fig4"])
        assert before.trace_dir == "/tmp/t"
        after = build_parser().parse_args(["fig4", "--trace-dir", "/tmp/t"])
        assert after.trace_dir == "/tmp/t"
        assert build_parser().parse_args(["fig4"]).trace_dir is None
        assert build_parser().parse_args(["fig4", "--trace"]).trace

    def test_trace_verb_flags(self):
        args = build_parser().parse_args(["trace", "fig4", "--smoke"])
        assert args.command == "trace"
        assert args.experiment == "fig4"
        assert args.smoke

    def test_trace_verb_accepts_any_registered_experiment(self):
        # the trace verb is a registry walk: every registered verb traces
        args = build_parser().parse_args(["trace", "table4"])
        assert args.experiment == "table4"

    def test_trace_verb_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "not-an-experiment"])

    def test_log_level_flag(self):
        args = build_parser().parse_args(["--log-level", "debug", "fig7"])
        assert args.log_level == "debug"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--log-level", "loud", "fig7"])

    def test_metrics_interval_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["--metrics-interval", "0", "fig7"])
        capsys.readouterr()

    def test_every_verb_help_exits_zero(self, capsys):
        parser = build_parser()
        verbs = {
            name
            for action in parser._subparsers._group_actions
            for name in action.choices
        }
        for verb in sorted(verbs):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args([verb, "--help"])
            assert excinfo.value.code == 0, f"{verb} --help failed"
            assert capsys.readouterr().out  # usage text was printed


class TestCsvValidation:
    """--csv must either work or fail loudly — never be silently ignored."""

    @pytest.mark.parametrize("verb", ["fig7", "report", "table4",
                                      "observations", "faults"])
    def test_csv_rejected_for_unsupported_verbs(self, verb, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--csv", "out.csv", verb])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--csv is not supported" in err
        assert verb in err

    def test_csv_accepted_for_fig4(self, tmp_path, capsys):
        target = tmp_path / "fig4.csv"
        code = main(["--samples", "20", "--requests", "600",
                     "--csv", str(target), "fig4"])
        assert code == 0
        capsys.readouterr()
        assert target.exists()
        assert target.read_text().count("\n") > 1


class TestInstrumentFooter:
    def test_footer_reports_probes_and_cache(self, capsys):
        assert main(["--samples", "20", "--requests", "600", "fig4"]) == 0
        err = capsys.readouterr().err
        assert "probes" in err
        assert "cache" in err and "hit" in err and "miss" in err

    def test_cache_dir_persists_across_invocations(self, tmp_path, capsys):
        argv = ["--samples", "20", "--requests", "600",
                "--cache-dir", str(tmp_path), "fig4"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        # Same artifact, but the second run probed nothing.
        assert second.out == first.out
        assert "probes: 0 simulated" in second.err


class TestMetricsExport:
    def test_help_lines_match_at_jobs_1_and_2(self, tmp_path, capsys):
        # Every fabric.* family is first created in a worker at --jobs 2.
        helps = []
        for jobs in (1, 2):
            out = tmp_path / f"j{jobs}"
            assert main(["--jobs", str(jobs), "cluster", "--smoke",
                         "--metrics-out", str(out)]) == 0
            capsys.readouterr()
            helps.append([line for line in
                          (out / "metrics.prom").read_text().splitlines()
                          if line.startswith("# HELP")])
        assert any("repro_fabric_" in line for line in helps[0])
        assert helps[1] == helps[0]


class TestCheapCommands:
    """Run the fast subcommands end to end."""

    def test_fig7(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "avg 0.76" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 3" in out

    def test_modes(self, capsys):
        assert main(["modes"]) == 0
        assert "on-path tax" in capsys.readouterr().out

    def test_table4_small(self, capsys):
        assert main(["--samples", "60", "--requests", "3000", "table4"]) == 0
        assert "Throughput" in capsys.readouterr().out

    def test_faults_smoke(self, capsys):
        assert main(["faults", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "snic-outage" in out
        assert "avail" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        code = main(["--samples", "40", "--requests", "3000",
                     "report", "-o", str(target)])
        assert code == 0
        text = target.read_text()
        assert "paper vs. measured" in text
        assert "| Fig4 |" in text
        assert "Latency attribution" in text


class TestTraceVerb:
    def test_trace_fig4_smoke_writes_valid_files(self, tmp_path, capsys):
        code = main(["--samples", "20", "--requests", "600",
                     "trace", "fig4", "--smoke", "--trace-dir",
                     str(tmp_path)])
        assert code == 0
        captured = capsys.readouterr()
        jsonl = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.json"
        assert jsonl.exists() and chrome.exists()
        lines = jsonl.read_text().splitlines()
        assert lines
        for line in lines[:50]:
            event = json.loads(line)
            assert {"name", "cat", "ph", "track", "ts"} <= set(event)
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "M" in phases and ("X" in phases or "i" in phases)
        assert "trace" in captured.err  # footer shows trace stats
        # Recorder does not leak into the next invocation.
        assert trace.recorder() is None

    def test_trace_flag_on_existing_verb(self, tmp_path, capsys):
        code = main(["--samples", "60", "--requests", "3000",
                     "--trace-dir", str(tmp_path), "table4"])
        assert code == 0
        capsys.readouterr()
        assert (tmp_path / "trace.jsonl").exists()

    def test_untraced_run_leaves_recorder_off(self, capsys):
        assert main(["fig7"]) == 0
        capsys.readouterr()
        assert not trace.TRACING


class TestFooterOnFailure:
    def test_footer_and_trace_survive_a_failing_verb(self, tmp_path,
                                                     monkeypatch, capsys):
        def boom(args, streams, executor):
            raise RuntimeError("verb exploded mid-study")

        monkeypatch.setattr(cli, "_dispatch", boom)
        with pytest.raises(RuntimeError, match="verb exploded"):
            main(["--trace-dir", str(tmp_path), "fig7"])
        err = capsys.readouterr().err
        assert "probes: 0 simulated" in err  # the footer still printed
        assert (tmp_path / "trace.jsonl").exists()
        assert not trace.TRACING  # and the recorder was torn down


class TestLogging:
    def test_log_level_configures_repro_hierarchy(self, capsys):
        assert main(["--log-level", "info", "--samples", "20",
                     "--requests", "600", "fig4"]) == 0
        err = capsys.readouterr().err
        assert "INFO repro.fig4" in err
        assert "measuring" in err

    def test_default_level_suppresses_info(self, capsys, monkeypatch):
        levels = []
        dispatch = cli._dispatch

        def spy(args, streams, executor):
            levels.append(logging.getLogger("repro").level)
            return dispatch(args, streams, executor)

        monkeypatch.setattr(cli, "_dispatch", spy)
        assert main(["--samples", "20", "--requests", "600", "fig4"]) == 0
        err = capsys.readouterr().err
        assert "INFO repro.fig4" not in err
        assert levels == [logging.WARNING]  # while the verb ran


class TestLoggingIsRestored:
    """main() configures the ``repro`` logger for one invocation only."""

    def test_caplog_sees_repro_warnings_after_main(self, capsys, caplog):
        root = logging.getLogger("repro")
        before = (root.handlers[:], root.level, root.propagate)
        assert main(["--samples", "20", "--requests", "600",
                     "fig7", "--smoke"]) == 0
        capsys.readouterr()
        assert (root.handlers, root.level, root.propagate) == before
        breach = [SimpleNamespace(key="udp:64", throughput_ratio=0.9,
                                  p99_ratio=1.5)]
        with caplog.at_level(logging.INFO, logger="repro.slo"):
            slo.observe("fig4", breach, smoke=False)
        records = [r for r in caplog.records if "SLO drift" in r.message]
        assert records and records[0].levelno == logging.WARNING
        assert "Logging error" not in capsys.readouterr().err
