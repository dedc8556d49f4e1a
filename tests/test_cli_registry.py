"""Registry-driven CLI behavior: smoke round-trips, artifact validity,
byte-identity with the pre-registry verb output, and --jobs determinism."""

import json

import pytest

from repro.analysis.export import ARTIFACT_SCHEMA, validate_artifact
from repro.analysis.plots import fig4_chart, fig5_chart
from repro.cli import build_parser, main
from repro.core.rng import RandomStreams
from repro.experiments import registry
from repro.experiments.fig4 import format_fig4, run_fig4
from repro.experiments.fig5 import format_fig5, run_fig5
from repro.experiments.registry import DEFAULT_TIER, SMOKE_TIER

FAST = ["--samples", "20", "--requests", "600"]


class TestSmokeRoundTrip:
    """Every registered verb must run at smoke fidelity and emit a JSON
    artifact that validates against both the envelope schema and the
    spec's own result schema — this is exactly what CI runs."""

    @pytest.mark.parametrize("name", registry.names())
    def test_verb_smoke_json(self, name, tmp_path, capsys):
        target = tmp_path / f"{name}.json"
        code = main(FAST + [name, "--smoke", "--json", str(target)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip(), f"{name} printed nothing"
        doc = json.loads(target.read_text())
        errors = validate_artifact(doc, ARTIFACT_SCHEMA)
        spec = registry.get(name)
        errors += validate_artifact(doc["result"], spec.schema, "$.result")
        assert not errors, f"{name}: {errors}"
        assert doc["experiment"] == name
        assert doc["tier"] == SMOKE_TIER
        assert doc["seed"] == 2023

    def test_verb_list_matches_registry(self):
        parser = build_parser()
        verbs = {
            name
            for action in parser._subparsers._group_actions
            for name in action.choices
        }
        assert set(registry.names()) <= verbs


class TestByteIdentity:
    """`repro fig4` / `repro fig5` stdout must be byte-identical to the
    pre-registry CLI: formatter, blank line, chart — same seed, same
    fidelity, same RNG substream consumption."""

    def test_fig4_matches_direct_composition(self, capsys):
        assert main(FAST + ["fig4"]) == 0
        cli_out = capsys.readouterr().out
        rows = run_fig4(samples=20, n_requests=600,
                        streams=RandomStreams(2023))
        assert cli_out == format_fig4(rows) + "\n\n" + fig4_chart(rows) + "\n"

    def test_fig5_matches_direct_composition(self, capsys):
        assert main(FAST + ["fig5"]) == 0
        cli_out = capsys.readouterr().out
        curves = run_fig5(samples=20, n_requests=600,
                          streams=RandomStreams(2023))
        charts = "\n\n".join(
            f"[{ruleset}]\n{fig5_chart(by_platform)}"
            for ruleset, by_platform in curves.items()
        )
        assert cli_out == format_fig5(curves) + "\n\n" + charts + "\n"


class TestJobsDeterminism:
    """--jobs reaches every verb through ExperimentContext; parallel
    output must be byte-identical to serial."""

    def test_microburst_output_identical_across_jobs(self, capsys):
        assert main(FAST + ["--jobs", "1", "microburst", "--smoke"]) == 0
        serial = capsys.readouterr().out
        assert main(FAST + ["--jobs", "2", "microburst", "--smoke"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial


class TestVerdictGating:
    """A spec's verdict maps the result to the exit code at default
    fidelity only; smoke runs always exit 0 (plumbing, not science)."""

    def _register_failing(self):
        from repro.experiments.registry import Experiment, smoke_tier

        spec = Experiment(
            name="t-verdict",
            title="always-failing gate",
            runner=lambda ctx: "bad",
            formatter=str,
            tiers=smoke_tier(),
            verdict=lambda result: 3,
        )
        registry.register(spec)
        return spec

    def _unregister(self, name):
        registry._REGISTRY.pop(name, None)
        if name in registry._ORDER:
            registry._ORDER.remove(name)

    def test_verdict_binds_at_default_tier_only(self, capsys):
        self._register_failing()
        try:
            assert main(["t-verdict"]) == 3
            capsys.readouterr()
            assert main(["t-verdict", "--smoke"]) == 0
            capsys.readouterr()
        finally:
            self._unregister("t-verdict")

    def test_observations_declares_verdict(self):
        spec = registry.get("observations")
        assert spec.verdict is not None
        assert DEFAULT_TIER in spec.tiers
