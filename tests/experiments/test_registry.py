"""Unit tests for the declarative experiment registry."""

import pytest

from repro.core.executor import ParallelExecutor
from repro.core.rng import RandomStreams
from repro.experiments import registry
from repro.experiments.registry import (
    DEFAULT_TIER,
    SMOKE_TIER,
    Experiment,
    ExperimentContext,
    Fidelity,
    smoke_tier,
)


def _spec(name, runner=None, **kwargs):
    return Experiment(
        name=name,
        title=name,
        runner=runner or (lambda ctx: name),
        formatter=str,
        tiers=smoke_tier(),
        **kwargs,
    )


@pytest.fixture
def scratch_registry():
    """Allow temporary registrations; restore the registry afterwards."""
    before = set(registry._REGISTRY)
    yield registry
    for name in set(registry._REGISTRY) - before:
        registry._REGISTRY.pop(name)
        registry._ORDER.remove(name)


class TestFidelity:
    def test_caps_are_minimums_not_overrides(self):
        tier = Fidelity(samples=40, requests=2_500)
        resolved = tier.resolve(200, 12_000, smoke=True)
        assert (resolved.samples, resolved.requests) == (40, 2_500)
        shrunk = tier.resolve(20, 600, smoke=True)
        assert (shrunk.samples, shrunk.requests) == (20, 600)

    def test_none_passes_invocation_values_through(self):
        resolved = Fidelity().resolve(123, 4_567, smoke=False)
        assert (resolved.samples, resolved.requests) == (123, 4_567)
        assert resolved.keys is None and resolved.rates_gbps is None

    def test_smoke_tier_declares_both_tiers(self):
        tiers = smoke_tier(keys=("a", "b"))
        assert tiers[DEFAULT_TIER] == Fidelity()
        assert tiers[SMOKE_TIER].keys == ("a", "b")


class TestExperimentSpec:
    def test_both_tiers_required(self):
        with pytest.raises(ValueError, match="must declare tiers"):
            Experiment(name="x", title="x", runner=lambda ctx: None,
                       formatter=str, tiers={DEFAULT_TIER: Fidelity()})

    def test_table_verb_takes_its_title_from_the_table(self):
        spec = Experiment(name="fig7", runner=lambda ctx: None,
                          formatter=str)
        titles = {name: title for name, _module, title in registry.TABLE}
        assert spec.title == titles["fig7"]
        with pytest.raises(ValueError, match="takes its title"):
            Experiment(name="fig7", title="other", runner=lambda ctx: None,
                       formatter=str)

    def test_run_time_spec_needs_a_title(self):
        with pytest.raises(ValueError, match="needs a title"):
            Experiment(name="t-untitled", runner=lambda ctx: None,
                       formatter=str)

    def test_unknown_tier_rejected(self):
        with pytest.raises(KeyError, match="no fidelity tier"):
            _spec("x").tier("turbo")

    def test_csv_support_derived_from_writer(self):
        assert not _spec("x").supports_csv
        assert _spec("y", csv_writer=lambda s, r: 0).supports_csv

    def test_render_appends_chart_after_blank_line(self):
        plain = _spec("x", runner=lambda ctx: "R")
        assert plain.render("R") == "R"
        charted = _spec("y", chart=lambda result: "CHART")
        assert charted.render("R") == "R\n\nCHART"


class TestRegistryContents:
    def test_all_paper_artifacts_registered(self):
        for name, module, title in registry.TABLE:
            spec = registry.get(name)
            assert spec.name == name and spec.title == title
            assert spec.runner.__module__ == module, name

    def test_names_follow_artifact_order(self):
        table = [name for name, _module, _title in registry.TABLE]
        assert registry.names()[: len(table)] == table

    def test_csv_capability_matches_legacy_set(self):
        capable = {name for name in registry.names()
                   if registry.get(name).supports_csv}
        assert capable == {"fig4", "fig5", "fig6", "table5"}

    def test_unknown_name_raises_with_roster(self):
        with pytest.raises(KeyError, match="no registered experiment"):
            registry.get("nope")

    def test_declared_dependencies(self):
        assert registry.get("fig6").depends == ("fig4",)
        assert registry.get("table5").depends == ("table4",)
        assert registry.get("observations").depends == ("fig4", "fig5",
                                                        "fig6")

    def test_every_spec_has_smoke_and_default_tier(self):
        for spec in map(registry.get, registry.names()):
            assert DEFAULT_TIER in spec.tiers and SMOKE_TIER in spec.tiers

    def test_every_spec_declares_a_schema(self):
        for spec in map(registry.get, registry.names()):
            assert spec.schema is not None, spec.name


class TestExperimentContext:
    def test_run_memoizes_per_invocation(self, scratch_registry):
        calls = []
        scratch_registry.register(
            _spec("t-memo", runner=lambda ctx: calls.append(1) or "ok"))
        ctx = ExperimentContext(streams=RandomStreams(1),
                                executor=ParallelExecutor(1))
        assert ctx.run("t-memo") == "ok"
        assert ctx.run("t-memo") == "ok"
        assert calls == [1]

    def test_dependency_results_shared_through_run(self, scratch_registry):
        calls = []
        scratch_registry.register(
            _spec("t-up", runner=lambda ctx: calls.append(1) or 7))
        scratch_registry.register(
            _spec("t-down-a", runner=lambda ctx: ctx.run("t-up") + 1,
                  depends=("t-up",)))
        scratch_registry.register(
            _spec("t-down-b", runner=lambda ctx: ctx.run("t-up") + 2,
                  depends=("t-up",)))
        ctx = ExperimentContext(streams=RandomStreams(1),
                                executor=ParallelExecutor(1))
        assert ctx.run("t-down-a") == 8
        assert ctx.run("t-down-b") == 9
        assert calls == [1]

    def test_cycles_detected(self, scratch_registry):
        scratch_registry.register(
            _spec("t-cyc-a", runner=lambda ctx: ctx.run("t-cyc-b")))
        scratch_registry.register(
            _spec("t-cyc-b", runner=lambda ctx: ctx.run("t-cyc-a")))
        ctx = ExperimentContext(streams=RandomStreams(1),
                                executor=ParallelExecutor(1))
        with pytest.raises(RuntimeError, match="dependency cycle"):
            ctx.run("t-cyc-a")

    def test_fidelity_resolves_running_experiments_tier(self,
                                                       scratch_registry):
        seen = {}

        def runner(ctx):
            seen["fid"] = ctx.fidelity()
            return None

        scratch_registry.register(Experiment(
            name="t-fid", title="t", runner=runner, formatter=str,
            tiers=smoke_tier(samples=40, requests=2_500, keys=("k",)),
        ))
        ctx = ExperimentContext(streams=RandomStreams(1),
                                executor=ParallelExecutor(1),
                                tier=SMOKE_TIER, samples=200,
                                requests=12_000)
        ctx.run("t-fid")
        assert seen["fid"].samples == 40
        assert seen["fid"].requests == 2_500
        assert seen["fid"].keys == ("k",)
        assert seen["fid"].smoke

    def test_fidelity_outside_runner_requires_spec(self):
        ctx = ExperimentContext(streams=RandomStreams(1),
                                executor=ParallelExecutor(1))
        with pytest.raises(RuntimeError, match="inside a runner"):
            ctx.fidelity()
        # ...but an explicit spec works anywhere (the CLI does this).
        fid = ctx.fidelity(registry.get("fig4"))
        assert fid.samples == 200 and not fid.smoke

    def test_smoke_property_follows_tier(self):
        ctx = ExperimentContext(streams=RandomStreams(1),
                                executor=ParallelExecutor(1),
                                tier=SMOKE_TIER)
        assert ctx.smoke
        assert not ExperimentContext(streams=RandomStreams(1),
                                     executor=ParallelExecutor(1)).smoke
