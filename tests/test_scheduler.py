"""Suite planner/runner: plans, parallel identity, warm-store reuse."""

import collections
import dataclasses
import hashlib
import os
import re

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments import (
    REGISTRY,
    ArtifactStore,
    Resources,
    plan_suite,
    run_suite,
)
from repro.experiments.context import (
    BASELINE_GENERATORS,
    ExperimentContext,
    StreamDemand,
)
from repro.experiments.scheduler import _spec_weight
from repro.experiments.store import delta_totals
from repro.timing.engine import CompiledCircuit

#: Cheap experiment subset used by the run_suite tests (16-bit designs,
#: modest pattern counts).
SUBSET = ("fig06", "fig07")
SCALE = 0.05
CHAR_PATTERNS = 300
#: The ext_faults campaign line (see ``CampaignResult.render``).
_CAMPAIGN_LINE = re.compile(r"pruned (\d+), resumed (\d+), simulated (\d+)")


def _fold_campaign_line(text):
    """Rendered text with the store-dependent resumed/simulated split
    of the campaign line folded into one total."""
    return _CAMPAIGN_LINE.sub(
        lambda m: "pruned %s, resumed+simulated %d"
        % (m.group(1), int(m.group(2)) + int(m.group(3))),
        text,
    )


def _file_digests(directory):
    """Relative path -> sha256 of every file under ``directory``."""
    digests = {}
    for dirpath, _, filenames in os.walk(directory):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fp:
                digests[os.path.relpath(path, directory)] = hashlib.sha256(
                    fp.read()
                ).hexdigest()
    return digests


class TestResources:
    @pytest.fixture(scope="class")
    def demand_context(self):
        return ExperimentContext(scale=0.01, characterize_patterns=100)

    def test_every_spec_declares_coherent_resources(self, demand_context):
        for spec in REGISTRY.values():
            resources = spec.resources
            assert isinstance(resources, Resources)
            for width, kind in resources.designs:
                assert width in (8, 16, 32)
                assert kind in ("am", "column", "row")
            for width, kind in resources.netlists:
                assert width in (8, 16, 32)
                # ext_baselines' related-work designs are netlist-only.
                assert kind in ("am", "column", "row") + tuple(
                    BASELINE_GENERATORS
                )
            for demand in spec.demands(demand_context):
                assert isinstance(demand, StreamDemand)
                assert demand.width in (8, 16, 32)
                assert (demand.width, demand.kind) in (
                    resources.designs + resources.netlists
                ), spec.id
                netlist = demand_context.netlist(demand.width, demand.kind)
                assert demand.scales.ndim == 2
                assert demand.scales.shape[1] == len(netlist.cells)
                lengths = {len(arr) for arr in demand.stimulus.values()}
                assert len(lengths) == 1, spec.id
            # Designs imply their netlists exactly once.
            all_nets = resources.all_netlists()
            assert len(set(all_nets)) == len(all_nets)
            assert set(resources.designs) <= set(all_nets)

    def test_validation_rejects_bad_pairs(self):
        with pytest.raises(ConfigError):
            Resources(designs=((0, "column"),))
        with pytest.raises(ConfigError):
            Resources(designs=((16, 3),))


class TestPlanSuite:
    def test_dedup_and_widest_first(self):
        plan = plan_suite(["fig26", "fig27", "fig07"])
        # Each design appears once, 32-bit designs lead.
        assert len(set(plan.warmup_designs)) == len(plan.warmup_designs)
        widths = [width for width, _ in plan.warmup_designs]
        assert widths == sorted(widths, reverse=True)
        assert plan.names == ("fig26", "fig27", "fig07")

    def test_netlists_not_duplicated_as_designs(self):
        plan = plan_suite(list(REGISTRY))
        overlap = set(plan.warmup_designs) & set(plan.warmup_netlists)
        assert not overlap

    def test_unknown_name_rejected_with_suggestion(self):
        with pytest.raises(ConfigError, match="did you mean"):
            plan_suite(["fig06", "ext_fault"])

    def test_spec_weight_prefers_wide_designs(self):
        assert _spec_weight("fig27") < _spec_weight("fig06")


class TestRunSuiteSerial:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_suite(
            names=SUBSET,
            scale=SCALE,
            characterize_patterns=CHAR_PATTERNS,
        )

    def test_entries_in_request_order(self, serial):
        assert [entry.name for entry in serial.entries] == list(SUBSET)
        for entry in serial.entries:
            assert entry.rendered
            assert entry.elapsed >= 0
            assert entry.result is not None

    def test_render_accounting(self, serial):
        text = serial.render()
        assert "suite: 2 experiments, jobs=1" in text
        for name in SUBSET:
            assert name in text

    def test_rendered_by_name(self, serial):
        rendered = serial.rendered_by_name()
        assert set(rendered) == set(SUBSET)

    def test_entry_lookup(self, serial):
        assert serial.entry("fig06").name == "fig06"
        with pytest.raises(ConfigError):
            serial.entry("fig99")

    def test_explicit_context_reused(self):
        ctx = ExperimentContext(
            scale=SCALE, characterize_patterns=CHAR_PATTERNS
        )
        result = run_suite(names=["fig07"], context=ctx)
        assert result.entries[0].rendered
        # The context kept its caches (the suite ran inside it).
        assert ctx._factories

    def test_on_result_streams_in_order(self):
        seen = []
        run_suite(
            names=SUBSET,
            scale=SCALE,
            characterize_patterns=CHAR_PATTERNS,
            on_result=lambda entry: seen.append(entry.name),
        )
        assert seen == list(SUBSET)


class TestRunSuiteValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError):
            run_suite(names=["fig06"], jobs=0)

    def test_context_forces_serial(self):
        ctx = ExperimentContext(scale=SCALE)
        with pytest.raises(ConfigError):
            run_suite(names=SUBSET, jobs=2, context=ctx)

    def test_jobs_and_pool_refused_together(self):
        with pytest.raises(ConfigError, match="not both"):
            run_suite(names=SUBSET, jobs=2, pool="local:2")

    def test_pooled_run_refuses_non_default_technology(self):
        from repro.config import Technology

        with pytest.raises(ConfigError, match="default technology"):
            run_suite(names=SUBSET, jobs=2, technology=Technology(vdd=0.8))


class TestStoreBackedRuns:
    def test_warm_rerun_hits_store_and_matches(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = run_suite(
            names=SUBSET,
            scale=SCALE,
            characterize_patterns=CHAR_PATTERNS,
            store=ArtifactStore(store_dir),
        )
        warm = run_suite(
            names=SUBSET,
            scale=SCALE,
            characterize_patterns=CHAR_PATTERNS,
            store=ArtifactStore(store_dir),
        )
        assert cold.rendered_by_name() == warm.rendered_by_name()
        totals = {"hits": 0, "misses": 0, "writes": 0}
        for kind, stats in warm.store_counters.items():
            for name in totals:
                totals[name] += stats.get(name, 0)
        assert totals["hits"] > 0
        assert totals["misses"] == 0
        assert totals["writes"] == 0
        # Cold run wrote everything the warm run hit.
        assert cold.store_counters["stress"]["writes"] > 0

    #: Every experiment that prices streams: through
    #: ``ExperimentContext.price``, the campaign baseline or the MC base
    #: period.
    PRICED = (
        "ext_em", "ext_workloads", "ext_baselines", "fig06",
        "ext_faults", "mc_yield", "mc_guardband",
    )

    @staticmethod
    def _run(store_dir, names):
        return run_suite(
            names=names,
            scale=0.02,
            characterize_patterns=200,
            store=ArtifactStore(store_dir),
        )

    @pytest.fixture(scope="class")
    def cold_store(self, tmp_path_factory):
        """A store primed by one cold run of :attr:`PRICED` (shared:
        the tests below only read it), and the fresh compiles that run
        made: ``(netlist, technology, mode) -> count``."""
        from repro.timing.engine import CompiledCircuit

        store_dir = str(tmp_path_factory.mktemp("priced") / "store")
        compiles = collections.Counter()
        netlists = {}
        init = CompiledCircuit.__init__

        def counting(circuit, netlist, *args, **kwargs):
            init(circuit, netlist, *args, **kwargs)
            if not circuit.fault_hooks and (circuit.delay_scale == 1).all():
                # Keep the netlist alive so its id is never reused.
                netlists[id(netlist)] = netlist
                compiles[
                    id(netlist), circuit.technology, circuit.mode
                ] += 1

        CompiledCircuit.__init__ = counting
        try:
            cold = self._run(store_dir, self.PRICED)
        finally:
            CompiledCircuit.__init__ = init
        assert not cold.failures()
        return store_dir, cold, compiles

    def test_warm_campaign_loads_every_site(self, cold_store):
        """ext_faults on a warm store loads every campaign site as a
        ``site`` artifact, simulates none and writes nothing."""
        store_dir, cold, _ = cold_store

        def folded(result):
            # The resumed/simulated split is the only store-dependent
            # rendered text.
            return _fold_campaign_line(result.entry("ext_faults").rendered)

        before = _file_digests(store_dir)
        warm = self._run(store_dir, ("ext_faults",))
        sites = cold.entry("ext_faults").result.campaign.num_sites
        assert sites > 0
        assert "resumed 0, simulated %d" % sites in (
            cold.entry("ext_faults").rendered
        )
        assert "resumed %d, simulated 0" % sites in (
            warm.entry("ext_faults").rendered
        )
        assert folded(warm) == folded(cold)
        assert warm.store_counters["site"] == {
            "hits": sites, "misses": 0, "writes": 0,
        }
        totals = {"hits": 0, "misses": 0, "writes": 0}
        for stats in warm.store_counters.values():
            for name in totals:
                totals[name] += stats.get(name, 0)
        assert totals["misses"] == 0
        assert totals["writes"] == 0
        assert _file_digests(store_dir) == before

    def test_warm_store_calls_no_engine(self, cold_store, monkeypatch):
        """Every experiment of :attr:`PRICED` re-runs on a warm store
        without the engine: identical text, 0 misses, 0 writes.  A warm
        campaign resumes every site, so it never builds its delta base
        or prices a site."""
        from repro.timing.delta import DeltaBase
        from repro.timing.engine import CompiledCircuit
        from repro.timing.replay import ArrivalReplay

        store_dir, cold, _ = cold_store

        def rendered(result):
            return {
                name: _fold_campaign_line(text)
                for name, text in result.rendered_by_name().items()
            }

        def engine_called(*args, **kwargs):
            raise AssertionError("a warm store must not reach the engine")

        monkeypatch.setattr(CompiledCircuit, "run", engine_called)
        monkeypatch.setattr(ArrivalReplay, "replay", engine_called)
        monkeypatch.setattr(
            "repro.timing.value_cache.build_value_plane", engine_called
        )
        monkeypatch.setattr(DeltaBase, "__init__", engine_called)
        for module in ("repro.timing.delta", "repro.faults.campaign"):
            monkeypatch.setattr(module + ".replay_delta", engine_called)
        warm = self._run(store_dir, self.PRICED)
        assert not warm.failures()
        assert rendered(warm) == rendered(cold)
        for entry in warm.entries:
            totals = delta_totals(entry.store_delta)
            assert totals["misses"] == 0, entry.name
            assert totals["writes"] == 0, entry.name
            assert totals["hits"] > 0, entry.name

    def test_cold_suite_compiles_each_fresh_netlist_once(self, cold_store):
        """Stress characterization, the aged-circuit factory and the
        pricing paths share one fresh compile per netlist."""
        _, _, compiles = cold_store
        assert compiles
        assert set(compiles.values()) == {1}

    def test_store_accepts_path_string(self, tmp_path):
        result = run_suite(
            names=["fig07"],
            scale=SCALE,
            characterize_patterns=CHAR_PATTERNS,
            store=str(tmp_path / "store"),
        )
        assert result.store_dir == str(tmp_path / "store")
        assert result.total_hits() >= 0


class TestRunSuiteParallel:
    def test_parallel_matches_serial_bytes(self, tmp_path):
        serial = run_suite(
            names=SUBSET,
            scale=SCALE,
            characterize_patterns=CHAR_PATTERNS,
        )
        parallel = run_suite(
            names=SUBSET,
            scale=SCALE,
            characterize_patterns=CHAR_PATTERNS,
            jobs=2,
            store=ArtifactStore(str(tmp_path / "store")),
        )
        assert parallel.jobs == 2
        assert serial.rendered_by_name() == parallel.rendered_by_name()
        assert [e.name for e in parallel.entries] == list(SUBSET)
        # Workers return rendered text only.
        assert all(e.result is None for e in parallel.entries)

    def test_parallel_without_store_uses_temp(self):
        seen = []
        result = run_suite(
            names=SUBSET,
            scale=SCALE,
            characterize_patterns=CHAR_PATTERNS,
            jobs=2,
            on_result=lambda entry: seen.append(entry.name),
        )
        assert result.store_dir is None  # temp store, already removed
        assert seen == list(SUBSET)  # emission stays in request order


class TestDemandPrefetch:
    """A suite prices its experiments' declared stream demands up
    front, one value pass and one replay per value plane."""

    #: Experiments that price only through ``ExperimentContext.price``
    #: and ``stream_results``; several share the 16x16 standard planes.
    NAMES = ("fig05", "fig06", "fig19", "fig26", "ext_em", "ext_baselines")

    @staticmethod
    def _run(names, store=None, **kwargs):
        return run_suite(
            names=names,
            scale=0.02,
            characterize_patterns=200,
            store=store,
            **kwargs,
        )

    def test_cold_suite_replays_each_plane_once(self, monkeypatch):
        from repro.timing import value_cache
        from repro.timing.replay import ArrivalReplay

        counts = collections.Counter()
        replay = ArrivalReplay.replay
        build = value_cache.build_value_plane

        def counting_replay(self, *args, **kwargs):
            counts["replay"] += 1
            return replay(self, *args, **kwargs)

        def counting_build(*args, **kwargs):
            counts["value"] += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(ArrivalReplay, "replay", counting_replay)
        monkeypatch.setattr(value_cache, "build_value_plane", counting_build)
        ctx = ExperimentContext(scale=0.02, characterize_patterns=200)
        result = run_suite(names=self.NAMES, context=ctx)
        planes = ctx.plane_groups(
            [
                demand
                for name in self.NAMES
                for demand in REGISTRY[name].demands(ctx)
            ]
        )
        # fig19, fig26, ext_em and ext_baselines share the three 16x16
        # standard planes; fig05's longer stream, fig06's zero-count
        # streams and ext_baselines' related-work designs add three
        # planes each.
        assert len(planes) == 12
        assert result.prefetch_planes == len(planes)
        assert counts == {"replay": len(planes), "value": len(planes)}
        assert all(entry.unplanned_rows == 0 for entry in result.entries)
        assert (
            "priced outside the prefetch: 0 rows\n" in result.render()
        )

    def test_store_of_lone_runs_serves_the_suite(self, tmp_path):
        """Each experiment run alone prefetches only its own demands;
        the rows it stores are exactly the keys the whole suite's
        prefetch looks up."""
        store_dir = str(tmp_path / "store")
        alone = {}
        for name in self.NAMES:
            alone.update(
                self._run([name], ArtifactStore(store_dir)).rendered_by_name()
            )
        suite = self._run(self.NAMES, ArtifactStore(store_dir))
        assert suite.rendered_by_name() == alone
        assert suite.prefetch_rows == 0
        assert suite.store_counters["stream"]["misses"] == 0
        assert suite.store_counters["stream"]["writes"] == 0
        assert suite.store_counters["stream"]["hits"] > 0

    def test_pooled_prefetch_shards_by_plane(self, tmp_path):
        """With a store, ``plan`` jobs find the planes and one
        ``prefetch`` job prices each: the pooled cold run prices the
        serial run's planes, then nothing outside them."""
        names = ("fig06", "fig19", "ext_em")
        serial = self._run(names)
        pooled = self._run(
            names, ArtifactStore(str(tmp_path / "store")), pool="local:2"
        )
        assert pooled.rendered_by_name() == serial.rendered_by_name()
        # fig06's three zero-count planes; fig19 and ext_em share the
        # column standard plane, ext_em adds the row one.
        assert serial.prefetch_planes == pooled.prefetch_planes == 5
        assert pooled.prefetch_rows == serial.prefetch_rows
        assert all(entry.unplanned_rows == 0 for entry in pooled.entries)

    def test_undeclared_demand_prices_and_is_counted(self, monkeypatch):
        declared = self._run(["fig06"])
        spec = REGISTRY["fig06"]
        monkeypatch.setitem(
            REGISTRY,
            "fig06",
            dataclasses.replace(
                spec,
                resources=dataclasses.replace(spec.resources, demands=None),
            ),
        )
        stale = self._run(["fig06"])
        assert stale.rendered_by_name() == declared.rendered_by_name()
        assert declared.entry("fig06").unplanned_rows == 0
        # One fresh row per zero-count stream.
        assert stale.entry("fig06").unplanned_rows == 3
        assert stale.prefetch_rows == 0
        assert (
            "priced outside the prefetch: 3 rows (fig06 3)"
            in stale.render()
        )

    def test_price_counts_rows_outside_the_prefetch(self):
        ctx = ExperimentContext(scale=0.02, characterize_patterns=200)
        demand = ctx.standard_demand(16, "column", [0.0, 7.0], 200)
        assert ctx.prefetch([demand]) == {
            next(iter(ctx.plane_groups([demand]))): 2
        }
        netlist = ctx.netlist(16, "column")
        prefetched = ctx.price_demand(demand)
        assert ctx.unplanned_rows == 0
        aged = ctx.factory(16, "column").lifetime_delay_scales([3.0])
        (undeclared,) = ctx.price(netlist, aged, demand.stimulus)
        assert ctx.unplanned_rows == 1
        direct = CompiledCircuit(netlist, ctx.technology, aged[0]).run(
            demand.stimulus
        )
        np.testing.assert_array_equal(undeclared.delays, direct.delays)
        # Repeats are memo hits: no further row is priced.
        assert ctx.price_demand(demand)[1] is prefetched[1]
        ctx.price(netlist, aged, demand.stimulus)
        assert ctx.unplanned_rows == 1


class TestPowerPass:
    """Switched capacitance is its own pass, priced once per (netlist,
    stimulus) and only where it is read: fig26's power report, not
    fig05's planes or a delta base."""

    def test_power_priced_only_where_read(self, tmp_path, monkeypatch):
        from repro.experiments import context as context_mod
        from repro.experiments import (
            fig05_delay_distribution,
            fig26_27_lifetime,
        )
        from repro.timing import replay

        passes = []
        build = replay.build_switched_caps

        def counting(circuit, stimulus, *args, **kwargs):
            passes.append(len(next(iter(stimulus.values()))))
            return build(circuit, stimulus, *args, **kwargs)

        monkeypatch.setattr(context_mod, "build_switched_caps", counting)
        monkeypatch.setattr(replay, "build_switched_caps", counting)

        def run():
            return run_suite(
                names=["fig05", "fig26"],
                scale=0.02,
                characterize_patterns=200,
                store=ArtifactStore(str(tmp_path / "store")),
            )

        ctx = ExperimentContext(scale=0.02)
        fig05_n = ctx.patterns(fig05_delay_distribution.PAPER_PATTERNS)
        fig26_n = ctx.patterns(fig26_27_lifetime.PAPER_PATTERNS)
        assert fig05_n != fig26_n
        cold = run()
        # fig26's three designs' year-0 stream, and nothing of fig05.
        assert passes == [fig26_n] * 3
        assert cold.store_counters["power"] == {
            "hits": 0, "misses": 3, "writes": 3,
        }
        del passes[:]
        warm = run()
        assert passes == []
        assert warm.rendered_by_name() == cold.rendered_by_name()
        assert warm.store_counters["power"] == {
            "hits": 3, "misses": 0, "writes": 0,
        }
        totals = delta_totals(warm.store_counters)
        assert totals["misses"] == 0
        assert totals["writes"] == 0

    def test_lifetime_prices_no_am_stream(self, monkeypatch):
        """The AM's latency comes from STA and its power from the power
        pass: fig26 prices no value plane and no replay of it, and
        still runs one power pass per design kind."""
        from repro.experiments import context as context_mod
        from repro.timing import replay, value_cache

        planes, replays, passes = [], [], []
        build_plane = value_cache.build_value_plane
        build_caps = replay.build_switched_caps
        replay_rows = replay.ArrivalReplay.replay

        def counting_plane(circuit, *args, **kwargs):
            planes.append(circuit.netlist.name)
            return build_plane(circuit, *args, **kwargs)

        def counting_caps(circuit, *args, **kwargs):
            passes.append(circuit.netlist.name)
            return build_caps(circuit, *args, **kwargs)

        def counting_replay(self, *args, **kwargs):
            replays.append(self.circuit.netlist.name)
            return replay_rows(self, *args, **kwargs)

        monkeypatch.setattr(value_cache, "build_value_plane", counting_plane)
        monkeypatch.setattr(context_mod, "build_switched_caps", counting_caps)
        monkeypatch.setattr(replay, "build_switched_caps", counting_caps)
        monkeypatch.setattr(replay.ArrivalReplay, "replay", counting_replay)
        run_suite(names=["fig26"], scale=0.02, characterize_patterns=200)
        assert sorted(passes) == ["am-16x16", "cb-16x16", "rb-16x16"]
        assert sorted(set(planes)) == ["cb-16x16", "rb-16x16"]
        assert sorted(set(replays)) == ["cb-16x16", "rb-16x16"]

    def test_delta_base_prices_no_power(self, monkeypatch):
        from repro.arith import column_bypass_multiplier
        from repro.timing import logic
        from repro.timing.delta import DeltaBase
        from repro.timing.replay import build_switched_caps
        from repro.workloads import uniform_operands

        calls = []
        transition_vector = logic.transition_vector

        def counting(*args, **kwargs):
            calls.append(1)
            return transition_vector(*args, **kwargs)

        monkeypatch.setattr(logic, "transition_vector", counting)
        netlist = column_bypass_multiplier(8)
        circuit = CompiledCircuit(netlist)
        md, mr = uniform_operands(8, 200, seed=3)
        stimulus = {"md": md, "mr": mr}
        DeltaBase(circuit, stimulus, np.ones((2, len(netlist.cells))))
        assert calls == []
        # The counter sees the power pass, which is what prices power.
        build_switched_caps(circuit, stimulus)
        assert calls
