"""Campaign execution: sharding, store-backed resume, cone pruning.

The contracts under test (DESIGN.md section 9, "campaign execution"):

* ``run(pool="local:N")`` is bit-identical to the serial sweep;
* an interrupted campaign has saved every completed site to its store,
  reports partial coverage, and resumes without re-simulating completed
  sites -- even from a store whose site file was torn by a kill;
* logic-cone pruning synthesizes *exactly* the report a full simulation
  would have produced, and never touches a site that can corrupt an
  observed output bit.
"""

import dataclasses
import json
import os

import pytest

from repro.aging.degradation import AgedCircuitFactory
from repro.arith import column_bypass_multiplier
from repro.config import DEFAULT_TECHNOLOGY
from repro.core import AgingAwareMultiplier
from repro.distrib.pool import make_batches
from repro.analysis.serialize import to_json
from repro.errors import CampaignInterrupted, FaultError
from repro.experiments.store import ArtifactStore
from repro.faults import (
    DelayFault,
    InjectionCampaign,
    StuckAtFault,
    TransientBitFlip,
    campaign_from_spec,
    unique_site_ids,
)
from repro.faults.campaign import SiteReport, site_key

#: The shared campaign: 16 sites x 150 patterns on the 8-bit column
#: design, clocked at 0.6x its critical path.  Built from a spec so the
#: same campaign can also run on a worker pool.
CAMPAIGN_SPEC = {
    "width": 8,
    "kind": "column",
    "skip": 3,
    "cycle_fraction": 0.6,
    "sites": 16,
    "patterns": 150,
    "seed": 2,
    "years": 0.0,
    "characterize_patterns": 300,
}


@pytest.fixture(scope="module")
def campaign():
    return campaign_from_spec(CAMPAIGN_SPEC)


@pytest.fixture(scope="module")
def arch8(campaign):
    return campaign.architecture


@pytest.fixture(scope="module")
def serial_result(campaign):
    return campaign.run(prune=False)


def site_files(store):
    """The ``site`` artifact files of a store, sorted."""
    return sorted(
        name for name in os.listdir(store.directory)
        if name.startswith("site-")
    )


def tear(store, site_id, fingerprint):
    """Truncate one site artifact mid-write, as a killed writer would."""
    path = store._path("site", site_key(fingerprint, site_id))
    with open(path, "rb") as fp:
        data = fp.read()
    with open(path, "wb") as fp:
        fp.write(data[: len(data) // 2])


class TestSiteIds:
    def test_stable_and_parameter_derived(self):
        assert StuckAtFault(5, 1).site_id() == "sa1:n5"
        assert TransientBitFlip(5, 0.25, seed=3).site_id() == (
            TransientBitFlip(5, 0.25, seed=3).site_id()
        )
        assert DelayFault(2, 0.5).site_id() != DelayFault(2, 0.6).site_id()

    def test_duplicates_suffixed_in_order(self):
        fault = StuckAtFault(5, 0)
        ids = unique_site_ids([fault, StuckAtFault(6, 0), fault, fault])
        assert ids == ["sa0:n5", "sa0:n6", "sa0:n5#1", "sa0:n5#2"]
        assert len(set(ids)) == len(ids)

    def test_campaign_ids_match_faults(self, campaign):
        assert len(campaign.site_ids) == len(campaign.faults)
        assert len(set(campaign.site_ids)) == len(campaign.site_ids)


class TestShardedIdentity:
    def test_sharded_bit_identical_to_serial(self, campaign, serial_result):
        """Acceptance: a local:2 pool reproduces the serial sweep
        exactly."""
        sharded = campaign.run(pool="local:2", prune=False)
        assert sharded.sites == serial_result.sites
        assert sharded.summary() == {
            **serial_result.summary(),
            "sites_simulated": sharded.summary()["sites_simulated"],
        }

    def test_sharded_identical_with_odd_chunking(self, campaign,
                                                 serial_result):
        sharded = campaign.run(pool="local:2", chunk_size=3, prune=False)
        assert sharded.sites == serial_result.sites

    def test_make_batches_covers_everything_once(self):
        pending = list(range(17))
        batches = make_batches(pending, workers=4)
        flat = [i for b in batches for i in b]
        assert sorted(flat) == pending
        assert all(batches)
        assert make_batches([], workers=4) == []
        with pytest.raises(FaultError):
            make_batches(pending, workers=4, chunk_size=0)

    def test_pool_refused_without_spec(self, arch8):
        bare = InjectionCampaign.sweep(arch8, num_sites=2, num_patterns=20)
        assert bare.spec is None
        with pytest.raises(FaultError, match="campaign_from_spec"):
            bare.run(pool="local:2")


class TestCheckpointStore:
    """A campaign's checkpoint is the ``site`` kind of an
    :class:`ArtifactStore`: one file per site report, keyed by the
    campaign fingerprint and the site id."""

    def _fingerprint(self, n=1):
        return {"design": "test", "seed": n}

    def _store_with_reports(self, path, campaign, count=3):
        store = ArtifactStore(str(path))
        reports = []
        for index in range(count):
            site = campaign.run_site(
                campaign.faults[index], campaign.site_ids[index]
            )
            store.save(
                "site",
                site_key(self._fingerprint(), campaign.site_ids[index]),
                site.to_dict(),
            )
            reports.append(site)
        return reports

    def _load(self, store, site_id, n=1):
        payload = store.load("site", site_key(self._fingerprint(n), site_id))
        return None if payload is None else SiteReport.from_dict(payload)

    def test_round_trip(self, tmp_path, campaign):
        path = tmp_path / "store"
        written = self._store_with_reports(path, campaign)
        store = ArtifactStore(str(path))
        assert [self._load(store, r.site_id) for r in written] == written
        assert len(site_files(store)) == len(written)

    def test_missing_file_is_empty(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "nope"))
        assert self._load(store, "sa0:n5") is None
        assert store.counters["site"] == {
            "hits": 0, "misses": 1, "writes": 0,
        }
        assert store.corruption == {"artifacts": 0}

    def test_fingerprint_mismatch_rejected(self, tmp_path, campaign):
        path = tmp_path / "store"
        written = self._store_with_reports(path, campaign)
        store = ArtifactStore(str(path))
        # Another campaign's key names another file: a plain miss.
        assert self._load(store, written[0].site_id, n=2) is None
        assert store.corruption == {"artifacts": 0}

    def test_foreign_file_rejected(self, tmp_path, campaign):
        path = tmp_path / "store"
        written = self._store_with_reports(path, campaign, count=1)
        store = ArtifactStore(str(path))
        target = store._path(
            "site", site_key(self._fingerprint(), written[0].site_id)
        )
        with open(target, "w", encoding="utf-8") as fp:
            fp.write('{"hello": "world"}\n')
        assert self._load(store, written[0].site_id) is None
        assert store.corruption == {"artifacts": 1}


class TestResume:
    def test_second_run_simulates_nothing(self, tmp_path, campaign,
                                          serial_result):
        store = ArtifactStore(str(tmp_path / "store"))
        first = campaign.run(store=store, prune=False)
        second = campaign.run(store=store, prune=False)
        assert second.resumed_sites == len(campaign.faults)
        assert second.simulated_sites == 0
        assert second.sites == first.sites == serial_result.sites
        assert len(site_files(store)) == len(campaign.faults)

    def test_resume_after_kill_mid_write(self, tmp_path, campaign,
                                         serial_result):
        """Acceptance: truncate one site file mid-write and resume."""
        store = ArtifactStore(str(tmp_path / "store"))
        campaign.run(store=store, prune=False)
        tear(store, campaign.site_ids[5], campaign.fingerprint())
        store = ArtifactStore(store.directory)
        resumed = campaign.run(store=store, prune=False)
        # Only the torn site re-simulates; everything else resumes.
        assert resumed.resumed_sites == len(campaign.faults) - 1
        assert resumed.simulated_sites == 1
        assert store.corruption == {"artifacts": 1}
        assert store.counters["site"]["writes"] == 1
        # Byte-identical once the resumed/simulated split is folded.
        split = {"sites_resumed": 0, "sites_simulated": len(campaign.faults)}
        assert to_json({**resumed.to_dict(), **split}) == to_json(
            serial_result
        )
        again = campaign.run(store=ArtifactStore(store.directory))
        assert again.resumed_sites == len(campaign.faults)

    def test_resume_false_starts_over(self, tmp_path, campaign):
        store = ArtifactStore(str(tmp_path / "store"))
        campaign.run(store=store, prune=False)
        fresh = campaign.run(store=store, resume=False, prune=False)
        assert fresh.resumed_sites == 0
        assert fresh.simulated_sites == len(campaign.faults)
        assert store.counters["site"]["writes"] == 2 * len(campaign.faults)

    def test_resume_rejects_other_campaign(self, tmp_path, arch8, campaign):
        store = ArtifactStore(str(tmp_path / "store"))
        campaign.run(store=store, prune=False)
        other = InjectionCampaign.sweep(
            arch8, num_sites=16, num_patterns=150, seed=99
        )
        result = other.run(store=store, prune=False)
        assert result.resumed_sites == 0
        assert result.simulated_sites == len(other.faults)

    def test_sharded_resume_matches_serial(self, tmp_path, campaign,
                                           serial_result):
        store = ArtifactStore(str(tmp_path / "store"))
        campaign.run(store=store, prune=False)
        tear(store, campaign.site_ids[-1], campaign.fingerprint())
        resumed = campaign.run(
            store=ArtifactStore(store.directory), pool="local:2",
            prune=False,
        )
        assert resumed.simulated_sites == 1
        assert resumed.sites == serial_result.sites


class TestInterruption:
    #: ``campaign.run`` keywords; :class:`TestPooledInterruption` reruns
    #: every test here on a pool.
    run_kw = {}

    def test_partial_result_flushed_and_resumable(self, tmp_path, campaign,
                                                  serial_result):
        store = ArtifactStore(str(tmp_path / "store"))

        def bomb(report, completed, total):
            if completed >= 5:
                raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted) as info:
            campaign.run(
                store=store, prune=False, progress=bomb, **self.run_kw
            )
        exc = info.value
        assert exc.completed == 5
        assert exc.total == len(campaign.faults)
        assert exc.partial is not None
        assert not exc.partial.complete
        assert exc.partial.num_sites == 5
        assert "[PARTIAL -- interrupted]" in exc.partial.render()
        assert store.directory in str(exc)
        assert len(site_files(store)) == 5

        resumed = campaign.run(
            store=store, prune=False, **self.run_kw
        )
        assert resumed.complete
        assert resumed.resumed_sites == 5
        assert resumed.simulated_sites == len(campaign.faults) - 5
        assert resumed.sites == serial_result.sites

    def test_interrupt_without_checkpoint_still_partial(self, campaign):
        def bomb(report, completed, total):
            if completed >= 3:
                raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted) as info:
            campaign.run(prune=False, progress=bomb, **self.run_kw)
        assert info.value.partial.num_sites == 3


class TestPooledInterruption(TestInterruption):
    """The same interruptions on a two-worker pool, one site per batch,
    so queued batches are left to cancel when the sweep stops."""

    run_kw = {"pool": "local:2", "chunk_size": 1}


class TestConePruning:
    """Pruning must be *exact*: synthesized == simulated, and no site
    that can corrupt an observed bit is ever pruned."""

    @pytest.fixture(scope="class")
    def dangling_arch(self):
        netlist = column_bypass_multiplier(4)
        md = netlist.input_ports["md"].nets
        mr = netlist.input_ports["mr"].nets
        # Two cells whose outputs feed nothing: faults here cannot reach
        # any product bit, so the campaign must prune them.
        first = netlist.and2(md[0], mr[1], name="dangle1")
        netlist.inv(first, name="dangle2")
        factory = AgedCircuitFactory.characterize(
            netlist, DEFAULT_TECHNOLOGY, num_patterns=200
        )
        arch = AgingAwareMultiplier(
            netlist=netlist, kind="column", width=4, skip=1,
            cycle_ns=0.5, factory=factory,
        )
        dangle1 = netlist.cells[-2].output
        dangle2_cell = len(netlist.cells) - 1
        return arch, dangle1, dangle2_cell

    def _faults(self, arch, dangle1, dangle2_cell):
        lsb = arch.netlist.output_ports["p"].nets[0]
        return [
            StuckAtFault(dangle1, 1),
            TransientBitFlip(dangle1, 0.5, seed=4),
            DelayFault(dangle2_cell, 0.7),
            StuckAtFault(lsb, 1),
            DelayFault(len(arch.netlist.cells) // 2, 0.4),
        ]

    def test_prunable_sites_found(self, dangling_arch):
        arch, dangle1, dangle2_cell = dangling_arch
        faults = self._faults(arch, dangle1, dangle2_cell)
        campaign = InjectionCampaign(arch, faults, num_patterns=150, seed=3)
        assert campaign.prunable_site_indices() == [0, 1, 2]

    def test_pruned_reports_equal_simulated(self, dangling_arch):
        """Property: for every site, the pruned sweep's report equals
        the fully simulated one modulo the ``pruned`` flag."""
        arch, dangle1, dangle2_cell = dangling_arch
        faults = self._faults(arch, dangle1, dangle2_cell)
        campaign = InjectionCampaign(arch, faults, num_patterns=150, seed=3)
        pruned = campaign.run(prune=True)
        simulated = campaign.run(prune=False)
        assert pruned.pruned_sites == 3
        assert simulated.pruned_sites == 0
        for fast, slow in zip(pruned.sites, simulated.sites):
            fast_d = dataclasses.asdict(fast)
            slow_d = dataclasses.asdict(slow)
            fast_d.pop("pruned")
            slow_d.pop("pruned")
            assert fast_d == slow_d

    def test_never_prunes_a_corrupting_site(self, campaign):
        """On the real sweep every fault reaches the product, so pruning
        must not drop anything -- and in general a pruned site can never
        be one the full simulation shows corrupting products."""
        pruned = campaign.run(prune=True)
        for site in pruned.sites:
            if site.pruned:
                assert site.corrupted_ops == 0

    def test_reach_mask_respects_port_subset(self, dangling_arch):
        from repro.timing import CompiledCircuit

        arch, dangle1, dangle2_cell = dangling_arch
        circuit = CompiledCircuit(arch.netlist)
        masks = circuit.output_reach_mask()
        lsb = arch.netlist.output_ports["p"].nets[0]
        assert masks[lsb] != 0
        assert masks[dangle1] == 0
        assert circuit.reaches_outputs(lsb)
        assert not circuit.reaches_outputs(dangle1)


class TestSerialization:
    def test_site_report_round_trip(self, serial_result):
        for site in serial_result.sites:
            clone = type(site).from_dict(site.to_dict())
            assert clone == site

    def test_malformed_payload_rejected(self):
        from repro.faults.campaign import SiteReport

        with pytest.raises(FaultError):
            SiteReport.from_dict({"label": "x"})

    def test_campaign_result_serializes(self, serial_result):
        from repro.analysis.serialize import to_json

        data = serial_result.to_dict()
        assert data["sites_total"] == serial_result.num_sites
        assert len(data["sites"]) == serial_result.num_sites
        json.loads(to_json(serial_result))
        json.loads(to_json(serial_result, summary_only=True))


class TestCli:
    def test_run_and_resume(self, tmp_path, capsys):
        from repro.faults.cli import main

        path = str(tmp_path / "store")
        args = [
            "run", "--width", "4", "--sites", "8", "--patterns", "80",
            "--characterize-patterns", "200", "--quiet",
            "--store", path,
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "8/8 sites" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "resumed 8" in second
        assert "simulated 0" in second
        assert len(site_files(ArtifactStore(path))) == 8

    @pytest.mark.parametrize("years", [0, 5])
    def test_run_json_matches_golden_bytes(self, tmp_path, years):
        """``faults run --json`` on a fixed 24-site campaign is byte for
        byte the committed ``tests/data`` reference, fresh and aged (CI's
        fault-injection smoke job ``cmp``s the same two runs)."""
        from repro.faults.cli import main

        out = tmp_path / "run.json"
        assert main([
            "run", "--width", "8", "--sites", "24", "--patterns", "400",
            "--years", str(years), "--quiet", "--json", str(out),
        ]) == 0
        golden = os.path.join(
            os.path.dirname(__file__), "data",
            "faults_w8_s24_y%d.json" % years,
        )
        with open(golden, "rb") as fp:
            assert out.read_bytes() == fp.read()

    def test_listing_without_command(self, capsys):
        from repro.faults.cli import main

        assert main([]) == 0
        assert "run" in capsys.readouterr().out
