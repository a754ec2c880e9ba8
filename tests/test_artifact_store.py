"""Persistent artifact store: round trips, guards, manifest."""

import json
import os

import numpy as np
import pytest

from repro.aging import AgedCircuitFactory
from repro.arith import column_bypass_multiplier
from repro.config import DEFAULT_SIM_CONFIG, DEFAULT_TECHNOLOGY
from repro.errors import ConfigError
from repro.experiments.store import (
    ArtifactStore,
    artifact_digest,
    config_fingerprint,
    counter_delta,
    delta_totals,
    technology_fingerprint,
)
from repro.timing import CompiledCircuit
from repro.workloads import uniform_operands


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


@pytest.fixture(scope="module")
def netlist4():
    return column_bypass_multiplier(4)


@pytest.fixture(scope="module")
def stress4(netlist4):
    return AgedCircuitFactory.characterize_stress(
        netlist4, num_patterns=100, seed=3
    )


@pytest.fixture(scope="module")
def stream4(netlist4):
    md, mr = uniform_operands(4, 80, seed=5)
    circuit = CompiledCircuit(netlist4)
    return circuit.run({"md": md, "mr": mr}, collect_bit_arrivals=True)


class TestFingerprints:
    def test_digest_stable_and_order_independent(self):
        a = artifact_digest("netlist", {"width": 4, "kind": "column"})
        b = artifact_digest("netlist", {"kind": "column", "width": 4})
        assert a == b
        assert a != artifact_digest("netlist", {"width": 8, "kind": "column"})
        # Same key under a different kind is a different artifact.
        assert a != artifact_digest("stress", {"width": 4, "kind": "column"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            artifact_digest("plane", {})

    def test_technology_fingerprint_sensitivity(self):
        base = technology_fingerprint(DEFAULT_TECHNOLOGY)
        bumped = technology_fingerprint(
            DEFAULT_TECHNOLOGY.replace(vdd=DEFAULT_TECHNOLOGY.vdd + 0.1)
        )
        assert base != bumped
        assert base == technology_fingerprint(DEFAULT_TECHNOLOGY)

    def test_config_fingerprint_stable(self):
        assert config_fingerprint(DEFAULT_SIM_CONFIG) == config_fingerprint(
            DEFAULT_SIM_CONFIG
        )


class TestRoundTrips:
    def test_netlist_round_trip(self, store, netlist4):
        key = {"width": 4, "kind": "column"}
        assert store.load("netlist", key) is None
        store.save("netlist", key, netlist4)
        loaded = store.load("netlist", key)
        assert loaded is not None
        assert loaded.name == netlist4.name
        assert len(loaded.cells) == len(netlist4.cells)
        assert loaded.stats() == netlist4.stats()

    def test_stress_round_trip(self, store, stress4):
        key = {"netlist": "abc", "seed": 3}
        store.save("stress", key, stress4)
        loaded = store.load("stress", key)
        assert loaded.netlist_name == stress4.netlist_name
        np.testing.assert_array_equal(
            loaded.pmos_stress, stress4.pmos_stress
        )
        np.testing.assert_array_equal(
            loaded.nmos_stress, stress4.nmos_stress
        )

    def test_stream_round_trip_lossless(self, store, stream4):
        key = {"stream": 1}
        store.save("stream", key, stream4)
        loaded = store.load("stream", key)
        assert loaded.num_patterns == stream4.num_patterns
        np.testing.assert_array_equal(loaded.delays, stream4.delays)
        np.testing.assert_array_equal(
            loaded.switched_caps, stream4.switched_caps
        )
        assert set(loaded.outputs) == set(stream4.outputs)
        for name in stream4.outputs:
            np.testing.assert_array_equal(
                loaded.outputs[name], stream4.outputs[name]
            )
        for name in stream4.bit_arrivals:
            np.testing.assert_array_equal(
                loaded.bit_arrivals[name], stream4.bit_arrivals[name]
            )

    def test_activity_round_trip_lossless(self, store, netlist4):
        md, mr = uniform_operands(4, 80, seed=5)
        counts = CompiledCircuit(netlist4).toggle_counts(
            {"md": md, "mr": mr}
        )
        key = {"activity": 1}
        assert store.load("activity", key) is None
        store.save("activity", key, counts)
        loaded = store.load("activity", key)
        assert loaded.dtype == counts.dtype
        assert loaded.tobytes() == counts.tobytes()
        assert store.counters["activity"] == {
            "hits": 1, "misses": 1, "writes": 1,
        }

    def test_stream_without_optionals(self, store, netlist4):
        md, mr = uniform_operands(4, 50, seed=7)
        result = CompiledCircuit(netlist4).run({"md": md, "mr": mr})
        store.save("stream", {"bare": 1}, result)
        loaded = store.load("stream", {"bare": 1})
        assert loaded.bit_arrivals is None
        np.testing.assert_array_equal(loaded.delays, result.delays)

    def test_netlist_type_checked(self, store):
        with pytest.raises(ConfigError):
            store.save("netlist", {"w": 1}, "not a netlist")


class TestGuards:
    def test_key_mismatch_is_miss(self, store, netlist4, tmp_path):
        """A hash-colliding (here: hand-renamed) file must not satisfy a
        different key -- the embedded key is the authority."""
        store.save("netlist", {"width": 4}, netlist4)
        src = store._path("netlist", {"width": 4})
        dst = store._path("netlist", {"width": 8})
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        import shutil

        shutil.copy(src, dst)
        assert store.load("netlist", {"width": 8}) is None

    def test_corrupt_file_is_miss(self, store, stream4):
        key = {"stream": 1}
        store.save("stream", key, stream4)
        with open(store._path("stream", key), "wb") as fp:
            fp.write(b"garbage")
        assert store.load("stream", key) is None

    def test_get_or_build_builds_once(self, store, netlist4):
        calls = []

        def build():
            calls.append(1)
            return netlist4

        first = store.get_or_build("netlist", {"w": 4}, build)
        second = store.get_or_build("netlist", {"w": 4}, build)
        assert len(calls) == 1
        assert first.stats() == second.stats()

    def test_corrupt_entry_rebuilt(self, store, netlist4):
        store.save("netlist", {"w": 4}, netlist4)
        with open(store._path("netlist", {"w": 4}), "wb") as fp:
            fp.write(b"\x00")
        rebuilt = store.get_or_build(
            "netlist", {"w": 4}, lambda: netlist4
        )
        assert rebuilt.stats() == netlist4.stats()
        # ... and the rebuild repaired the on-disk entry.
        assert store.load("netlist", {"w": 4}) is not None

    def test_empty_directory_rejected(self):
        with pytest.raises(ConfigError):
            ArtifactStore("")


class TestCounters:
    def test_hit_miss_write_accounting(self, store, netlist4):
        assert store.load("netlist", {"w": 4}) is None
        store.save("netlist", {"w": 4}, netlist4)
        store.load("netlist", {"w": 4})
        assert store.counters["netlist"] == {
            "hits": 1,
            "misses": 1,
            "writes": 1,
        }
        assert store.counter_totals() == {
            "hits": 1,
            "misses": 1,
            "writes": 1,
        }

    def test_snapshot_delta(self, store, netlist4):
        before = store.snapshot()
        store.save("netlist", {"w": 4}, netlist4)
        store.load("netlist", {"w": 4})
        delta = counter_delta(before, store.snapshot())
        assert delta == {"netlist": {"hits": 1, "misses": 0, "writes": 1}}
        assert delta_totals(delta) == {"hits": 1, "misses": 0, "writes": 1}
        # The snapshot is a copy, not a view.
        assert before["netlist"]["writes"] == 0

    def test_merge_counters(self, store):
        store.merge_counters({"stream": {"hits": 3, "misses": 2, "writes": 2}})
        store.merge_counters({"stream": {"hits": 1, "misses": 0, "writes": 0}})
        assert store.counters["stream"] == {
            "hits": 4,
            "misses": 2,
            "writes": 2,
        }


class TestManifest:
    def test_records_every_write(self, store, netlist4):
        store.save("netlist", {"w": 4}, netlist4)
        store.save("netlist", {"w": 8}, column_bypass_multiplier(4))
        records = store.manifest()
        assert len(records) == 2
        assert {r["kind"] for r in records} == {"netlist"}
        for record in records:
            assert os.path.exists(
                os.path.join(store.directory, record["file"])
            )

    def test_torn_trailing_line_tolerated(self, store, netlist4):
        store.save("netlist", {"w": 4}, netlist4)
        with open(store._manifest_path(), "a", encoding="utf-8") as fp:
            fp.write('{"kind": "netlist", "truncat')  # killed mid-write
        assert len(store.manifest()) == 1

    def test_mid_file_garbage_skipped(self, store, netlist4):
        store.save("netlist", {"w": 4}, netlist4)
        with open(store._manifest_path(), "a", encoding="utf-8") as fp:
            fp.write("not json\n")
        store.save("netlist", {"w": 8}, netlist4)
        assert len(store.manifest()) == 2

    def test_compact_dedupes_and_drops_missing(self, store, netlist4):
        store.save("netlist", {"w": 4}, netlist4)
        store.save("netlist", {"w": 4}, netlist4)  # duplicate record
        store.save("netlist", {"w": 8}, netlist4)
        os.remove(store._path("netlist", {"w": 8}))
        assert store.compact() == 1
        records = store.manifest()
        assert len(records) == 1
        assert records[0]["file"] == os.path.basename(
            store._path("netlist", {"w": 4})
        )
        # Compacted manifest shards are valid canonical JSONL.
        assert store.shard_paths()
        for path in store.shard_paths():
            with open(path, encoding="utf-8") as fp:
                for line in fp.read().splitlines():
                    json.loads(line)

    def test_empty_store_manifest(self, store):
        assert store.manifest() == []
        assert store.compact() == 0


class TestContextActivity:
    def test_primed_store_serves_toggle_counts(self, tmp_path, monkeypatch):
        from repro.experiments.context import ExperimentContext

        cold = ExperimentContext(
            store=ArtifactStore(str(tmp_path)), characterize_patterns=100
        )
        counts = cold.toggle_counts(4, "column", 60)
        md, mr = cold.stream(4, 60)
        want = CompiledCircuit(cold.netlist(4, "column")).toggle_counts(
            {"md": md, "mr": mr}
        )
        assert counts.tobytes() == want.tobytes()

        def refuse(self, stimulus):
            raise AssertionError("toggle counts recomputed")

        monkeypatch.setattr(CompiledCircuit, "toggle_counts", refuse)
        warm_store = ArtifactStore(str(tmp_path))
        warm = ExperimentContext(store=warm_store, characterize_patterns=100)
        assert warm.toggle_counts(4, "column", 60).tobytes() == want.tobytes()
        assert warm_store.counters["activity"] == {
            "hits": 1, "misses": 0, "writes": 0,
        }


class TestMaintenance:
    def test_clear_removes_everything(self, store, netlist4):
        store.save("netlist", {"w": 4}, netlist4)
        os.makedirs(store.planes_dir(), exist_ok=True)
        store.clear()
        assert not os.path.isdir(store.directory)
        assert store.counter_totals() == {
            "hits": 0,
            "misses": 0,
            "writes": 0,
        }
        # The store keeps working after a clear.
        store.save("netlist", {"w": 4}, netlist4)
        assert store.load("netlist", {"w": 4}) is not None

    def test_campaigns_dir_created(self, store):
        path = store.campaigns_dir()
        assert os.path.isdir(path)
        assert path.startswith(store.directory)
