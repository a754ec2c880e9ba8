"""Persistent artifact store: round trips, guards, parent-era stores."""

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
)
from repro.timing import CompiledCircuit, build_value_plane
from repro.timing.value_cache import technology_fingerprint
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
            artifact_digest("planes", {})

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
        # Switched capacitance is a ``power`` artifact of its own.
        assert loaded.switched_caps is None
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

    def test_power_round_trip_lossless(self, store, stream4):
        key = {"power": 1}
        assert store.load("power", key) is None
        store.save("power", key, stream4.switched_caps)
        loaded = store.load("power", key)
        assert loaded.dtype == stream4.switched_caps.dtype
        assert loaded.tobytes() == stream4.switched_caps.tobytes()
        assert store.counters["power"] == {
            "hits": 1, "misses": 1, "writes": 1,
        }

    def test_stream_without_optionals(self, store, netlist4):
        md, mr = uniform_operands(4, 50, seed=7)
        result = CompiledCircuit(netlist4).run({"md": md, "mr": mr})
        store.save("stream", {"bare": 1}, result)
        loaded = store.load("stream", {"bare": 1})
        assert loaded.bit_arrivals is None
        np.testing.assert_array_equal(loaded.delays, result.delays)

    def test_plane_round_trip_lossless(self, store, netlist4):
        md, mr = uniform_operands(4, 70, seed=9)
        plane = build_value_plane(
            CompiledCircuit(netlist4), {"md": md, "mr": mr}, key="k" * 64
        )
        store.save("plane", {"plane": plane.key}, plane)
        loaded = store.load("plane", {"plane": plane.key})
        assert loaded.key == plane.key
        for name in ("num_patterns", "num_nets", "num_cells", "mode"):
            assert getattr(loaded, name) == getattr(plane, name)
        for name in ("may_packed", "aux_packed", "aux_offsets"):
            got, want = getattr(loaded, name), getattr(plane, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert set(loaded.outputs) == set(plane.outputs)
        for name, arr in plane.outputs.items():
            assert loaded.outputs[name].tobytes() == arr.tobytes()
        assert store.load("plane", {"plane": "other"}) is None

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
    """The store keeps no manifest: every artifact is one
    self-describing file, so the directory listing is the record."""

    def test_records_every_write(self, store, netlist4, stream4):
        store.save("netlist", {"w": 4}, netlist4)
        store.save("stream", {"w": 4}, stream4)
        store.save("netlist", {"w": 4}, netlist4)  # same key: same file
        assert sorted(os.listdir(store.directory)) == sorted(
            os.path.basename(store._path(kind, {"w": 4}))
            for kind in ("netlist", "stream")
        )
        assert store.counter_totals()["writes"] == 3


class TestParentStore:
    """A store written before planes and campaign reports became
    artifacts: manifest shards, their lock files, a ``planes/`` directory
    and JSONL campaign checkpoints under ``campaigns/`` next to the
    artifacts.  Every artifact keeps its file name and bytes, so it
    stays a hit; the old files are never read."""

    #: File names the parent release gave these keys (same digests).
    PARENT_FILES = {
        "netlist": "netlist-390d6d568f20f000d21424d1fe217219.pkl",
        "stress": "stress-a218ad15f7001397b702dc43d3460620.npz",
        "stream": "stream-8da3492a9267c5ea348f35620f816d24.npz",
        "activity": "activity-8ac0d0156c42d1375fe335122441d7e6.npz",
        "population": "population-14161bb66f19efbe7d0c756eef83b958.npz",
        "surface": "surface-4e9346f7cfac7e92615f6e730b387000.pkl",
        "delta": "delta-41d2d0f15a2e8aa58ef5e796defd06ec.pkl",
    }

    @staticmethod
    def _key(kind):
        return {"width": 4, "kind": "column", "art": kind}

    def test_parent_store_serves_every_artifact(
        self, store, netlist4, stress4, stream4
    ):
        payloads = {
            "netlist": netlist4,
            "stress": stress4,
            "stream": stream4,
            "activity": np.arange(6, dtype=np.int64),
            "population": {"meta": {"dies": 2}, "arrays": {"d": np.ones(4)}},
            "surface": {"latency": [1.0, 2.0]},
            "delta": {"cone": 3},
        }
        for kind, payload in payloads.items():
            store.save(kind, self._key(kind), payload)
        assert sorted(os.listdir(store.directory)) == sorted(
            self.PARENT_FILES.values()
        )
        for shard in ("3", "a"):
            path = os.path.join(store.directory, "manifest-%s.jsonl" % shard)
            with open(path, "w", encoding="utf-8") as fp:
                fp.write('{"kind": "netlist", "file": "x"}\n{"torn')
            open(path + ".lock", "w").close()
        with open(os.path.join(store.directory, "manifest.jsonl"), "w") as fp:
            fp.write("not json\n")
        planes = os.path.join(store.directory, "planes")
        os.makedirs(planes)
        with open(os.path.join(planes, "plane-0123.npz"), "wb") as fp:
            fp.write(b"parent-era plane")
        campaigns = os.path.join(store.directory, "campaigns")
        os.makedirs(campaigns)
        checkpoint = os.path.join(campaigns, "ext_faults-0123.jsonl")
        with open(checkpoint, "w", encoding="utf-8") as fp:
            fp.write('{"format": "repro-campaign-checkpoint"}\n')
        open(checkpoint + ".lock", "w").close()

        reopened = ArtifactStore(store.directory)
        for kind in payloads:
            assert reopened.load(kind, self._key(kind)) is not None
            assert reopened.counters[kind] == {
                "hits": 1, "misses": 0, "writes": 0,
            }
        assert reopened.corruption == {"artifacts": 0}
        reopened.clear()
        assert not os.path.exists(store.directory)


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
        # A campaign checkpoint as stores written before site artifacts
        # held it; never read, removed like everything else.
        campaigns = os.path.join(store.directory, "campaigns")
        os.makedirs(campaigns)
        open(os.path.join(campaigns, "ext_faults-0123.jsonl"), "w").close()
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
