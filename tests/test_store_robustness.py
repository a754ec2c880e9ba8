"""Crash/corruption fuzz and concurrency soak for the stores.

The robustness contract under test:

* a killed writer (torn artifact bytes, leftover ``.tmp``) degrades to
  a counted cache miss and a rebuild -- never an exception;
* concurrent writers and readers of one store lose no artifact and
  never see a partial one;
* two saves of one artifact that overlap in time both succeed (every
  write owns its temp file) and leave a valid artifact;
* a campaign's torn site file or leftover temp file costs at most the
  torn report.
"""

import os
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.arith import column_bypass_multiplier
from repro.experiments.store import ArtifactStore
from repro.faults.campaign import SiteReport, site_key
from repro.timing import CompiledCircuit, build_value_plane
from repro.workloads import uniform_operands


@pytest.fixture(scope="module")
def netlist4():
    return column_bypass_multiplier(4)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def _key(index, tag="soak"):
    return {"width": 4, "kind": "column", "tag": tag, "index": index}


class TestConcurrencySoak:
    def test_writers_plus_readers_lose_no_artifacts(self, store, netlist4):
        """8 writer threads save while reader threads load: every
        artifact lands, and no reader ever meets a partial file."""
        writers, readers, per_writer = 8, 4, 12
        total = writers * per_writer
        errors = []
        stop = threading.Event()
        reader_stores = []

        def write(worker):
            try:
                local = ArtifactStore(store.directory)
                for index in range(per_writer):
                    local.save(
                        "netlist", _key(worker * per_writer + index),
                        netlist4,
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def read(offset):
            try:
                local = ArtifactStore(store.directory)
                reader_stores.append(local)
                index = offset
                while not stop.is_set():
                    local.load("netlist", _key(index % total))
                    index += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        reading = [
            threading.Thread(target=read, args=(offset,))
            for offset in range(readers)
        ]
        writing = [
            threading.Thread(target=write, args=(worker,))
            for worker in range(writers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for t in reading + writing:
                t.start()
            for t in writing:
                t.join(timeout=120.0)
        finally:
            stop.set()
            for t in reading:
                t.join(timeout=120.0)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in reading + writing)
        assert not errors

        for index in range(total):
            assert store.load("netlist", _key(index)) is not None
        assert store.corruption["artifacts"] == 0
        assert sum(
            local.counters["netlist"]["hits"] for local in reader_stores
        ) > 0
        assert all(
            local.corruption["artifacts"] == 0 for local in reader_stores
        )
        assert len(os.listdir(store.directory)) == total


class TestOverlappingSaves:
    """A second full save of the same key runs from inside the first
    save's write -- the interleaving two processes racing on one
    artifact produce.  With a temp file shared per path, the inner
    save renamed it away and the outer ``os.replace`` raised
    ``FileNotFoundError``."""

    @staticmethod
    def _nest(monkeypatch, module, attr, again):
        """Make the first ``module.attr`` write run ``again()`` (the
        second save) before returning."""
        original = getattr(module, attr)
        nested = []

        def write_then_save_again(*args, **kwargs):
            original(*args, **kwargs)
            if not nested:
                nested.append(True)
                again()

        monkeypatch.setattr(module, attr, write_then_save_again)
        return nested

    @pytest.mark.parametrize("kind", ["surface", "stream"])
    def test_store_saves_of_one_key_overlap(
        self, store, netlist4, monkeypatch, kind
    ):
        key = _key(0, "overlap")
        if kind == "surface":
            payload = {"latency": [1.0, 2.0]}
            module, attr = pickle, "dump"
        else:
            md, mr = uniform_operands(4, 40, seed=2)
            payload = CompiledCircuit(netlist4).run({"md": md, "mr": mr})
            module, attr = np, "savez"
        nested = self._nest(
            monkeypatch, module, attr, lambda: store.save(kind, key, payload)
        )
        store.save(kind, key, payload)
        monkeypatch.undo()
        assert nested
        loaded = store.load(kind, key)
        if kind == "surface":
            assert loaded == payload
        else:
            assert loaded.delays.tobytes() == payload.delays.tobytes()
        assert store.corruption["artifacts"] == 0
        assert store.counters[kind]["writes"] == 2
        assert not [f for f in os.listdir(store.directory) if "tmp" in f]

    def test_plane_saves_of_one_path_overlap(
        self, store, netlist4, monkeypatch
    ):
        md, mr = uniform_operands(4, 40, seed=2)
        plane = build_value_plane(
            CompiledCircuit(netlist4), {"md": md, "mr": mr}, key="p" * 64
        )
        key = {"plane": plane.key}
        nested = self._nest(
            monkeypatch, np, "savez",
            lambda: store.save("plane", key, plane),
        )
        store.save("plane", key, plane)
        monkeypatch.undo()
        assert nested
        loaded = store.load("plane", key)
        assert loaded.may_packed.tobytes() == plane.may_packed.tobytes()
        assert store.corruption["artifacts"] == 0
        assert os.listdir(store.directory) == [
            os.path.basename(store._path("plane", key))
        ]


class TestArtifactCorruption:
    def test_truncated_artifact_is_counted_miss_then_rebuilt(
        self, store, netlist4
    ):
        key = _key(0, "torn")
        store.save("netlist", key, netlist4)
        path = store._path("netlist", key)
        data = open(path, "rb").read()
        with open(path, "wb") as fp:
            fp.write(data[: len(data) // 2])  # kill mid-save
        assert store.load("netlist", key) is None
        assert store.corruption["artifacts"] == 1
        # Rebuild: the normal get_or_build path recovers.
        rebuilt = store.get_or_build(
            "netlist", key, lambda: netlist4
        )
        assert rebuilt is not None
        assert store.load("netlist", key) is not None

    def test_leftover_tmp_file_is_harmless(self, store, netlist4):
        key = _key(0, "tmp")
        store.save("netlist", key, netlist4)
        path = store._path("netlist", key)
        with open(path + ".tmp", "wb") as fp:
            fp.write(b"partial write of a killed process")
        assert store.load("netlist", key) is not None
        assert store.corruption["artifacts"] == 0

    def test_mid_file_garbage_skipped_not_fatal(self, store, netlist4):
        """Garbage spliced into the middle of an npz artifact (a second
        writer's bytes, a bad sector) is a counted miss, then rebuilt."""
        md, mr = uniform_operands(4, 40, seed=4)
        result = CompiledCircuit(netlist4).run({"md": md, "mr": mr})
        key = _key(0, "mid")
        store.save("stream", key, result)
        path = store._path("stream", key)
        data = open(path, "rb").read()
        middle = len(data) // 2
        with open(path, "wb") as fp:
            fp.write(data[:middle] + b"!!not npz!!" + data[middle:])
        fresh = ArtifactStore(store.directory)
        assert fresh.load("stream", key) is None
        assert fresh.corruption["artifacts"] == 1
        rebuilt = fresh.get_or_build("stream", key, lambda: result)
        assert rebuilt.delays.tobytes() == result.delays.tobytes()
        assert fresh.load("stream", key) is not None


def _report(site_id):
    return SiteReport(
        label="site %s" % site_id, kind="stuck-at-0",
        corrupted_ops=4, detected_ops=4, silent_ops=0, razor_errors=4,
        undetectable_ops=0, recovered_ops=0, exhausted_ops=0,
        avg_latency_ns=5.0, indicator_aged_at=-1, site_id=site_id,
    )


class TestCheckpointCrashFuzz:
    """A campaign checkpoint is its ``site`` artifacts (one file each)."""

    FP = {"design": "fuzz", "seed": 7}

    def _write(self, directory, count=3):
        store = ArtifactStore(str(directory))
        for index in range(count):
            site_id = "s%d" % index
            store.save(
                "site", site_key(self.FP, site_id), _report(site_id).to_dict()
            )
        return store

    def _loaded(self, store, count=3):
        return [
            site_id
            for site_id in ("s%d" % index for index in range(count))
            if store.load("site", site_key(self.FP, site_id)) is not None
        ]

    def test_killed_writer_resumes_from_last_complete_report(
        self, tmp_path
    ):
        store = self._write(tmp_path / "store")
        path = store._path("site", site_key(self.FP, "s2"))
        with open(path, "rb") as fp:
            data = fp.read()
        with open(path, "wb") as fp:
            fp.write(data[:-17])  # SIGKILL mid-write
        reopened = ArtifactStore(store.directory)
        assert self._loaded(reopened) == ["s0", "s1"]
        assert reopened.corruption == {"artifacts": 1}
        # Re-saving the torn site heals it.
        reopened.save("site", site_key(self.FP, "s2"), _report("s2").to_dict())
        assert self._loaded(ArtifactStore(store.directory)) == [
            "s0", "s1", "s2",
        ]

    def test_killed_writer_tmp_leftover_ignored(self, tmp_path):
        store = self._write(tmp_path / "store")
        path = store._path("site", site_key(self.FP, "s0"))
        with open(path + ".tmp", "w", encoding="utf-8") as fp:
            fp.write('{"torn": tr')  # killed before its rename
        reopened = ArtifactStore(store.directory)
        assert self._loaded(reopened) == ["s0", "s1", "s2"]
        assert reopened.corruption == {"artifacts": 0}
