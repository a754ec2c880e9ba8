"""Crash/corruption fuzz and concurrency soak for the stores.

The robustness contract under test:

* a killed writer (torn artifact bytes, leftover ``.tmp``) degrades to
  a counted cache miss and a rebuild -- never an exception;
* concurrent writers and readers of one store lose no artifact and
  never see a partial one;
* two saves of one artifact that overlap in time both succeed (every
  write owns its temp file) and leave a valid artifact;
* a campaign checkpoint's torn tail or leftover temp file costs at most
  the torn report, and concurrent openers serialize on its lock.
"""

import os
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.arith import column_bypass_multiplier
from repro.experiments.store import ArtifactStore
from repro.faults.campaign import SiteReport
from repro.faults.store import CheckpointStore
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
    FP = {"design": "fuzz", "seed": 7}

    def _write(self, path, count=3):
        store = CheckpointStore(str(path))
        store.open(self.FP)
        for index in range(count):
            store.append("s%d" % index, _report("s%d" % index))
        store.close()

    def test_killed_writer_resumes_from_last_complete_report(
        self, tmp_path
    ):
        path = tmp_path / "cp.jsonl"
        self._write(path)
        data = path.read_bytes()
        path.write_bytes(data[:-17])  # SIGKILL mid-append
        store = CheckpointStore(str(path))
        reports = store.open(self.FP)
        assert store.dropped_lines == 1
        assert sorted(reports) == ["s0", "s1"]
        # The append stream starts clean after the compacting open.
        store.append("s2", _report("s2"))
        store.close()
        assert sorted(CheckpointStore(str(path)).load(self.FP)) == [
            "s0", "s1", "s2",
        ]

    def test_killed_writer_tmp_leftover_ignored(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        self._write(path)
        with open(str(path) + ".tmp", "w", encoding="utf-8") as fp:
            fp.write('{"torn": tr')  # killed mid-compaction rewrite
        reports = CheckpointStore(str(path)).open(self.FP)
        assert sorted(reports) == ["s0", "s1", "s2"]

    def test_open_serializes_across_lock_holders(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        self._write(path)
        entered = threading.Event()
        release = threading.Event()
        opened = []

        def holder():
            from repro.util import FileLock

            with FileLock(str(path) + ".lock", timeout_s=5.0):
                entered.set()
                release.wait(timeout=10.0)

        def opener():
            entered.wait(timeout=10.0)
            store = CheckpointStore(str(path))
            store.open(self.FP)
            store.close()
            opened.append(True)

        threads = [threading.Thread(target=holder),
                   threading.Thread(target=opener)]
        for t in threads:
            t.start()
        entered.wait(timeout=10.0)
        assert not opened  # opener is parked on the lock
        release.set()
        for t in threads:
            t.join(timeout=10.0)
        assert opened == [True]
