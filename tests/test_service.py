"""Reliability service: protocol, server end-to-end, degradation."""

import json
import socket

import pytest

from repro.errors import ServiceError
from repro.service import (
    ServiceClient,
    ServiceConfig,
    compute_direct,
    run_concurrent_queries,
    serve_in_background,
)
from repro.service.protocol import (
    QuerySpec,
    decode,
    encode,
    ok_response,
)
from repro.service import __main__ as service_cli

# Small-but-real knobs: an 8-bit design characterized with few patterns
# keeps the whole end-to-end pass in seconds.
WIDTH = 8
CHAR_PATTERNS = 150
NUM_PATTERNS = 100


class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "query", "id": 3, "width": 8, "kind": "am"}
        assert decode(encode(message)) == message
        assert encode(message).endswith(b"\n")

    def test_decode_rejects_garbage(self):
        with pytest.raises(ServiceError):
            decode(b"!!not json!!\n")
        with pytest.raises(ServiceError):
            decode(b"[1, 2, 3]\n")

    def test_spec_from_request_defaults_and_normalization(self):
        spec = QuerySpec.from_request(
            {"width": 8, "kind": "column", "years": 5}
        )
        assert spec.years == (5.0,)
        assert spec.num_patterns == 1000
        assert spec.seed == 1
        assert spec.cycle_ns is None

    @pytest.mark.parametrize(
        "overrides",
        [
            {"width": 1},
            {"width": "16"},
            {"kind": "booth"},
            {"years": []},
            {"years": [0.0, 101.0]},
            {"years": "now"},
            {"num_patterns": 0},
            {"seed": 1.5},
            {"cycle_ns": -2.0},
        ],
    )
    def test_spec_validation_rejects(self, overrides):
        request = {"width": 8, "kind": "column", "years": [0.0]}
        request.update(overrides)
        with pytest.raises(ServiceError):
            QuerySpec.from_request(request)

    def test_cache_key_separates_years_not_groups(self):
        a = QuerySpec.from_request(
            {"width": 8, "kind": "column", "years": [0.0, 5.0]}
        )
        assert a.group_key() == a.with_years([7.0]).group_key()
        assert a.cache_key(0.0) != a.cache_key(5.0)

    def test_ok_response_shape(self):
        response = ok_response(9, [{"year": 0.0}], "lru", 1.23456)
        assert response["status"] == "ok"
        assert response["id"] == 9
        assert response["elapsed_ms"] == 1.235


@pytest.fixture(scope="module")
def server():
    config = ServiceConfig(
        port=0,
        store_dir=None,
        workers=1,
        characterize_patterns=CHAR_PATTERNS,
        testing_hooks=True,
    )
    with serve_in_background(config) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServiceClient(port=server.port) as c:
        yield c


def _query(client, years, **options):
    options.setdefault("num_patterns", NUM_PATTERNS)
    options.setdefault("cycle_ns", 8.0)
    return client.query(WIDTH, "column", years, **options)


class TestServerEndToEnd:
    def test_ping_and_stats(self, client):
        assert client.ping()
        stats = client.stats()
        assert "counters" in stats and "lru_entries" in stats

    def test_cold_then_warm_query(self, client):
        cold = _query(client, [0.0, 10.0])
        assert cold["status"] == "ok"
        assert [r["year"] for r in cold["results"]] == [0.0, 10.0]
        record = cold["results"][0]
        assert record["width"] == WIDTH
        assert record["mean_delay_ns"] > 0
        assert 0.0 <= record["error_rate"] <= 1.0
        # Aging must not speed the design up.
        years0, years10 = cold["results"]
        assert years10["mean_delay_ns"] >= years0["mean_delay_ns"]

        warm = _query(client, [0.0, 10.0])
        assert warm["status"] == "ok"
        assert warm["source"] == "lru"
        assert warm["results"] == cold["results"]

    def test_error_rate_none_without_cycle(self, client):
        response = client.query(
            WIDTH, "column", 0.0, num_patterns=NUM_PATTERNS
        )
        assert response["status"] == "ok"
        assert response["results"][0]["error_rate"] is None

    def test_partial_lru_hit_builds_only_missing_years(self, client):
        _query(client, [1.0])
        before = client.stats()["counters"]
        mixed = _query(client, [1.0, 2.0])
        after = client.stats()["counters"]
        assert mixed["status"] == "ok"
        assert [r["year"] for r in mixed["results"]] == [1.0, 2.0]
        assert after["lru_hits"] - before["lru_hits"] == 1
        assert after["backend_calls"] - before["backend_calls"] == 1

    def test_concurrent_duplicates_coalesce_to_one_build(
        self, server, client
    ):
        """Acceptance: N identical concurrent cold queries -> exactly
        one backend build."""
        duplicates = 6
        before = client.stats()["counters"]
        request = {
            "width": WIDTH,
            "kind": "column",
            "years": 21.0,
            "num_patterns": NUM_PATTERNS,
            "cycle_ns": 8.0,
        }
        responses = run_concurrent_queries(
            server.port, [request] * duplicates
        )
        after = client.stats()["counters"]
        assert all(r["status"] == "ok" for r in responses)
        assert len({json.dumps(r["results"]) for r in responses}) == 1
        assert after["backend_calls"] - before["backend_calls"] == 1
        shared = (
            after["coalesced"] - before["coalesced"]
            + after["lru_hits"] - before["lru_hits"]
        )
        assert shared == duplicates - 1

    def test_matches_direct_computation(self, client):
        """The service is an oracle-faithful cache: served records are
        byte-identical to an in-process computation."""
        served = client.results(
            WIDTH, "column", [0.0, 10.0],
            num_patterns=NUM_PATTERNS, cycle_ns=8.0,
        )
        direct = compute_direct(
            QuerySpec(
                width=WIDTH, kind="column", years=(0.0, 10.0),
                num_patterns=NUM_PATTERNS, seed=1, cycle_ns=8.0,
            ),
            characterize_patterns=CHAR_PATTERNS,
        )
        canon = lambda records: json.dumps(records, sort_keys=True)
        assert canon(served) == canon(direct)


class TestDegradation:
    def test_deadline_miss_serves_stale(self, client):
        _query(client, [30.0])  # warm a stale candidate for the group
        response = _query(
            client, [31.0], inject="sleep:1.0", deadline_ms=120,
        )
        assert response["status"] == "degraded"
        assert response["degraded"]["reason"] == "deadline"
        assert response["degraded"]["stale"] is True
        assert response["results"]
        assert response["degraded"]["stale_years"] == [30.0]

    def test_worker_crash_serves_stale_then_recovers(self, client):
        _query(client, [40.0])
        response = _query(client, [41.0], inject="crash")
        assert response["status"] == "degraded"
        assert response["degraded"]["reason"] == "backend-crash"
        assert response["results"]
        # The pool was rebuilt: the next query is ordinary.
        assert _query(client, [42.0])["status"] == "ok"

    def test_crash_without_stale_is_typed_error(self, client):
        response = client.query(
            WIDTH, "column", 0.0,
            num_patterns=NUM_PATTERNS + 7,  # a never-seen group
            inject="crash",
        )
        assert response["status"] == "error"
        assert response["error"]["type"] == "BackendCrashError"
        assert response["error"]["reason"] == "backend-crash"
        assert response["results"] == []

    def test_invalid_query_is_error_response_not_disconnect(self, client):
        bad = client.query(1, "column", 0.0)
        assert bad["status"] == "error"
        assert "width" in bad["error"]["message"]
        # Same connection keeps serving.
        assert client.ping()

    def test_garbage_line_survives_connection(self, server):
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=30.0
        ) as sock:
            fp = sock.makefile("rb")
            sock.sendall(b"!!not json!!\n")
            error = decode(fp.readline())
            assert error["status"] == "error"
            sock.sendall(encode({"op": "ping", "id": 1}))
            assert decode(fp.readline())["status"] == "ok"

    def test_unknown_op_is_error(self, client):
        response = client.request({"op": "dance", "id": 5})
        assert response["status"] == "error"


class TestStaleIsolation:
    def test_stale_never_crosses_query_groups(self, server):
        """Degradation may serve another *year* of the same design and
        workload -- never another design's numbers."""
        with ServiceClient(port=server.port) as fresh:
            response = fresh.query(
                WIDTH, "am", 0.0,
                num_patterns=NUM_PATTERNS, inject="crash",
            )
        # No 'am' results exist anywhere in the LRU: typed error, not
        # a column-design record dressed up as stale data.
        assert response["status"] == "error"


class TestKernelPlumbing:
    def test_soa_server_matches_percell_direct(self, monkeypatch):
        """The SoA-served records agree with the ``percell`` reference
        on every field except the documented switched-cap
        float-association exception."""
        from functools import partial

        from repro.aging import degradation
        from repro.timing import CompiledCircuit

        spec = QuerySpec(
            width=WIDTH, kind="column", years=(0.0, 10.0),
            num_patterns=NUM_PATTERNS, seed=1, cycle_ns=8.0,
        )
        config = ServiceConfig(
            port=0, store_dir=None, workers=1,
            characterize_patterns=CHAR_PATTERNS,
        )
        with serve_in_background(config) as handle:
            with ServiceClient(port=handle.port) as client:
                served = client.results(
                    WIDTH, "column", [0.0, 10.0],
                    num_patterns=NUM_PATTERNS, cycle_ns=8.0,
                )
        monkeypatch.setattr(
            degradation, "CompiledCircuit",
            partial(CompiledCircuit, kernel="percell"),
        )
        direct = compute_direct(spec, characterize_patterns=CHAR_PATTERNS)
        assert len(served) == len(direct)
        for got, want in zip(served, direct):
            caps = got.pop("mean_switched_cap"), want.pop(
                "mean_switched_cap"
            )
            assert got == want
            assert caps[0] == pytest.approx(caps[1], rel=1e-12)


class TestCli:
    def test_direct_writes_canonical_records(self, tmp_path, capsys):
        out = tmp_path / "direct.json"
        rc = service_cli.main([
            "direct", "--width", str(WIDTH), "--kind", "column",
            "--years", "0", "--patterns", str(NUM_PATTERNS),
            "--cycle-ns", "8.0",
            "--characterize-patterns", str(CHAR_PATTERNS),
            "--json", str(out),
        ])
        assert rc == 0
        records = json.loads(out.read_text())
        assert records[0]["year"] == 0.0
        assert records[0]["width"] == WIDTH
        # The file is canonical JSON (sorted keys, compact, one line).
        text = out.read_text()
        assert text == json.dumps(
            records, sort_keys=True, separators=(",", ":")
        ) + "\n"

    def test_query_subcommand_against_live_server(
        self, server, tmp_path, capsys
    ):
        out = tmp_path / "served.json"
        rc = service_cli.main([
            "query", "--port", str(server.port),
            "--width", str(WIDTH), "--kind", "column", "--years", "0",
            "--patterns", str(NUM_PATTERNS), "--cycle-ns", "8.0",
            "--json", str(out),
        ])
        assert rc == 0
        served = json.loads(out.read_text())
        assert served[0]["year"] == 0.0
        response = json.loads(capsys.readouterr().out)
        assert response["status"] == "ok"

    def test_query_against_dead_port_exits_2(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        rc = service_cli.main([
            "query", "--port", str(dead_port),
            "--width", str(WIDTH), "--years", "0",
        ])
        assert rc == 2
