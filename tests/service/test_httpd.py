"""HTTP frontend: endpoints, error mapping, parity with the Python API."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.bitset import BitsetMatrix
from repro.core.api import mine
from repro.datasets import TransactionDatabase, read_fimi
from repro.service import MiningService, make_server
from tests.conftest import serving


@pytest.fixture
def db():
    return TransactionDatabase(
        [[0, 1, 2], [0, 1], [0, 2], [1, 2], [0, 1, 2, 3], [0, 3]]
    )


@pytest.fixture
def server(db):
    service = MiningService(workers=2)
    service.register_dataset("toy", db)
    with serving(service) as srv:
        yield srv


def _get(server, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{server.port}{path}") as resp:
        return resp.status, json.loads(resp.read().decode())


def _post(server, path, doc):
    body = json.dumps(doc).encode() if not isinstance(doc, bytes) else doc
    req = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


class TestGet:
    def test_healthz(self, server):
        status, doc = _get(server, "/healthz")
        assert (status, doc) == (200, {"status": "ok"})

    def test_root_is_healthz(self, server):
        assert _get(server, "/")[0] == 200

    def test_datasets_lists_registered_and_resident(self, server):
        status, doc = _get(server, "/datasets")
        assert status == 200
        assert doc["registered"] == ["toy"]
        assert doc["resident"] == {}  # nothing loaded yet
        _post(server, "/mine", {"dataset": "toy", "min_support": 2})
        _, doc = _get(server, "/datasets")
        assert doc["resident"]["toy"]["n_transactions"] == 6
        assert "profile" in doc["resident"]["toy"]

    def test_stats(self, server):
        _post(server, "/mine", {"dataset": "toy", "min_support": 2})
        status, doc = _get(server, "/stats")
        assert status == 200
        assert doc["scheduler"]["scheduled"] == 1
        assert doc["metrics"]["counters"]["service.queries"] == 1

    def test_unknown_path_404(self, server):
        try:
            _get(server, "/nope")
            raise AssertionError("expected HTTPError")
        except urllib.error.HTTPError as err:
            assert err.code == 404


class TestMine:
    def test_cold_query_matches_direct_mine(self, server, db):
        status, doc = _post(server, "/mine", {"dataset": "toy", "min_support": 2})
        assert status == 200
        assert doc["source"] == "cold"
        expected = mine(db, 2).to_dict(include_metrics=False)
        got = {k: doc["result"][k] for k in expected}
        assert got == expected

    def test_cache_and_filtered_hits_over_http(self, server, db):
        _post(server, "/mine", {"dataset": "toy", "min_support": 2})
        status, doc = _post(server, "/mine", {"dataset": "toy", "min_support": 2})
        assert doc["source"] == "cache"
        status, doc = _post(server, "/mine", {"dataset": "toy", "min_support": 4})
        assert doc["source"] == "cache_filtered"
        expected = mine(db, 4).to_dict(include_metrics=False)
        assert {k: doc["result"][k] for k in expected} == expected

    def test_fractional_support_and_options(self, server, db):
        status, doc = _post(
            server,
            "/mine",
            {"dataset": "toy", "min_support": 0.5, "algorithm": "eclat"},
        )
        assert status == 200
        assert doc["abs_support"] == 3
        assert doc["algorithm"] == "eclat"

    def test_unknown_dataset_404(self, server):
        status, doc = _post(server, "/mine", {"dataset": "nope", "min_support": 2})
        assert status == 404
        assert doc["type"] == "DatasetError"

    def test_unreadable_file_dataset_404(self, server, unreadable_fimi):
        server.service.register_dataset(
            "broken", lambda: read_fimi(unreadable_fimi), provenance="file"
        )
        status, doc = _post(server, "/mine", {"dataset": "broken", "min_support": 2})
        assert status == 404
        assert doc["type"] == "DatasetError"
        assert repr(unreadable_fimi) in doc["error"]

    def test_bad_support_400(self, server):
        status, doc = _post(server, "/mine", {"dataset": "toy", "min_support": 0})
        assert status == 400
        assert doc["type"] == "MiningError"

    def test_reserved_option_400(self, server):
        status, doc = _post(
            server, "/mine", {"dataset": "toy", "min_support": 2, "config": {}}
        )
        assert status == 400

    def test_missing_fields_400(self, server):
        status, doc = _post(server, "/mine", {"dataset": "toy"})
        assert status == 400
        assert "min_support" in doc["error"]

    def test_non_object_body_400(self, server):
        status, _ = _post(server, "/mine", [1, 2, 3])
        assert status == 400

    def test_invalid_json_400(self, server):
        status, doc = _post(server, "/mine", b"{not json")
        assert status == 400
        assert "JSON" in doc["error"]

    def test_post_unknown_path_404(self, server):
        status, _ = _post(server, "/other", {"dataset": "toy", "min_support": 2})
        assert status == 404

    def test_timeout_504(self, server):
        # occupy both workers so the query sits queued past its deadline
        gate = threading.Event()
        running = []

        def block():
            running.append(1)
            gate.wait(10.0)

        holders = [
            threading.Thread(
                target=lambda k=k: server.service.scheduler.execute(f"block-{k}", block)
            )
            for k in range(2)
        ]
        for t in holders:
            t.start()
        deadline = time.monotonic() + 5.0
        while len(running) < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        try:
            status, doc = _post(
                server,
                "/mine",
                {"dataset": "toy", "min_support": 2, "timeout": 0.05},
            )
            assert status == 504
            assert doc["type"] == "QueryTimeoutError"
        finally:
            gate.set()
            for t in holders:
                t.join(timeout=5.0)


def _post_raw(server, path, doc):
    """Like _post but also returns the response headers."""
    req = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), json.loads(err.read().decode())


class TestOverloadBackpressure:
    @pytest.fixture
    def tiny_server(self, db):
        service = MiningService(workers=1, queue_depth=1)
        service.register_dataset("toy", db)
        with serving(service) as srv:
            yield srv

    def test_429_carries_retry_after(self, tiny_server):
        service = tiny_server.service
        gate = threading.Event()
        running = []

        def block():
            running.append(1)
            gate.wait(10.0)

        holder = threading.Thread(
            target=lambda: service.scheduler.execute("block", block)
        )
        filler = threading.Thread(
            target=lambda: service.scheduler.execute("fill", lambda: gate.wait(10.0))
        )
        holder.start()
        deadline = time.monotonic() + 5.0
        while not running and time.monotonic() < deadline:
            time.sleep(0.005)
        filler.start()
        while (
            service.scheduler.stats()["queued"] < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        try:
            status, headers, doc = _post_raw(
                tiny_server, "/mine", {"dataset": "toy", "min_support": 2}
            )
            assert status == 429
            assert doc["type"] == "ServiceOverloadError"
            # both sides of the wire share one backoff schedule
            expected = service.retry.retry_after_seconds
            assert doc["retry_after_seconds"] == expected
            assert headers.get("Retry-After") == str(expected)
        finally:
            gate.set()
            holder.join(timeout=5.0)
            filler.join(timeout=5.0)


def _get_raw(server, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{server.port}{path}") as resp:
        return resp.status, resp.headers.get("Content-Type", ""), resp.read().decode()


class TestReadyz:
    def test_ready_after_startup(self, server):
        status, doc = _get(server, "/readyz")
        assert status == 200
        assert doc["ready"] is True
        assert doc["scheduler_alive"] is True

    def test_not_ready_after_close(self, server):
        server.service.close()
        try:
            _get(server, "/readyz")
            raise AssertionError("expected HTTPError")
        except urllib.error.HTTPError as err:
            assert err.code == 503
            doc = json.loads(err.read().decode())
            assert doc["ready"] is False
            assert doc["closed"] is True


class TestMetricsEndpoint:
    def test_prometheus_text_reparses(self, server):
        from repro.obs import parse_prometheus

        _post(server, "/mine", {"dataset": "toy", "min_support": 2})
        status, ctype, text = _get_raw(server, "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        assert "version=0.0.4" in ctype
        samples = parse_prometheus(text)  # strict: raises on any bad line
        by_name = {}
        for s in samples:
            by_name.setdefault(s["name"], []).append(s)
        assert by_name["service_queries"][0]["value"] == 1
        # the query latency histogram made it out with quantile gauges
        assert by_name["service_query_seconds_count"][0]["value"] == 1
        for q in ("p50", "p90", "p99"):
            assert f"service_query_seconds_{q}" in by_name

    def test_http_request_counters_labeled_by_route(self, server):
        from repro.obs import parse_prometheus

        # legacy and versioned spellings collapse onto one /v1 label
        _get(server, "/healthz")
        _get(server, "/v1/healthz")
        _get_raw(server, "/metrics")
        _, _, text = _get_raw(server, "/v1/metrics")
        http = [
            s for s in parse_prometheus(text) if s["name"] == "http_requests"
        ]
        routes = {s["labels"]["route"] for s in http}
        assert {"/v1/healthz", "/v1/metrics"} <= routes
        assert not any(r in routes for r in ("/healthz", "/metrics"))
        healthz = next(s for s in http if s["labels"]["route"] == "/v1/healthz")
        assert healthz["labels"]["status"] == "200"
        assert healthz["value"] >= 2


class TestDebugQueries:
    def test_listing_and_detail(self, server):
        _post(server, "/mine", {"dataset": "toy", "min_support": 2})
        _post(server, "/mine", {"dataset": "toy", "min_support": 2})
        status, doc = _get(server, "/debug/queries")
        assert status == 200
        assert doc["recorded"] == 2
        assert doc["retained"] == 2
        assert len(doc["queries"]) == 2
        newest, oldest = doc["queries"]
        assert newest["started_at"] >= oldest["started_at"]
        assert oldest["source"] == "cold"
        assert newest["source"] == "cache"
        assert "span_tree" not in newest  # listing is summaries only

        status, detail = _get(server, f"/debug/queries/{oldest['query_id']}")
        assert status == 200
        assert detail["query_id"] == oldest["query_id"]
        assert len(detail["trace_id"]) == 16
        # two roots: the query span (submitter thread) and the worker's
        # execute span — parent links don't cross threads
        roots = {r["name"]: r for r in detail["span_tree"]}
        assert "service.query" in roots
        assert roots["service.query"]["attrs"]["dataset"] == "toy"
        execute = roots["service.execute"]
        (mine_cold,) = [
            c for c in execute["children"] if c["name"] == "service.mine_cold"
        ]
        # the mining run's own spans are nested under the cold mine
        assert any(c["name"] == "mining_run" for c in mine_cold["children"])
        assert detail["metrics_delta"]["service.queries"] == 1

    def test_detail_delta_is_the_change_in_the_counter_table(self, server):
        """Each query's ``metrics_delta`` equals the unlabeled counters
        read from ``/v1/stats`` after it minus those read before it, for
        a cold mine, a cache hit and a rejected query alike."""
        for body in (
            {"dataset": "toy", "min_support": 2},
            {"dataset": "toy", "min_support": 2},
            {"dataset": "toy", "min_support": 0},
        ):
            before = _get(server, "/v1/stats")[1]["metrics"]["counters"]
            _post(server, "/v1/mine", body)
            after = _get(server, "/v1/stats")[1]["metrics"]["counters"]
            newest = _get(server, "/v1/debug/queries")[1]["queries"][0]
            _, detail = _get(server, f"/v1/debug/queries/{newest['query_id']}")
            assert detail["metrics_delta"] == {
                name: value - before.get(name, 0)
                for name, value in after.items()
                if value != before.get(name, 0)
            }

    def test_unknown_query_404(self, server):
        try:
            _get(server, "/debug/queries/q999999")
            raise AssertionError("expected HTTPError")
        except urllib.error.HTTPError as err:
            assert err.code == 404

    def test_error_queries_are_recorded(self, server):
        _post(server, "/mine", {"dataset": "toy", "min_support": 0})
        _, doc = _get(server, "/debug/queries")
        (rec,) = doc["queries"]
        assert rec["status"] == "error"
        assert rec["error_type"] == "MiningError"
        assert rec["source"] is None


def _get_with_headers(server, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{server.port}{path}") as resp:
        return resp.status, dict(resp.headers), json.loads(resp.read().decode())


class TestVersionedAPI:
    def test_v1_routes_answer(self, server):
        for path in ("/v1/healthz", "/v1/readyz", "/v1/datasets", "/v1/stats"):
            status, doc = _get(server, path)
            assert status == 200, path
        status, doc = _post(
            server, "/v1/mine", {"dataset": "toy", "min_support": 2}
        )
        assert status == 200
        assert doc["dataset"] == "toy"
        status, doc = _get(server, "/v1/debug/queries")
        assert status == 200
        assert len(doc["queries"]) == 1

    def test_v1_and_legacy_mine_agree(self, server):
        _, legacy = _post(server, "/mine", {"dataset": "toy", "min_support": 2})
        _, v1 = _post(server, "/v1/mine", {"dataset": "toy", "min_support": 2})
        assert legacy["result"]["itemsets"] == v1["result"]["itemsets"]

    def test_legacy_routes_carry_deprecation_header(self, server):
        status, headers, _ = _get_with_headers(server, "/healthz")
        assert status == 200
        assert headers.get("Deprecation") == "true"
        # bare / is the oldest alias of all
        status, headers, _ = _get_with_headers(server, "/")
        assert status == 200
        assert headers.get("Deprecation") == "true"

    def test_v1_routes_are_not_deprecated(self, server):
        status, headers, _ = _get_with_headers(server, "/v1/healthz")
        assert status == 200
        assert "Deprecation" not in headers
        status, headers, _ = _get_with_headers(server, "/v1/stats")
        assert "Deprecation" not in headers

    def test_v1_root_is_health_alias(self, server):
        status, doc = _get(server, "/v1")
        assert (status, doc) == (200, {"status": "ok"})

    def test_unknown_v1_endpoint_404s_with_original_path(self, server):
        try:
            _get(server, "/v1/nope")
            raise AssertionError("expected HTTPError")
        except urllib.error.HTTPError as err:
            assert err.code == 404
            assert "/v1/nope" in json.loads(err.read().decode())["error"]

    def test_v1_mine_body_is_a_mining_request(self, server):
        # unknown options are rejected with the shared MiningRequest
        # message, identical to what mine() raises for the same typo
        status, doc = _post(
            server,
            "/v1/mine",
            {"dataset": "toy", "min_support": 2, "diffsets": True},
        )
        assert status == 400
        assert "unknown option 'diffsets'" in doc["error"]
        status, doc = _post(
            server,
            "/v1/mine",
            {"dataset": "toy", "min_support": 2, "algorithm": 7},
        )
        assert status == 400
        assert "'algorithm' must be a string" in doc["error"]


class TestEquivalenceConflicts:
    @pytest.mark.parametrize("serve", ["hybrid-default", "out-of-core"])
    def test_equivalence_on_a_hybrid_or_out_of_core_dataset_is_400(self, serve):
        """The service folds its layout or its device budget into the
        query, and the equivalence plan takes neither: a 400 naming the
        conflict, not a mine."""
        big = TransactionDatabase.from_dense(np.random.default_rng(7).random((2048, 16)) < 0.3)
        if serve == "hybrid-default":
            kwargs, conflict = {"layout": "hybrid"}, "layout='hybrid'"
        else:
            budget = BitsetMatrix.from_database(big).nbytes // 2
            kwargs, conflict = {"device_budget_bytes": budget}, f"memory_budget_bytes={budget}"
        service = MiningService(workers=1, **kwargs)
        service.register_dataset("big", big)
        with serving(service) as srv:
            body = {"dataset": "big", "min_support": 0.2, "plan": "equivalence"}
            status, doc = _post(srv, "/v1/mine", body)
            assert status == 400, doc
            assert doc["type"] == "ConfigError"
            assert "plan='equivalence'" in doc["error"] and conflict in doc["error"]
            assert service.metrics.counter("service.cold_mines") == 0
            # the same dataset still mines by complete intersection
            assert _post(srv, "/v1/mine", {**body, "plan": "complete"})[0] == 200


class TestSocketOptions:
    def test_accepted_sockets_disable_nagle(self):
        service = MiningService(workers=1)
        srv = make_server(service, port=0)
        srv.socket.settimeout(5.0)  # accept() fails instead of hanging
        try:
            with socket.create_connection(("127.0.0.1", srv.port), timeout=5.0):
                conn, _ = srv.get_request()
                with conn:
                    assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            srv.server_close()
            service.close()
