"""Tests for the always-on join service (`repro serve`).

Everything here runs in-process: a real `JoinServer` on an ephemeral
port, spoken to by the real `ServeClient`.  The default configuration
(`workers=1`, datasets registered from inline records) needs neither
numpy nor platform shared memory, so the suite also covers the no-numpy
CI job; pinning and the persistent-pool execution path are exercised by
the `needs_shm`-gated tests at the bottom.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro import spatial_join
from repro.kernels.backend import numpy_enabled
from repro.kernels.shm import shm_enabled, sweep_orphan_segments
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    AdmissionController,
    AdmissionReject,
    DatasetRegistry,
    EngineHost,
    JoinServer,
    ServeClient,
    result_checksum,
)
from repro.serve.protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    paginate,
)

from .conftest import random_kpes

needs_numpy = pytest.mark.skipif(
    not numpy_enabled(), reason="needs numpy (the [perf] extra)"
)
needs_shm = pytest.mark.skipif(
    not shm_enabled(), reason="needs numpy and platform shared memory"
)

MEMORY = 1 << 20  # 1 MiB: forces real partitioning on the test relations

LEFT = random_kpes(300, seed=31, max_edge=0.05)
RIGHT = random_kpes(300, seed=32, start_oid=10_000, max_edge=0.05)


def run(coro):
    return asyncio.run(coro)


def make_registry() -> DatasetRegistry:
    registry = DatasetRegistry()
    registry.register("L", LEFT)
    registry.register("R", RIGHT)
    return registry


async def _started_server(**kwargs) -> JoinServer:
    registry = kwargs.pop("registry", None) or make_registry()
    engine = kwargs.pop("engine", None) or EngineHost(MEMORY, workers=1)
    admission = kwargs.pop("admission", None)
    server = JoinServer(registry, engine, admission, port=0, **kwargs)
    await server.start()
    return server


def expected_checksum() -> str:
    return result_checksum(spatial_join(LEFT, RIGHT, MEMORY, method="pbsm").pairs)


# ----------------------------------------------------------------------
# protocol primitives
# ----------------------------------------------------------------------
class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"op": "join", "left": "L", "n": 3, "nested": {"a": [1, 2]}}
        line = encode_message(message)
        assert line.endswith(b"\n")
        assert decode_message(line) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_message(b"{not json}\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2, 3]\n")

    def test_checksum_is_order_insensitive(self):
        pairs = [(3, 4), (1, 2), (5, 6)]
        assert result_checksum(pairs) == result_checksum(list(reversed(pairs)))
        assert result_checksum(pairs) != result_checksum(pairs[:2])

    def test_paginate_covers_everything_in_order(self):
        pairs = [(i, i + 1) for i in range(10)]
        pages = list(paginate(pairs, 4))
        assert [len(p) for p in pages] == [4, 4, 2]
        assert [tuple(row) for page in pages for row in page] == pairs

    def test_paginate_empty_result_is_no_pages(self):
        assert list(paginate([], 4)) == []


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_capacity_reject_when_full_and_queue_exhausted(self):
        async def scenario():
            ctrl = AdmissionController(max_inflight=1, max_queue=0)
            async with ctrl.slot():
                assert ctrl.inflight == 1
                with pytest.raises(AdmissionReject) as err:
                    async with ctrl.slot():
                        pass
                assert err.value.reason == "capacity"
            assert ctrl.rejects_capacity == 1
            assert ctrl.inflight == 0

        run(scenario())

    def test_queue_admits_after_release(self):
        async def scenario():
            ctrl = AdmissionController(max_inflight=1, max_queue=1)
            order = []

            async def holder():
                async with ctrl.slot():
                    order.append("first")
                    await asyncio.sleep(0.05)

            async def waiter():
                await asyncio.sleep(0.01)  # let the holder win the slot
                async with ctrl.slot():
                    order.append("second")

            await asyncio.gather(holder(), waiter())
            assert order == ["first", "second"]
            assert ctrl.rejects_capacity == 0

        run(scenario())

    def test_budget_reject(self):
        ctrl = AdmissionController(budget_seconds=0.5)
        ctrl.check_budget(0.4)  # under budget: fine
        with pytest.raises(AdmissionReject) as err:
            ctrl.check_budget(0.6)
        assert err.value.reason == "budget"
        assert ctrl.rejects_budget == 1

    def test_no_budget_means_no_budget_rejects(self):
        AdmissionController().check_budget(1e9)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue=-1)

    def test_on_change_keeps_gauges_current(self):
        seen = []

        async def scenario():
            ctrl = AdmissionController(max_inflight=1)
            ctrl.on_change = lambda c: seen.append((c.inflight, c.queue_depth))
            async with ctrl.slot():
                pass

        run(scenario())
        assert (1, 0) in seen  # while held
        assert seen[-1] == (0, 0)  # after release


# ----------------------------------------------------------------------
# dataset registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_register_and_lookup(self):
        registry = DatasetRegistry()
        entry = registry.register("L", LEFT)
        assert entry.n == len(LEFT)
        assert registry.get("L") is entry
        assert "L" in registry and "nope" not in registry
        assert registry.names() == ["L"]
        registry.close()

    def test_reregister_same_source_is_idempotent(self):
        registry = DatasetRegistry()
        first = registry.register("L", LEFT)
        again = registry.register("L", LEFT)
        assert again is first
        registry.close()

    def test_reregister_different_source_conflicts(self):
        registry = DatasetRegistry()
        registry.register("L", LEFT, source="records")
        with pytest.raises(ValueError):
            registry.register("L", LEFT, source="file:other.csv")
        registry.close()

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            DatasetRegistry().get("missing")

    def test_pinning_follows_platform_support(self):
        registry = DatasetRegistry()
        entry = registry.register("L", LEFT)
        assert entry.pinned == shm_enabled()
        describe = entry.describe()
        assert describe["pinned"] == entry.pinned
        registry.close()
        assert not entry.pinned  # close() unlinks and clears the pin

    def test_pin_disabled_registry_never_pins(self):
        registry = DatasetRegistry(pin=False)
        entry = registry.register("L", LEFT)
        assert not entry.pinned
        registry.close()

    def test_close_is_idempotent(self):
        registry = DatasetRegistry()
        registry.register("L", LEFT)
        registry.close()
        registry.close()


# ----------------------------------------------------------------------
# latency histograms (the serve-facing MetricsRegistry extension)
# ----------------------------------------------------------------------
class TestHistogram:
    def test_observe_quantile_and_count(self):
        metrics = MetricsRegistry()
        metrics.histogram("lat", "latency", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.05, 0.5, 5.0):
            metrics.observe("lat", value)
        assert metrics.histogram_count("lat") == 4
        # p50 falls in the first bucket, p99 in the last finite one.
        assert metrics.quantile("lat", 0.50) <= 0.1
        assert 1.0 < metrics.quantile("lat", 0.99) <= 10.0

    def test_empty_histogram_quantile_is_zero(self):
        metrics = MetricsRegistry()
        metrics.histogram("lat", "latency")
        assert metrics.quantile("lat", 0.99) == 0.0
        assert metrics.histogram_count("lat") == 0

    def test_render_emits_cumulative_buckets(self):
        metrics = MetricsRegistry()
        metrics.histogram("lat", "latency", buckets=(1.0, 2.0))
        metrics.observe("lat", 0.5)
        metrics.observe("lat", 1.5)
        text = metrics.render()
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_sum 2\n" in text
        assert "lat_count 2" in text

    def test_name_collision_with_counter_raises(self):
        metrics = MetricsRegistry()
        metrics.counter("x", "a counter")
        with pytest.raises(ValueError):
            metrics.histogram("x", "same name")
        metrics.histogram("h", "a histogram")
        with pytest.raises(ValueError):
            metrics.counter("h", "same name")


# ----------------------------------------------------------------------
# server lifecycle and the join op
# ----------------------------------------------------------------------
class TestServer:
    def test_lifecycle_and_simple_ops(self):
        async def scenario():
            server = await _started_server()
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    ping = await client.ping()
                    assert ping["ok"] and ping["workers"] == 1
                    datasets = await client.request({"op": "datasets"})
                    assert [d["name"] for d in datasets["datasets"]] == ["L", "R"]
                    unknown = await client.request({"op": "frobnicate"})
                    assert not unknown["ok"]
                    assert unknown["error"] == "unknown_op"
            finally:
                await server.stop()

        run(scenario())

    def test_protocol_error_keeps_connection_alive(self):
        async def scenario():
            server = await _started_server()
            try:
                client = await ServeClient.connect(port=server.port)
                client._writer.write(b"{broken\n")
                await client._writer.drain()
                response = await client._read_response()
                assert not response["ok"] and response["error"] == "protocol"
                assert (await client.ping())["ok"]  # still usable
                await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_join_byte_parity_with_sequential_engine(self):
        expected = spatial_join(LEFT, RIGHT, MEMORY, method="pbsm")
        expected_pairs = sorted(expected.pairs)

        async def scenario():
            server = await _started_server()
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    summary, pairs = await client.join(
                        "L", "R", include_pairs=True, page_size=100
                    )
                    assert summary["ok"] and summary["done"]
                    assert summary["n_results"] == len(expected_pairs)
                    assert sorted(pairs) == expected_pairs
                    assert summary["checksum"] == result_checksum(expected.pairs)
            finally:
                await server.stop()

        run(scenario())

    def test_second_query_is_served_from_plan_cache(self):
        async def scenario():
            server = await _started_server()
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    first, _ = await client.join("L", "R")
                    second, _ = await client.join("L", "R")
                    assert not first["from_cache"]
                    assert second["from_cache"]
                    assert second["profile_spans"] == 0
                    assert second["checksum"] == first["checksum"]
                    trace = await client.trace(second["query_id"])
                    names = [span["name"] for span in trace["spans"]]
                    assert "profile" not in names
            finally:
                await server.stop()

        run(scenario())

    def test_concurrent_clients_all_get_identical_results(self):
        expected = expected_checksum()

        async def one_client(port: int) -> str:
            async with await ServeClient.connect(port=port) as client:
                summary, _ = await client.join("L", "R")
                assert summary["ok"], summary
                return summary["checksum"]

        async def scenario():
            server = await _started_server(
                admission=AdmissionController(max_inflight=2, max_queue=16)
            )
            try:
                checksums = await asyncio.gather(
                    *(one_client(server.port) for _ in range(6))
                )
                assert checksums == [expected] * 6
            finally:
                await server.stop()

        run(scenario())

    def test_unknown_dataset_is_an_error_response(self):
        async def scenario():
            server = await _started_server()
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    summary, _ = await client.join("L", "missing")
                    assert not summary["ok"]
                    assert summary["error"] == "unknown_dataset"
            finally:
                await server.stop()

        run(scenario())

    def test_bad_join_parameters_are_bad_requests(self):
        """Malformed limits get a typed reply before admission, and the
        connection stays usable for the next (valid) join."""
        bad = [
            {"memory_mb": "x"},
            {"memory_mb": 0},
            {"memory_mb": -1},
            {"memory_mb": "nan"},
            {"page_size": 0},
        ]

        async def scenario():
            server = await _started_server()
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    for params in bad:
                        summary, pairs = await client.join(
                            "L", "R", include_pairs=True, **params
                        )
                        assert not summary["ok"], params
                        assert summary["error"] == "bad_request", params
                        assert pairs == []
                    summary, _ = await client.join("L", "R")
                    assert summary["ok"] and summary["done"]
                    text = await client.metrics_text()
                    assert (
                        f'repro_serve_queries_total{{status="error"}} {len(bad)}'
                        in text
                    )
                    # No join ran for a rejected request.
                    assert 'repro_serve_queries_total{status="ok"} 1' in text
            finally:
                await server.stop()

        run(scenario())

    def test_budget_rejection_over_the_wire(self):
        async def scenario():
            server = await _started_server(
                admission=AdmissionController(budget_seconds=0.0)
            )
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    summary, _ = await client.join("L", "R")
                    assert not summary["ok"]
                    assert summary["error"] == "rejected"
                    assert summary["reason"] == "budget"
                    stats = await client.stats()
                    assert stats["admission"]["rejects_budget"] == 1
                    assert stats["queries"]["rejected"] == 1
            finally:
                await server.stop()

        run(scenario())

    def test_capacity_rejection_over_the_wire(self):
        async def scenario():
            server = await _started_server(
                admission=AdmissionController(max_inflight=1, max_queue=0)
            )
            # Make the planning step slow enough that concurrent queries
            # overlap deterministically while the slot is held.
            original_plan = server.engine.plan

            def slow_plan(*args, **kwargs):
                time.sleep(0.25)
                return original_plan(*args, **kwargs)

            server.engine.plan = slow_plan
            try:

                async def one_join():
                    async with await ServeClient.connect(port=server.port) as c:
                        summary, _ = await c.join("L", "R")
                        return summary

                summaries = await asyncio.gather(*(one_join() for _ in range(3)))
                outcomes = sorted(
                    s.get("reason", "ok") if not s.get("ok") else "ok"
                    for s in summaries
                )
                assert outcomes.count("ok") == 1
                assert outcomes.count("capacity") == 2
            finally:
                await server.stop()

        run(scenario())

    def test_metrics_scrape_has_serve_series(self):
        async def scenario():
            server = await _started_server()
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    await client.join("L", "R")
                    await client.join("L", "R")
                    text = await client.metrics_text()
                    assert 'repro_serve_queries_total{status="ok"} 2' in text
                    assert "repro_serve_query_seconds_bucket" in text
                    assert "repro_serve_query_seconds_count 2" in text
                    assert "repro_serve_queue_depth 0" in text
                    assert "repro_serve_datasets 2" in text
                    stats = await client.stats()
                    assert stats["latency"]["count"] == 2
                    assert stats["latency"]["p99_seconds"] >= 0.0
            finally:
                await server.stop()

        run(scenario())

    def test_shutdown_op_stops_the_serve_loop(self):
        async def scenario():
            server = await _started_server()
            loop_task = asyncio.ensure_future(server.serve_until_stopped())
            async with await ServeClient.connect(port=server.port) as client:
                response = await client.shutdown()
                assert response["ok"] and response["stopping"]
            await asyncio.wait_for(loop_task, timeout=10)

        run(scenario())


# ----------------------------------------------------------------------
# shared-memory integration: pinning, pools, and the orphan sweep
# ----------------------------------------------------------------------
@needs_shm
class TestServeShm:
    def test_registered_datasets_are_pinned_and_unpinned_on_stop(self):
        async def scenario():
            server = await _started_server()
            try:
                described = server.registry.describe()
                assert all(d["pinned"] for d in described)
                segments = [d["segment"] for d in described]
                assert all(seg for seg in segments)
            finally:
                await server.stop()
            assert all(not d["pinned"] for d in server.registry.describe())

        run(scenario())
        assert sweep_orphan_segments(include_live=True) == []

    def test_pool_and_pinned_execution_matches_sequential(self):
        """Force a process-pool candidate through the persistent pool +
        pinned-segment path and demand byte parity."""
        engine = EngineHost(MEMORY, workers=2)
        registry = make_registry()
        try:
            engine.start()
            if engine.pool is None:
                pytest.skip("worker cap forced workers=1 on this box")
            left, right = registry.get("L"), registry.get("R")
            plan = engine.plan(left, right)
            parallel = [
                c
                for c in plan.candidates
                if c.method == "pbsm"
                and "workers" in c.kwargs
                and c.kwargs.get("executor") == "process"
            ]
            assert parallel, "planner enumerated no process-pool candidate"
            plan.chosen = parallel[0]
            result = engine.execute(plan, left, right)
            expected = spatial_join(LEFT, RIGHT, MEMORY, method="pbsm")
            assert sorted(result.pairs) == sorted(expected.pairs)
            assert result.stats.shared_memory
        finally:
            engine.shutdown()
            registry.close()
        assert sweep_orphan_segments(include_live=True) == []

    def test_sweep_reaps_segment_of_a_dead_creator(self):
        """A SIGKILLed server's segments embed a dead pid; sweep reaps
        exactly those and leaves live-owner segments alone."""
        import subprocess
        import sys

        script = (
            "import sys\n"
            "sys.path.insert(0, 'src')\n"
            "from repro.kernels.backend import require_numpy\n"
            "from repro.kernels.shm import SharedColumnarStore\n"
            "np = require_numpy()\n"
            "store = SharedColumnarStore.create({'x': np.arange(4)}, track=False)\n"
            "print(store.name)\n"
        )
        orphan = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=str(__import__("pathlib").Path(__file__).resolve().parents[1]),
            check=True,
        ).stdout.strip()
        import os

        assert os.path.exists(f"/dev/shm/{orphan}")
        swept = sweep_orphan_segments()
        assert orphan in swept
        assert not os.path.exists(f"/dev/shm/{orphan}")

    def test_server_stop_leaves_no_segments_behind(self):
        async def scenario():
            server = await _started_server(
                engine=EngineHost(MEMORY, workers=2)
            )
            try:
                async with await ServeClient.connect(port=server.port) as client:
                    summary, _ = await client.join("L", "R")
                    assert summary["ok"]
            finally:
                await server.stop()

        run(scenario())
        assert sweep_orphan_segments(include_live=True) == []
