"""The ``serve-mixed`` workload: a ``repro serve`` subprocess under a
closed-loop mix from one client process.

Three input pairs are built as ``.rcd`` files and pinned by path with
``--dataset``: TIGER-like polylines, Zipf-skewed rectangles and dense
uniform rectangles.  ``connections`` clients (at most ``nproc``) each
walk a fixed, seeded sequence of 12-query blocks; every block holds each
pair four times -- twice plain, once with a fresh memory budget (a plan
cache miss that forces enumeration) and once asking for result pages --
in a seeded order.  The proportions are therefore exact in every run and
the percentiles never sit on a boundary that shifts with the seed.  With
``--max-inflight`` equal to the connection count, no cost budget and a
queue longer than the connection count, no query can be rejected.
"""

from __future__ import annotations

import asyncio
import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BenchError,
    MIN_QUERIES,
    Truth,
    dense_pair,
    digest,
    median,
    pairs_array,
    program_env,
    rng_for,
    tiger_pair,
    zipf_pair,
)

PAIRS = ("tiger", "zipf", "dense")
#: Modes of one block, per pair.
BLOCK_MODES = ("plain", "plain", "fresh", "paged")
#: Step between fresh memory budgets (MB): each is a new plan-cache key
#: while staying close enough to the base budget to pick the same plan.
FRESH_STEP_MB = 0.0005
SETUP_REPS = 5
#: Per-layer values the served path does not expose in any reply.
SERVE_GAPS = (
    "parallel.makespan_ms",
    "parallel.utilization",
    "pbsm.repartitions",
    "pbsm.records_per_input",
)


def _socket_path(path: Path) -> str:
    """A unix-socket path short enough for ``sun_path`` (108 bytes)."""
    text = str(path)
    if len(text) < 100:
        return text
    rel = os.path.relpath(path)
    if len(rel) >= 100:
        raise BenchError(f"socket path too long: {text}")
    return rel


class ServeMixed:
    name = "serve-mixed"

    def __init__(self, seed: int, params: Dict[str, Any], workdir: Path) -> None:
        self.seed = seed
        self.params = params
        self.workdir = workdir
        self.proc: Optional[subprocess.Popen] = None
        self.sock = workdir / "serve.sock"
        self.truths: Dict[str, Truth] = {}
        self.checksum_seconds: Dict[str, float] = {}
        self.gaps = SERVE_GAPS

    # ------------------------------------------------------------------
    # inputs, ground truth, set-up
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        from repro.serve.protocol import result_checksum

        p = self.params
        self.inputs = {
            "tiger": tiger_pair(p["n_tiger"], self.seed, clusters=p["clusters"]),
            "zipf": zipf_pair(p["n_zipf"], self.seed),
            "dense": dense_pair(p["n_dense"], self.seed, p["mean_edge"]),
        }
        for name, (left, right) in self.inputs.items():
            truth = Truth(name, left, right)
            self.truths[name] = truth
            # The server checksums every result with this function; time
            # it here over the same pair set (the served path exposes no
            # per-query checksum span).
            samples = []
            for _ in range(3):
                t0 = time.perf_counter()
                checksum = result_checksum(truth.pairs)
                samples.append(time.perf_counter() - t0)
            if checksum != truth.sha256:
                raise BenchError(f"{name}: result_checksum disagrees with SHA-256 of the truth")
            self.checksum_seconds[name] = median(samples)
            truth.pairs = []  # digests suffice from here on

    def corrupt_truth(self) -> None:
        for truth in self.truths.values():
            truth.corrupt()

    def _build(self) -> List[str]:
        from repro.kernels.mmapstore import write_rcd

        args = []
        for name, (left, right) in self.inputs.items():
            for side, rel in (("l", left), ("r", right)):
                path = self.workdir / f"{name}_{side}.rcd"
                write_rcd(rel, path)
                args += ["--dataset", f"{name}_{side}={path}"]
        return args

    def _start(self, dataset_args: List[str]) -> None:
        p = self.params
        if self.sock.exists():
            self.sock.unlink()
        log = open(self.workdir / "serve.log", "ab")
        try:
            self.proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "serve",
                    "--unix-socket",
                    _socket_path(self.sock),
                    "--workers",
                    str(p["workers"]),
                    "--memory-mb",
                    str(p["memory_mb"]),
                    "--max-inflight",
                    str(p["connections"]),
                    "--max-queue",
                    str(4 * p["connections"]),
                    *dataset_args,
                ],
                cwd=os.getcwd(),
                env=program_env(),
                stdout=subprocess.PIPE,
                stderr=log,
            )
        finally:
            log.close()
        self._wait_listening(timeout=90.0)

    def _wait_listening(self, timeout: float) -> None:
        proc = self.proc
        assert proc is not None and proc.stdout is not None
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError("server did not start listening in time")
            ready, _, _ = select.select([proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = proc.stdout.readline()
            if not line:
                raise BenchError(
                    f"server exited during start-up (code {proc.wait()}); "
                    f"see {self.workdir / 'serve.log'}"
                )
            if b"listening" in line:
                return

    def _stop(self) -> None:
        proc = self.proc
        self.proc = None
        if proc is None:
            return
        from repro.serve.client import ServeClient

        async def shutdown() -> None:
            client = await ServeClient.connect(unix_socket=_socket_path(self.sock))
            try:
                await client.shutdown()
            finally:
                await client.close()

        try:
            if proc.poll() is None:
                asyncio.run(shutdown())
            proc.wait(timeout=60)
        except (OSError, ConnectionError, subprocess.TimeoutExpired):
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        finally:
            if proc.stdout is not None:
                proc.stdout.close()

    def setup_samples(self) -> List[float]:
        """`.rcd` builds + server start until listening (pool, pins).

        Repeated :data:`SETUP_REPS` times; the last server stays up for
        the timed phase.
        """
        samples = []
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            self._start(self._build())
            samples.append(time.perf_counter() - t0)
            if rep < SETUP_REPS - 1:
                self._stop()
        return samples

    def close(self) -> None:
        self._stop()

    # ------------------------------------------------------------------
    # the timed phase
    # ------------------------------------------------------------------
    def run_phase(self, seconds: float, trace: bool) -> Tuple[List[dict], float, dict]:
        return asyncio.run(self._phase(seconds, trace))

    async def _phase(self, seconds: float, trace: bool) -> Tuple[List[dict], float, dict]:
        from repro.serve.client import ServeClient

        sock = _socket_path(self.sock)
        clients = [
            await ServeClient.connect(unix_socket=sock)
            for _ in range(self.params["connections"])
        ]
        try:
            # warm-up (discarded): every connection asks each pair once,
            # filling the plan cache for the base budget and the workers'
            # pinned-segment attachments.
            await asyncio.gather(*(self._warm(c) for c in clients))
            stats0 = await clients[0].stats()
            stolen0 = _tasks_stolen(await clients[0].metrics_text())
            self._fresh = 0
            self._done = 0
            start = time.perf_counter()
            deadline = start + seconds
            per_conn = await asyncio.gather(
                *(
                    self._connection(i, c, deadline, trace)
                    for i, c in enumerate(clients)
                )
            )
            wall = max(end for _, end in per_conn) - start
            stats1 = await clients[0].stats()
            stolen1 = _tasks_stolen(await clients[0].metrics_text())
        finally:
            for client in clients:
                await client.close()

        records = [r for recs, _ in per_conn for r in recs]
        # Paged results were kept as arrays; check them now, outside the
        # timed phase, against the ground-truth digests.
        for record in records:
            arr = record.pop("paged_pairs", None)
            if arr is not None and digest(arr) != self.truths[record["pair"]].digest:
                record["ok"] = False
        adm0, adm1 = stats0["admission"], stats1["admission"]
        rejects = sum(
            adm1[k] - adm0[k] for k in ("rejects_capacity", "rejects_budget")
        )
        extra = {
            "serve.rejects": float(rejects),
            "parallel.tasks_stolen": (stolen1 - stolen0) / max(1, len(records)),
        }
        return records, wall, extra

    async def _warm(self, client: Any) -> None:
        for pair in PAIRS:
            summary, _ = await client.join(f"{pair}_l", f"{pair}_r")
            if not summary.get("ok"):
                raise BenchError(f"warm-up query on {pair} failed: {summary}")

    async def _connection(
        self, conn: int, client: Any, deadline: float, trace: bool
    ) -> Tuple[List[dict], float]:
        records: List[dict] = []
        block = 0
        while time.perf_counter() < deadline or self._done < MIN_QUERIES:
            items = [(pair, mode) for pair in PAIRS for mode in BLOCK_MODES]
            rng_for(self.seed, "serve", conn, block).shuffle(items)
            traced = trace and block % 2 == 1
            for pair, mode in items:
                records.append(await self._query(client, pair, mode, traced))
                self._done += 1
            block += 1
        return records, time.perf_counter()

    async def _query(self, client: Any, pair: str, mode: str, traced: bool) -> dict:
        memory_mb = None
        if mode == "fresh":
            self._fresh += 1
            memory_mb = self.params["memory_mb"] + FRESH_STEP_MB * self._fresh
        paged = mode == "paged"
        t0 = time.perf_counter()
        summary, pairs = await client.join(
            f"{pair}_l", f"{pair}_r", memory_mb=memory_mb, include_pairs=paged
        )
        latency = time.perf_counter() - t0
        truth = self.truths[pair]
        ok = (
            bool(summary.get("ok"))
            and summary.get("checksum") == truth.sha256
            and summary.get("n_results") == truth.count
        )
        record: Dict[str, Any] = {
            "latency": latency,
            "ok": ok,
            "traced": traced,
            "pair": pair,
            "mode": mode,
        }
        if paged:
            record["paged_pairs"] = pairs_array(pairs)
        if traced and ok:
            reply = await client.trace(summary["query_id"])
            record.update(self._layers(pair, latency, summary, reply.get("spans", [])))
        return record

    def _layers(self, pair: str, latency: float, summary: dict, spans: List[dict]) -> dict:
        from repro.core.phases import PHASE_JOIN, PHASE_PARTITION

        plan = sum(s["wall_seconds"] for s in spans if s["kind"] == "plan")
        run = sum(s["wall_seconds"] for s in spans if s["kind"] == "run")
        phase = {s["name"]: s for s in spans if s["kind"] == "phase"}
        join_counters = phase.get(PHASE_JOIN, {}).get("counters", {})
        busy = sum(s["wall_seconds"] for s in spans if s["kind"] == "worker")
        elapsed = float(summary["elapsed_seconds"])
        results = int(summary["n_results"])
        dups = int(summary.get("duplicates_suppressed") or 0)
        wire = latency - elapsed
        layers: Dict[str, Optional[float]] = {
            "mmapstore.open_ms": 0.0,
            "pbsm.partition_ms": phase.get(PHASE_PARTITION, {}).get("wall_seconds", 0.0)
            * 1e3,
            "pbsm.join_ms": phase.get(PHASE_JOIN, {}).get("wall_seconds", 0.0) * 1e3,
            "pbsm.useful_ratio": results / (results + dups) if results + dups else 1.0,
            "kernels.intersection_tests": float(join_counters.get("intersection_tests", 0)),
            "kernels.batch_ops": float(join_counters.get("batch_ops", 0)),
            "parallel.busy_ms": busy * 1e3,
            "shm.ipc_ms": float(join_counters.get("ipc_seconds", 0.0)) * 1e3,
            "shm.bytes_shipped": float(join_counters.get("bytes_shipped", 0)),
            "planner.plan_ms": (
                None if summary.get("from_cache") else float(summary["planning_seconds"]) * 1e3
            ),
            "planner.cache_hit_rate": 1.0 if summary.get("from_cache") else 0.0,
            "serve.server_ms": elapsed * 1e3,
            "serve.execute_ms": (plan + run) * 1e3,
            "serve.checksum_ms": self.checksum_seconds[pair] * 1e3,
            "serve.wire_ms": wire * 1e3,
        }
        for gap in SERVE_GAPS:
            layers[gap] = None
        spans_out = [
            {"source": "bench", "name": "query", "t_start": 0.0, "t_end": latency},
        ]
        for span in spans:
            entry = dict(span)
            entry["source"] = "server"
            spans_out.append(entry)
        return {"layers": layers, "covered": wire + plan + run, "spans": spans_out}


def _tasks_stolen(metrics_text: str) -> float:
    total = 0.0
    for line in metrics_text.splitlines():
        if line.startswith("repro_join_tasks_stolen_total"):
            total += float(line.rsplit(" ", 1)[1])
    return total


__all__ = ["ServeMixed"]
