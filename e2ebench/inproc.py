"""The two in-process workloads: ``seq-rcd-tiger`` and ``par-shm-dense``.

Each workload object generates its inputs from the seed, computes the
ground truth, measures the program's set-up, and runs one query at a
time for the closed loop in ``run.py``.  A query returns a record with
its latency, whether its result matched the ground truth, and -- when
traced -- the per-layer values read from the program's public surface
(``JoinStats`` fields and the spans of a ``repro.Tracer`` passed through
``tracer=``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from common import (
    BenchError,
    Clock,
    Truth,
    dense_pair,
    digest,
    pairs_array,
    program_env,
    tiger_pair,
)

#: Set-up repetitions per run; the median is reported.
SETUP_REPS_BUILD = 15
SETUP_REPS_COLD = 3


def stats_layers(stats: Any) -> Dict[str, Optional[float]]:
    """Per-layer values of one in-process query from its ``JoinStats``."""
    from repro.core.phases import PHASE_JOIN, PHASE_PARTITION

    phases = stats.wall_seconds_by_phase
    n_inputs = stats.n_left + stats.n_right
    results = stats.n_results
    useful_den = results + stats.duplicates_suppressed
    makespan = stats.join_makespan_seconds
    workers = stats.n_workers
    join_cpu = stats.cpu_by_phase.get(PHASE_JOIN, {})
    return {
        "pbsm.partition_ms": phases.get(PHASE_PARTITION, 0.0) * 1e3,
        "pbsm.join_ms": phases.get(PHASE_JOIN, 0.0) * 1e3,
        "pbsm.repartitions": float(stats.repartition_events),
        "pbsm.records_per_input": (
            stats.records_partitioned / n_inputs if n_inputs else 0.0
        ),
        "pbsm.useful_ratio": results / useful_den if useful_den else 1.0,
        "parallel.makespan_ms": makespan * 1e3,
        "parallel.busy_ms": stats.join_busy_seconds * 1e3,
        "parallel.utilization": (
            stats.join_busy_seconds / (makespan * workers)
            if makespan > 0 and workers > 0
            else 0.0
        ),
        "parallel.tasks_stolen": float(stats.tasks_stolen),
        "shm.ipc_ms": stats.ipc_seconds * 1e3,
        "shm.bytes_shipped": float(stats.ipc_bytes_shipped),
        "kernels.intersection_tests": float(join_cpu.get("intersection_tests", 0)),
        "kernels.batch_ops": float(join_cpu.get("batch_ops", 0)),
    }


class InProcessWorkload:
    """Common loop body: time a call, check it, read its layers."""

    name = ""

    def __init__(self, seed: int, params: Dict[str, Any], workdir: Path) -> None:
        import repro

        self.repro = repro
        self.seed = seed
        self.params = params
        self.workdir = workdir

    # subclasses: prepare(), setup_samples(), _call(tracer) -> (result, open_s)
    truth: Truth

    def corrupt_truth(self) -> None:
        self.truth.corrupt()

    def warmup(self, n: int = 3) -> None:
        for _ in range(n):
            self.query(traced=False, clock=Clock())

    def query(self, traced: bool, clock: Any) -> Dict[str, Any]:
        tracer = self.repro.Tracer() if traced else None
        t0 = time.perf_counter()
        result, open_seconds = self._call(tracer)
        latency = time.perf_counter() - t0
        record: Dict[str, Any] = {"latency": latency, "traced": traced}
        with clock.pause():
            record["ok"] = digest(pairs_array(result.pairs)) == self.truth.digest
            if traced:
                layers = stats_layers(result.stats)
                layers["mmapstore.open_ms"] = open_seconds * 1e3
                covered = open_seconds + sum(result.stats.wall_seconds_by_phase.values())
                record["layers"] = layers
                record["covered"] = covered
                record["spans"] = self._spans(tracer, latency, open_seconds)
        return record

    @staticmethod
    def _spans(tracer: Any, latency: float, open_seconds: float) -> List[dict]:
        spans = [
            {"source": "bench", "name": "query", "t_start": 0.0, "t_end": latency},
        ]
        if open_seconds:
            spans.append(
                {
                    "source": "bench",
                    "name": "mmapstore.open",
                    "t_start": 0.0,
                    "t_end": open_seconds,
                }
            )
        offset = open_seconds
        for span in tracer.spans:
            entry = span.to_dict()
            entry["source"] = "program"
            entry["t_start"] += offset
            entry["t_end"] += offset
            spans.append(entry)
        return spans

    def close(self) -> None:
        pass


class SeqRcdTiger(InProcessWorkload):
    """Sequential PBSM over TIGER-like polylines reopened from ``.rcd``.

    The single caller moves to the next CPU every second query, so each
    run samples every CPU of the box alike.  On a shared VM one vCPU can
    run half again slower than the other for seconds at a time; a
    single-threaded caller left wherever the scheduler put it would
    report that one vCPU's luck.  (The parallel workloads use every CPU
    at once and are not pinned: pool workers inherit the affinity.)
    """

    name = "seq-rcd-tiger"

    def __init__(self, seed: int, params: Dict[str, Any], workdir: Path) -> None:
        super().__init__(seed, params, workdir)
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def prepare(self) -> None:
        p = self.params
        self.left, self.right = tiger_pair(p["n"], self.seed, clusters=p["clusters"])
        self.truth = Truth("tiger", self.left, self.right)
        self.paths = (self.workdir / "tiger_l.rcd", self.workdir / "tiger_r.rcd")

    def setup_samples(self) -> List[float]:
        from repro.kernels.mmapstore import write_rcd

        samples = []
        for rep in range(SETUP_REPS_BUILD):
            # Each CPU takes its turn, as in the timed loop.
            os.sched_setaffinity(0, {self.cpus[rep % len(self.cpus)]})
            t0 = time.perf_counter()
            write_rcd(self.left, self.paths[0])
            write_rcd(self.right, self.paths[1])
            samples.append(time.perf_counter() - t0)
        # From here on the queries read only the .rcd files.
        del self.left, self.right
        return samples

    def query(self, traced: bool, clock: Any) -> Dict[str, Any]:
        os.sched_setaffinity(0, {self.cpus[(self.turn // 2) % len(self.cpus)]})
        self.turn += 1
        return super().query(traced, clock)

    def close(self) -> None:
        os.sched_setaffinity(0, self.cpus)

    def _call(self, tracer: Any) -> Any:
        from repro.datasets.fileio import load_relation

        repro = self.repro
        t0 = time.perf_counter()
        left = load_relation(self.paths[0])
        right = load_relation(self.paths[1])
        opened = time.perf_counter() - t0
        driver = repro.PBSM(
            repro.mb(self.params["memory_mb"]), internal="sweep_numpy", tracer=tracer
        )
        return driver.run(left, right), opened


class ParShmDense(InProcessWorkload):
    """Parallel PBSM on the shared-memory transport, dense results."""

    name = "par-shm-dense"

    def prepare(self) -> None:
        p = self.params
        self.left, self.right = dense_pair(p["n"], self.seed, p["mean_edge"])
        self.truth = Truth("dense", self.left, self.right)

    def setup_samples(self) -> List[float]:
        """Cold start in fresh interpreters: import + first join.

        The in-memory library path has no explicit set-up step, so its
        set-up is what a fresh process pays before its first answer:
        importing the program and the first ``spatial_join`` call with
        its lazy imports, pool spawn and first segment.  Loading the
        inputs in the child is the benchmark's work and is not timed.
        """
        import numpy as np

        inputs = self.workdir / "dense_inputs.npy"
        np.save(inputs, np.array([self.left, self.right], dtype=np.float64))
        script = Path(__file__).resolve().parent / "coldstart.py"
        samples = []
        for _ in range(SETUP_REPS_COLD):
            out = subprocess.run(
                [
                    sys.executable,
                    str(script),
                    str(inputs),
                    str(self.params["memory_mb"]),
                    str(self.params["workers"]),
                ],
                env=program_env(),
                capture_output=True,
                text=True,
                timeout=120,
                check=False,
            )
            if out.returncode != 0:
                raise BenchError(f"cold start failed:\n{out.stderr[-2000:]}")
            reply = json.loads(out.stdout.strip().splitlines()[-1])
            if reply["n_results"] != self.truth.count:
                raise BenchError(
                    f"cold start returned {reply['n_results']} pairs, "
                    f"expected {self.truth.count}"
                )
            samples.append(float(reply["setup_s"]))
        return samples

    def _call(self, tracer: Any) -> Any:
        repro = self.repro
        result = repro.spatial_join(
            self.left,
            self.right,
            repro.mb(self.params["memory_mb"]),
            workers=self.params["workers"],
            shared_memory=True,
            tracer=tracer,
        )
        return result, 0.0


__all__ = ["ParShmDense", "SeqRcdTiger", "stats_layers"]
