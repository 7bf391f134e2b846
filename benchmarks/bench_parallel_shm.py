"""Bench A9: the shared-memory process transport of ParallelPBSM.

The claim under test: on a 100k-rectangle-per-side PBSM join, shipping
partition *indices* through one shared-memory segment keeps the
process-pool traffic to task tuples, configs and manifests, while the
join output stays byte-identical to the in-process execution.

The process pool used to have a second transport that pickled the
replicated record lists into every task; on this workload it shipped
``PICKLE_BYTES_AT_W2`` bytes at two workers (3.15 s against 0.79 s for
shared memory, ``BENCH_parallel_shm.json`` before the pickle transport
was deleted).  The gate keeps that 10x margin against the recorded
figure.  Wall clock is recorded, not gated: on a single-CPU container
the pool cannot show a speedup.
"""

import time

import pytest

from repro.bench.render import ExperimentResult
from repro.datasets import uniform_rects
from repro.io.costmodel import mb
from repro.kernels.backend import cpu_count, numpy_enabled
from repro.kernels.shm import shm_enabled
from repro.pbsm.parallel import ParallelPBSM

from benchmarks.conftest import column, record

#: The headline workload: 100k rectangles a side (Fig. 4 regime).
N_SIDE = 100_000
MEAN_EDGE = 0.002
MEMORY = mb(0.5)

#: IPC bytes the deleted pickle transport shipped on this workload at W=2.
PICKLE_BYTES_AT_W2 = 11_399_556
MIN_BYTES_RATIO = 10.0


def _worker_counts():
    counts = {1, 2}
    counts.update(range(2, min(cpu_count(), 4) + 1))
    return sorted(counts)


def run_parallel_shm_bench() -> ExperimentResult:
    left = uniform_rects(N_SIDE, seed=91, mean_edge=MEAN_EDGE)
    right = uniform_rects(
        N_SIDE, seed=92, start_oid=1_000_000, mean_edge=MEAN_EDGE
    )
    rows = []
    for workers in _worker_counts():
        reference = None
        labels = ["simulated"] if workers == 1 else ["simulated", "shm"]
        for label in labels:
            executor = "simulated" if label == "simulated" else "process"
            join = ParallelPBSM(
                MEMORY, workers, internal="sweep_numpy", executor=executor
            )
            start = time.perf_counter()
            result = join.run(left, right)
            seconds = time.perf_counter() - start
            if reference is None:
                reference = result.pairs
            # The pool reproduces the in-process output byte for byte,
            # not merely as a set.
            assert result.pairs == reference
            rows.append(
                (
                    label,
                    workers,
                    len(result.pairs),
                    round(seconds, 3),
                    result.stats.ipc_bytes_shipped,
                    round(result.stats.ipc_seconds, 4),
                )
            )
    return ExperimentResult(
        exp_id="Ablation A9",
        title=f"Shared-memory process transport ({N_SIDE:,} rects/side)",
        columns=[
            "transport",
            "workers",
            "pairs",
            "wall_sec",
            "ipc_bytes",
            "ipc_sec",
        ],
        rows=rows,
        paper_claim=(
            "partition tasks are index ranges into one shared segment, so "
            "the pool ships task tuples instead of replicated record lists"
        ),
        notes=[
            f"machine cpu_count={cpu_count()}",
            f"pickle transport (deleted) shipped {PICKLE_BYTES_AT_W2:,} "
            "bytes at W=2",
        ],
    )


@pytest.mark.benchmark(group="parallel")
def test_parallel_shm_bytes_and_wall(benchmark):
    if not (numpy_enabled() and shm_enabled()):
        pytest.skip("shared-memory transport needs numpy and POSIX shm")
    result = benchmark.pedantic(
        run_parallel_shm_bench, rounds=1, iterations=1
    )
    transports = column(result, "transport")
    workers = column(result, "workers")
    walls = column(result, "wall_sec")
    ipc_bytes = column(result, "ipc_bytes")
    record(
        "parallel_shm",
        result,
        workload=f"uniform {N_SIDE:,}x{N_SIDE:,} PBSM join, memory=0.5MB",
        wall_seconds={
            f"{t}/W={w}": wall for t, w, wall in zip(transports, workers, walls)
        },
        ipc_bytes={
            f"{t}/W={w}": b for t, w, b in zip(transports, workers, ipc_bytes)
        },
        pickle_bytes_at_w2=PICKLE_BYTES_AT_W2,
    )
    shm_bytes = {
        w: b for t, w, b in zip(transports, workers, ipc_bytes) if t == "shm"
    }
    assert shm_bytes, "bench must cover at least one multi-worker count"
    for w, b in shm_bytes.items():
        assert b > 0
        assert PICKLE_BYTES_AT_W2 >= MIN_BYTES_RATIO * b, (w, b)
