"""Bench A10: work stealing + stripe splitting vs static LPT under skew.

The claim under test: on a 100k-rectangle-per-side Zipf workload whose
hottest tile carries the overwhelming majority of the join work, static
LPT chunking strands every worker behind the mega-partition, while the
stealing scheduler stripes that partition into duplicate-free parts and
keeps the pool busy — a >= 1.5x smaller simulated join makespan at two
workers, byte-identical output all the way.

The ratio is asserted in *simulated* seconds (``lpt_schedule`` over the
measured per-task costs), which depends only on operation counts — a
single-CPU container reproduces it exactly.  The ``sim-serial`` row runs
the same tasks at W=1, so its makespan is the total work; dividing it by
``W * makespan`` turns the other rows into deterministic utilization
figures (the quantity the CI skew-smoke job gates on).  Real wall-clock
ratios are recorded in the JSON, and asserted only when the box has the
cores to show them.

Workload construction: at these constants the engine estimates 19
partitions and lays a 9x9 tile grid over the data MBR.  ``zipf_rects``
with ``grid=18`` places records on a tile lattice exactly twice as fine,
so every Zipf tile — the hottest one included — falls strictly inside
one engine tile and hashes to a single partition.  Two corner "pin"
rectangles per side fix the data MBR to the exact unit square so the two
lattices stay aligned.  Without the alignment the hot tile straddles an
engine tile boundary, its records split into two medium partitions, and
static LPT at W=2 balances them by luck — hiding exactly the skew this
bench exists to measure.
"""

import time

import pytest

from repro.bench.render import ExperimentResult
from repro.core.phases import PHASE_JOIN
from repro.core.rect import KPE
from repro.datasets.synthetic import zipf_rects
from repro.io.costmodel import mb
from repro.kernels.backend import cpu_count, numpy_enabled
from repro.pbsm import PBSM
from repro.pbsm.parallel import ParallelPBSM

from benchmarks.conftest import column, record

#: 100k rectangles a side; alpha=4 puts ~92% of them in the hottest tile.
N_SIDE = 100_000
ALPHA = 4.0
MEAN_EDGE = 2e-4
ZIPF_GRID = 18
TILE_SEED = 7
MEMORY = mb(0.25)
WORKERS = 2

MIN_SIM_RATIO = 1.5
#: Deterministic (simulated) utilization gates: stealing keeps both
#: workers fed; static leaves one of them idling behind the mega-task.
MIN_STEAL_SIM_UTILIZATION = 0.85
MAX_STATIC_SIM_UTILIZATION = 0.70


def _pins(start_oid):
    """Two corner rectangles pinning the data MBR to the unit square."""
    eps = 1e-9
    return [
        KPE(start_oid, 0.0, 0.0, eps, eps),
        KPE(start_oid + 1, 1.0 - eps, 1.0 - eps, 1.0, 1.0),
    ]


def skewed_workload():
    left = zipf_rects(
        N_SIDE,
        seed=41,
        alpha=ALPHA,
        mean_edge=MEAN_EDGE,
        grid=ZIPF_GRID,
        tile_seed=TILE_SEED,
    ) + _pins(10_000_000)
    right = zipf_rects(
        N_SIDE,
        seed=42,
        alpha=ALPHA,
        mean_edge=MEAN_EDGE,
        grid=ZIPF_GRID,
        tile_seed=TILE_SEED,
        start_oid=1_000_000,
    ) + _pins(20_000_000)
    return left, right


def _run(executor, scheduler, workers, left, right):
    join = ParallelPBSM(
        MEMORY,
        workers,
        internal="sweep_numpy",
        executor=executor,
        scheduler=scheduler,
    )
    started = time.perf_counter()
    result = join.run(left, right)
    return result, time.perf_counter() - started


def run_parallel_skew_bench() -> ExperimentResult:
    left, right = skewed_workload()
    sequential = PBSM(MEMORY, internal="sweep_numpy", dedup="rpm").run(
        left, right
    )
    reference_pairs = sequential.pair_set()

    configs = [
        # (row label, executor, scheduler, workers)
        ("sim-serial", "simulated", "static", 1),
        ("sim-static", "simulated", "static", WORKERS),
        ("sim-stealing", "simulated", "stealing", WORKERS),
        ("static", "process", "static", WORKERS),
        ("stealing", "process", "stealing", WORKERS),
        ("thread-stealing", "thread", "stealing", WORKERS),
    ]
    rows = []
    for label, executor, scheduler, workers in configs:
        result, wall = _run(executor, scheduler, workers, left, right)
        stats = result.stats
        assert result.pair_set() == reference_pairs  # byte-identical join
        assert not result.has_duplicates()
        rows.append(
            (
                label,
                executor,
                scheduler,
                round(stats.sim_seconds_by_phase[PHASE_JOIN], 3),
                round(stats.join_makespan_seconds, 3),
                round(stats.join_busy_seconds, 3),
                round(stats.worker_utilization, 3),
                stats.tasks_stolen,
                round(stats.scheduler_idle_seconds, 3),
                round(wall, 3),
                stats.n_results,
            )
        )
    return ExperimentResult(
        exp_id="Ablation A10",
        title=f"Skewed parallel PBSM, {N_SIDE // 1000}k x {N_SIDE // 1000}k, W={WORKERS}",
        columns=[
            "config",
            "executor",
            "scheduler",
            "sim_makespan",
            "makespan_sec",
            "busy_sec",
            "utilization",
            "stolen",
            "idle_sec",
            "wall_sec",
            "results",
        ],
        rows=rows,
        paper_claim=(
            "stripe splitting keeps RPM duplicate-free across stripe "
            "boundaries; stealing bounds the makespan by the largest "
            "*stripe*, not the largest partition"
        ),
    )


@pytest.mark.skipif(not numpy_enabled(), reason="needs the columnar kernel")
@pytest.mark.benchmark(group="ablations")
def test_parallel_skew(benchmark):
    result = benchmark.pedantic(run_parallel_skew_bench, rounds=1, iterations=1)
    record(
        "parallel_skew",
        result,
        workload=f"zipf(alpha={ALPHA}, grid={ZIPF_GRID}) {N_SIDE}x{N_SIDE}",
        workers=WORKERS,
        min_sim_ratio=MIN_SIM_RATIO,
        min_steal_sim_utilization=MIN_STEAL_SIM_UTILIZATION,
        max_static_sim_utilization=MAX_STATIC_SIM_UTILIZATION,
    )
    labels = column(result, "config")
    sim = dict(zip(labels, column(result, "sim_makespan")))
    results = set(column(result, "results"))
    assert len(results) == 1  # scheduler choice cannot change the answer

    # The deterministic headline: splitting the mega-partition drops the
    # simulated join makespan by >= 1.5x at two workers.
    assert sim["sim-static"] / sim["sim-stealing"] >= MIN_SIM_RATIO

    # sim-serial's makespan is the total work, so total / (W * makespan)
    # is a deterministic utilization: stealing keeps both workers fed,
    # static strands one behind the unsplit mega-partition.
    total_work = sim["sim-serial"]
    assert total_work / (WORKERS * sim["sim-stealing"]) >= (
        MIN_STEAL_SIM_UTILIZATION
    )
    assert total_work / (WORKERS * sim["sim-static"]) <= (
        MAX_STATIC_SIM_UTILIZATION
    )

    # Real-wall claims need real cores.
    if cpu_count() >= 2:
        makespan = dict(zip(labels, column(result, "makespan_sec")))
        assert makespan["stealing"] <= makespan["static"] * 1.10
