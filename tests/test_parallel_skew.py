"""Skewed workloads: stripe splitting stays duplicate-free, byte-identical.

The tentpole claim of the stealing scheduler is that splitting a hot
partition into sweep-axis stripes changes *nothing* about the output:
every stripe pair is owned by exactly one part (the same reference-point
convention RPM uses at partition boundaries, applied at stripe
boundaries), and the ``(pid, part)``-ordered merge reassembles exactly
the sequential sequence.  These tests drive that claim with randomized
Zipf-tile-occupancy workloads — the skew regime the scheduler exists
for — across the executor x pool ownership x scheduler x dedup cross
product (a process pool spawned per run, or an external ``pool=``): under ``dedup="twolayer"`` splitting slices the mini-join
schedule instead of a single stripe plan, and the charge-once counter
convention for split siblings must still sum to the unsplit totals.
"""

from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.phases import PHASE_JOIN
from repro.datasets.synthetic import zipf_rects
from repro.io.costmodel import mb
from repro.kernels.backend import numpy_enabled
from repro.kernels.shm import shm_enabled
from repro.pbsm import PBSM
from repro.pbsm.parallel import (
    STRIPE_SPLIT_MAX_PARTS,
    STRIPE_SPLIT_MIN_RECORDS,
    ParallelPBSM,
    _split_tasks,
    _task_key,
    _task_size,
)

needs_numpy = pytest.mark.skipif(
    not numpy_enabled(), reason="columnar kernels need numpy"
)
needs_shm = pytest.mark.skipif(
    not shm_enabled(), reason="needs numpy and platform shared memory"
)

MEMORY = mb(0.25)

# Big enough that the hot partition crosses the split floor
# (STRIPE_SPLIT_MIN_RECORDS combined records) and actually stripes.
N_SPLIT = 20_000

LEFT = zipf_rects(N_SPLIT, seed=101)
RIGHT = zipf_rects(N_SPLIT, seed=202, start_oid=10**6)


def run(executor, *, scheduler="stealing", external_pool=False, workers=2,
        dedup="rpm"):
    def join(pool=None):
        return ParallelPBSM(
            MEMORY,
            workers,
            internal="sweep_numpy",
            executor=executor,
            scheduler=scheduler,
            dedup=dedup,
            pool=pool,
        ).run(LEFT, RIGHT)

    if not external_pool:
        return join()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return join(pool)


# ----------------------------------------------------------------------
# _split_tasks mechanics
# ----------------------------------------------------------------------
class TestSplitTasks:
    def _record_task(self, pid, n):
        return (pid, [("l",)] * n, [("r",)] * n)

    def test_small_tasks_untouched(self):
        tasks = [self._record_task(pid, 10) for pid in range(5)]
        assert _split_tasks(tasks, 4) == tasks

    def test_hot_task_splits_cold_stay(self):
        hot = self._record_task(0, STRIPE_SPLIT_MIN_RECORDS)
        cold = [self._record_task(pid, 8) for pid in range(1, 6)]
        out = _split_tasks([hot] + cold, 2)
        parts = [t for t in out if _task_key(t)[0] == 0]
        assert len(parts) >= 2
        n_parts = parts[0][-1]
        assert sorted(t[-2] for t in parts) == list(range(n_parts))
        assert all(t[-1] == n_parts for t in parts)
        assert [t for t in out if _task_key(t)[0] != 0] == cold

    def test_lone_hot_task_still_splits_above_floor(self):
        # A single oversized task has nothing to compare against (its
        # own mean), but the absolute floor still splits it.
        hot = self._record_task(0, 50 * STRIPE_SPLIT_MIN_RECORDS)
        cold = [self._record_task(pid, 8) for pid in range(1, 4)]
        out = _split_tasks([hot] + cold, 4)
        parts = [t for t in out if _task_key(t)[0] == 0]
        assert 2 <= len(parts) <= STRIPE_SPLIT_MAX_PARTS

    def test_split_sizes_shrink(self):
        hot = self._record_task(0, STRIPE_SPLIT_MIN_RECORDS)
        cold = [self._record_task(pid, 8) for pid in range(1, 6)]
        base = _task_size(hot)
        for part_task in _split_tasks([hot] + cold, 2):
            if _task_key(part_task)[0] == 0:
                assert _task_size(part_task) < base


# ----------------------------------------------------------------------
# byte-identity under skew, every executor and pool
# ----------------------------------------------------------------------
@needs_numpy
class TestSkewedByteIdentity:
    @pytest.fixture(scope="class")
    def sequential(self):
        return PBSM(MEMORY, internal="sweep_numpy", dedup="rpm").run(LEFT, RIGHT)

    @pytest.fixture(scope="class")
    def simulated(self):
        return run("simulated")

    def test_simulated_matches_sequential_pairs(self, sequential, simulated):
        assert not simulated.has_duplicates()
        assert simulated.pair_set() == sequential.pair_set()

    def test_split_actually_triggered(self):
        # The Zipf workload must cross the stripe-split threshold, or
        # this whole file tests nothing: stripe parts show up as task
        # spans with ``part > 0``.
        from repro.obs import Tracer
        from repro.obs.trace import KIND_TASK

        tracer = Tracer()
        join = ParallelPBSM(
            MEMORY,
            2,
            internal="sweep_numpy",
            executor="simulated",
            scheduler="stealing",
            tracer=tracer,
        )
        join.run(LEFT, RIGHT)
        parts = [
            span.tags.get("part", 0)
            for span in tracer.spans_of_kind(KIND_TASK)
        ]
        assert any(p > 0 for p in parts)

    def test_static_matches_stealing(self, simulated):
        static = run("simulated", scheduler="static")
        assert static.pairs == simulated.pairs
        assert (
            static.stats.duplicates_suppressed
            == simulated.stats.duplicates_suppressed
        )

    @pytest.mark.parametrize(
        "executor,external_pool",
        [
            ("process", False),
            pytest.param("process", True, marks=needs_shm),
            ("thread", False),
        ],
    )
    def test_executors_byte_identical(self, simulated, executor, external_pool):
        real = run(executor, external_pool=external_pool)
        assert real.pairs == simulated.pairs  # same pairs, same order
        assert not real.has_duplicates()
        assert (
            real.stats.duplicates_suppressed
            == simulated.stats.duplicates_suppressed
        )
        assert real.stats.cpu_by_phase == simulated.stats.cpu_by_phase

    def test_thread_scheduler_stats_populated(self):
        result = run("thread")
        stats = result.stats
        assert stats.executor == "thread"
        assert stats.scheduler == "stealing"
        assert stats.n_workers == 2
        assert 0.0 < stats.worker_utilization <= 1.0


# ----------------------------------------------------------------------
# the same matrix under dedup="twolayer" (corner-class avoidance)
# ----------------------------------------------------------------------
@needs_numpy
class TestTwolayerSkewMatrix:
    """Executor x pool x scheduler, with two-layer duplicate avoidance.

    Splitting a two-layer task slices the flattened mini-join sequence
    (straddling mini-joins continue as forward-scan stripe sub-slices),
    so on top of byte-identity the matrix asserts the scheme's own
    invariants: zero reference-point tests, zero sort removals, and the
    charge-once convention — counters summed over split stripe siblings
    equal the unsplit static run exactly.
    """

    @pytest.fixture(scope="class")
    def twolayer_static(self):
        return run("simulated", scheduler="static", dedup="twolayer")

    def test_pair_set_matches_rpm(self, twolayer_static, sequential_rpm):
        assert not twolayer_static.has_duplicates()
        assert twolayer_static.pair_set() == sequential_rpm.pair_set()

    @pytest.fixture(scope="class")
    def sequential_rpm(self):
        return PBSM(MEMORY, internal="sweep_numpy", dedup="rpm").run(LEFT, RIGHT)

    def test_zero_dedup_work(self, twolayer_static):
        join_cpu = twolayer_static.stats.cpu_by_phase[PHASE_JOIN]
        assert join_cpu["refpoint_tests"] == 0
        assert twolayer_static.stats.duplicates_suppressed == 0
        assert twolayer_static.stats.duplicates_sorted_out == 0

    def test_split_actually_triggered(self):
        from repro.obs import Tracer
        from repro.obs.trace import KIND_TASK

        tracer = Tracer()
        join = ParallelPBSM(
            MEMORY,
            2,
            internal="sweep_numpy",
            executor="simulated",
            scheduler="stealing",
            dedup="twolayer",
            tracer=tracer,
        )
        join.run(LEFT, RIGHT)
        parts = [
            span.tags.get("part", 0)
            for span in tracer.spans_of_kind(KIND_TASK)
        ]
        assert any(p > 0 for p in parts)

    @pytest.mark.parametrize("scheduler", ["static", "stealing"])
    @pytest.mark.parametrize(
        "executor,external_pool",
        [
            ("simulated", False),
            ("process", False),
            pytest.param("process", True, marks=needs_shm),
            ("thread", False),
        ],
    )
    def test_matrix_byte_identical(
        self, twolayer_static, executor, external_pool, scheduler
    ):
        real = run(
            executor,
            scheduler=scheduler,
            external_pool=external_pool,
            dedup="twolayer",
        )
        assert real.pairs == twolayer_static.pairs  # same pairs, same order
        assert not real.has_duplicates()
        # Charge-once: split stripe siblings (stealing) must sum to the
        # unsplit (static) counter totals, on every executor and pool.
        assert real.stats.cpu_by_phase == twolayer_static.stats.cpu_by_phase


# ----------------------------------------------------------------------
# randomized property: duplicate-freedom survives any Zipf workload
# ----------------------------------------------------------------------
@needs_numpy
class TestZipfProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        alpha=st.floats(min_value=0.8, max_value=2.0),
        n=st.integers(min_value=2_000, max_value=9_000),
        workers=st.integers(min_value=2, max_value=4),
        dedup=st.sampled_from(("rpm", "twolayer")),
    )
    def test_stealing_parallel_equals_sequential(
        self, seed, alpha, n, workers, dedup
    ):
        left = zipf_rects(n, seed=seed, alpha=alpha)
        right = zipf_rects(n, seed=seed + 1, alpha=alpha, start_oid=10**6)
        seq = PBSM(MEMORY, internal="sweep_numpy", dedup="rpm").run(left, right)
        par = ParallelPBSM(
            MEMORY,
            workers,
            internal="sweep_numpy",
            executor="simulated",
            scheduler="stealing",
            dedup=dedup,
        ).run(left, right)
        assert not par.has_duplicates()
        assert par.pair_set() == seq.pair_set()
        assert len(par.pairs) == len(seq.pairs)
