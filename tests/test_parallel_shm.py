"""The zero-copy shared-memory transport of ParallelPBSM's process pool.

Four claims are pinned here: (1) the process executor's output is
byte-identical to the in-process and thread executors — through a pool
spawned per run, an external ``pool=`` and an external pool with
``pinned=`` dataset segments, for both online dedup modes — with
identical simulated costs and counters; (2) the pipe traffic is task
tuples and manifests, far below the record lists it replaces; (3) a
failing chunk propagates its error and leaks no result segment; (4)
every rung of the degradation ladder (``workers=1``,
``REPRO_DISABLE_SHM``, numpy gated off or absent) lands on a
byte-identical in-process fallback.  The store and CSR plumbing get
their own unit tests.  Everything numpy-dependent skips cleanly, so the
no-numpy CI job runs this file too and exercises the missing-numpy
degrade for real.
"""

import multiprocessing
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.stats import CpuCounters
from repro.io.costmodel import CostModel, mb
from repro.io.disk import SimulatedDisk
from repro.kernels.backend import numpy_enabled, python_backend
from repro.kernels.shm import SharedColumnarStore, columnar_arrays, shm_enabled
from repro.pbsm.grid import TileGrid
from repro.pbsm.parallel import ParallelPBSM
from repro.pbsm.partitioner import partition_csr, partition_relation

from tests.conftest import random_kpes

needs_numpy = pytest.mark.skipif(
    not numpy_enabled(), reason="columnar kernels need numpy"
)
needs_shm = pytest.mark.skipif(
    not shm_enabled(), reason="needs numpy and platform shared memory"
)

LEFT = random_kpes(1200, seed=71, max_edge=0.03)
RIGHT = random_kpes(1200, seed=72, start_oid=10**6, max_edge=0.03)
MEMORY = mb(0.05)


def run(workers, *, executor="process", internal="sweep_numpy", **kwargs):
    join = ParallelPBSM(
        MEMORY, workers, internal=internal, executor=executor, **kwargs
    )
    return join.run(LEFT, RIGHT)


def repro_segments():
    """Names of this package's shared-memory segments currently on the box."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {n for n in os.listdir("/dev/shm") if n.startswith("repro_shm_")}


# ----------------------------------------------------------------------
# SharedColumnarStore
# ----------------------------------------------------------------------
@needs_shm
class TestSharedColumnarStore:
    def test_create_attach_round_trip(self):
        import numpy as np

        arrays = {
            "a": np.arange(10, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 7),
        }
        with SharedColumnarStore.create(arrays) as store:
            manifest = pickle.loads(pickle.dumps(store.manifest))
            other = SharedColumnarStore.attach(manifest)
            try:
                assert list(other.keys()) == ["a", "b"]
                assert (other["a"] == arrays["a"]).all()
                assert other["b"] == pytest.approx(arrays["b"])
                assert not other.owner and store.owner
            finally:
                other.close()

    def test_gather_copies(self):
        import numpy as np

        from repro.kernels.columnar import ColumnarRelation

        cols = ColumnarRelation.from_kpes(LEFT[:50])
        with SharedColumnarStore.create(columnar_arrays("L", cols)) as store:
            sub = store.gather("L", np.array([3, 1, 3], dtype=np.int64))
            assert sub.oid.tolist() == [LEFT[3][0], LEFT[1][0], LEFT[3][0]]
            # A gathered relation is private: mutating it must not write
            # through to the mapped segment.
            sub.xl[:] = -1.0
            assert store["L.xl"][3] == LEFT[3][1]

    def test_unlink_is_idempotent(self):
        import numpy as np

        store = SharedColumnarStore.create({"x": np.zeros(4)})
        try:
            store.close()
        finally:
            store.unlink()
        store.unlink()  # second unlink must not raise

    def test_empty_arrays_supported(self):
        import numpy as np

        with SharedColumnarStore.create({"x": np.empty(0, dtype=np.int64)}) as store:
            assert store["x"].shape == (0,)


# ----------------------------------------------------------------------
# CSR partition indices
# ----------------------------------------------------------------------
class TestCsrPartitioning:
    def _partition(self, emit):
        from repro.core.space import Space

        grid = TileGrid(Space(0.0, 0.0, 1.0, 1.0), 4, 4, 4, mapping="hash")
        disk = SimulatedDisk(CostModel())
        files, written = partition_relation(
            LEFT[:200], grid, disk, 20, CpuCounters(), "L", emit=emit
        )
        return files, written, disk

    def test_ids_mirror_records(self):
        rec_files, rec_written, rec_disk = self._partition("records")
        id_files, id_written, id_disk = self._partition("ids")
        assert id_written == rec_written
        # Same charged I/O, same file shapes — only the payload differs.
        assert id_disk.total_units() == rec_disk.total_units()
        for rec_file, id_file in zip(rec_files, id_files):
            records = rec_file.read_all()
            ids = id_file.read_all()
            assert [LEFT[i] for i in ids] == records

    def test_partition_csr_concatenates_in_order(self):
        id_files, _, _ = self._partition("ids")
        offsets, ids = partition_csr(id_files)
        assert offsets[0] == 0 and offsets[-1] == len(ids)
        for pid, file in enumerate(id_files):
            assert ids[offsets[pid]:offsets[pid + 1]] == file.read_all()

    def test_unknown_emit_rejected(self):
        with pytest.raises(ValueError):
            self._partition("columns")


# ----------------------------------------------------------------------
# executor parity
# ----------------------------------------------------------------------
@needs_shm
class TestShmExecutorParity:
    @pytest.mark.parametrize("internal", ["sweep_numpy", "sweep_trie"])
    def test_byte_identical_across_executors(self, internal):
        sim = run(2, executor="simulated", internal=internal)
        shm = run(2, internal=internal)
        assert shm.stats.shared_memory
        assert shm.pairs == sim.pairs  # same pairs, same order
        assert shm.stats.duplicates_suppressed == sim.stats.duplicates_suppressed
        assert shm.stats.cpu_by_phase == sim.stats.cpu_by_phase
        assert shm.stats.io_units_by_phase == sim.stats.io_units_by_phase
        assert shm.stats.sim_seconds == pytest.approx(sim.stats.sim_seconds)

    def test_shm_ships_far_fewer_bytes(self):
        # Every record crosses into some task, so the pickled inputs are
        # a floor on what shipping record lists would cost.
        shm = run(2)
        records_bytes = len(pickle.dumps(LEFT)) + len(pickle.dumps(RIGHT))
        assert shm.stats.shared_memory
        assert shm.stats.ipc_bytes_shipped > 0
        assert records_bytes >= 10 * shm.stats.ipc_bytes_shipped

    def test_self_join_byte_identical(self):
        sim = ParallelPBSM(MEMORY, 2, internal="sweep_numpy").run(LEFT, LEFT)
        shm = ParallelPBSM(
            MEMORY, 2, internal="sweep_numpy", executor="process"
        ).run(LEFT, LEFT)
        assert shm.pairs == sim.pairs

    def test_workers_1_spawns_no_pool_or_segment(self):
        one = run(1)
        two = run(2)
        # Degenerate case: in-process loop, no pool, no segments, no IPC.
        assert not one.stats.shared_memory
        assert one.stats.ipc_bytes_shipped == 0
        assert one.stats.worker_busy_seconds == {}
        assert two.stats.shared_memory


# ----------------------------------------------------------------------
# one process path: spawned pool, external pool, external pool + pins
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def external_pool():
    with ProcessPoolExecutor(max_workers=2) as pool:
        yield pool


@pytest.fixture(scope="module")
def pinned_inputs():
    """LEFT and RIGHT pinned the way the serve registry pins datasets."""
    from repro.kernels.columnar import ColumnarRelation

    with SharedColumnarStore.create(
        columnar_arrays("D", ColumnarRelation.from_kpes(LEFT))
    ) as left, SharedColumnarStore.create(
        columnar_arrays("D", ColumnarRelation.from_kpes(RIGHT))
    ) as right:
        yield left.manifest, right.manifest


@needs_shm
class TestExecutionPathMatrix:
    @pytest.fixture(scope="class", params=["rpm", "twolayer"])
    def in_process(self, request):
        return request.param, run(2, executor="simulated", dedup=request.param)

    @pytest.mark.parametrize(
        "path", ["thread", "spawned", "external", "external-pinned"]
    )
    def test_byte_identical(self, in_process, path, external_pool, pinned_inputs):
        dedup, reference = in_process
        kwargs = {"executor": "thread"} if path == "thread" else {}
        if path.startswith("external"):
            kwargs["pool"] = external_pool
        if path == "external-pinned":
            kwargs["pinned"] = pinned_inputs
        result = run(2, dedup=dedup, **kwargs)
        assert result.stats.shared_memory == (path != "thread")
        assert result.pairs == reference.pairs  # same pairs, same order
        assert result.stats.cpu_by_phase == reference.stats.cpu_by_phase
        assert result.stats.sim_seconds == pytest.approx(
            reference.stats.sim_seconds
        )


@needs_shm
class TestChunkFailure:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers must inherit the patched kernel",
    )
    @pytest.mark.parametrize("external", [False, True], ids=["spawned", "external"])
    def test_failing_chunk_leaks_no_result_segment(self, monkeypatch, external):
        import repro.pbsm.parallel as parallel

        real = parallel.rpm_join_ids

        def failing(a, b, grid, pid, *args, **kwargs):
            if pid == 0:
                raise RuntimeError("injected kernel failure")
            return real(a, b, grid, pid, *args, **kwargs)

        monkeypatch.setattr(parallel, "rpm_join_ids", failing)
        before = repro_segments()
        # The pool is created after the patch, so its forked workers
        # run the failing kernel too.
        pool = ProcessPoolExecutor(max_workers=2) if external else None
        try:
            with pytest.raises(RuntimeError, match="injected kernel failure"):
                run(2, pool=pool)
        finally:
            if pool is not None:
                pool.shutdown()
        assert repro_segments() - before == set()


# ----------------------------------------------------------------------
# degradation ladder
# ----------------------------------------------------------------------
class TestDegradation:
    def test_disable_env_runs_in_process(self, monkeypatch):
        # Works with or without numpy: the process executor degrades to
        # the in-process loop, warns once per process, and must match
        # the simulated executor bit for bit.
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        assert not shm_enabled()
        internal = "sweep_numpy" if numpy_enabled() else "sweep_trie"
        sim = run(2, executor="simulated", internal=internal)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            degraded = run(2, internal=internal)
            again = run(2, internal=internal)
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "in-process" in str(runtime[0].message)
        assert degraded.pairs == sim.pairs == again.pairs
        assert not degraded.stats.shared_memory
        assert degraded.stats.ipc_bytes_shipped == 0
        assert degraded.stats.worker_busy_seconds == {}

    @needs_numpy
    def test_numpy_gate_closes_shm(self):
        with python_backend():
            assert not shm_enabled()
            sim = run(2, executor="simulated", internal="sweep_trie")
            with pytest.warns(RuntimeWarning, match="in-process"):
                degraded = run(2, internal="sweep_trie")
        assert degraded.pairs == sim.pairs
        assert not degraded.stats.shared_memory

    def test_missing_numpy_degrades(self):
        # In the no-numpy CI job this runs for real; with numpy it is
        # covered by the gate test above, so just pin the switch.
        if not numpy_enabled():
            assert not shm_enabled()
            sim = run(2, executor="simulated", internal="sweep_trie")
            with pytest.warns(RuntimeWarning, match="in-process"):
                degraded = run(2, internal="sweep_trie")
            assert degraded.pairs == sim.pairs
            assert not degraded.stats.shared_memory


# ----------------------------------------------------------------------
# API surface
# ----------------------------------------------------------------------
class TestApi:
    def test_shared_memory_requires_workers(self):
        from repro import spatial_join

        with pytest.raises(ValueError, match="requires workers"):
            spatial_join(LEFT, RIGHT, MEMORY, shared_memory=True)

    @needs_shm
    def test_spatial_join_shared_memory(self):
        from repro import spatial_join

        # The flag is accepted for compatibility and changes nothing.
        plain = spatial_join(LEFT, RIGHT, MEMORY, workers=2)
        shm = spatial_join(LEFT, RIGHT, MEMORY, workers=2, shared_memory=True)
        assert shm.pairs == plain.pairs
        assert shm.stats.shared_memory and plain.stats.shared_memory

    @needs_shm
    def test_ipc_metrics_exported(self):
        from repro.obs import MetricsRegistry

        shm = run(2)
        registry = MetricsRegistry()
        registry.observe_join(shm.stats)
        text = registry.render()
        assert "repro_join_ipc_bytes_total" in text
        assert "repro_join_ipc_seconds" in text
        # One transport: the label that told two apart is gone.
        assert "transport=" not in text
