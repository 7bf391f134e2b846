"""Parallel PBSM: simulated multi-worker model and real multiprocess fan-out.

The paper's related work points to parallel spatial join processing
[BKS 96, Pat 98]; PBSM parallelises naturally because partition pairs are
independent once partitioning has replicated the data.  This module offers
three executors over the same shared-nothing decomposition:

* ``executor="simulated"`` — the analytic model: the partitioning phase is
  a single sequential scan, after which the P partition-pair join tasks —
  each with its own measured I/O + CPU cost — are scheduled onto W
  workers with the LPT (longest processing time first) heuristic.  The
  simulated total runtime is ``partition_phase + makespan``, so the
  speedup curve flattens exactly where the paper's decomposition
  predicts: the sequential partitioning fraction and the largest single
  partition bound the achievable speedup (Amdahl).
* ``executor="process"`` — the same task decomposition, actually executed:
  the join tasks are fanned out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Results are merged
  in partition order, so the output is byte-identical to the sequential
  execution.  With ``workers=1`` the fan-out degrades gracefully to an
  in-process loop (no pool is spawned).
* ``executor="thread"`` — the same fan-out over a
  :class:`concurrent.futures.ThreadPoolExecutor`.  The columnar kernel
  spends its time inside numpy, which releases the GIL, so threads scale
  on the vectorized path while costing no process spawn, no pickling and
  no IPC at all — and they share pinned ``serve/`` segments for free.

On skewed inputs one mega-partition sets the makespan no matter how the
remaining tasks are packed.  Two knobs attack that:

* **stripe splitting**: any task whose joined size dwarfs the mean is
  split into sweep-axis stripe parts (``kernels/sweep.py`` computes the
  stripe plan identically in every part and executes only the part's
  stripe range), so the mega-partition's work spreads over many workers
  while the concatenated output stays bit-identical to the sequential
  scan;
* the **scheduler**: ``scheduler="static"`` is the classic up-front LPT
  packing into per-worker chunks; ``scheduler="stealing"`` (default)
  keeps tasks in one largest-first queue and hands the next unit to
  whichever worker frees up first (completion-driven dispatch — the
  pool-level equivalent of idle workers stealing the next-largest task).
  ``stats.tasks_stolen`` counts the units that ran on a different worker
  than static LPT would have planned, and
  ``stats.scheduler_idle_seconds`` is the summed worker idle time the
  makespan hides.

The process executor has one transport, zero-copy shared memory: both
inputs are loaded once into a columnar
:class:`~repro.kernels.shm.SharedColumnarStore` segment together with CSR
partition-index arrays (or only the CSR arrays, when ``pinned=`` names
dataset segments that already hold the columns), a join task shrinks to
five integers ``(pid, l_lo, l_hi, r_lo, r_hi)`` (seven with a stripe
part), and result ``(rid, sid)`` id buffers come back through a
worker-created segment — only task tuples and manifests cross the pipe.
A pool spawned per run and an externally owned persistent pool
(``pool=``, the ``repro serve`` path) are driven identically: every
chunk payload is ``(config, tasks)``, submitted to the one worker entry
:func:`_run_pool_chunk`, which attaches the segments the config names for
the chunk's duration.  Without numpy or POSIX shared memory (or with
``REPRO_DISABLE_SHM=1``) ``executor="process"`` runs the in-process loop
instead, with one :class:`RuntimeWarning` per process and byte-identical
output — there is no pure-Python process parallelism.

Duplicate handling is online — ``dedup="rpm"`` (the reference-point test)
or ``dedup="twolayer"`` (corner-class avoidance, zero per-pair work) —
which is what makes the parallel version correct without any cross-worker
coordination: each result is owned by exactly one partition — and, under
stripe splitting, by exactly one stripe part of that partition.  The
offline ``"sort"`` mode would serialise the join behind a global sorting
phase, so it is rejected here rather than silently degraded.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import warnings
from contextlib import nullcontext
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.phases import PHASE_JOIN, PHASE_PARTITION
from repro.core.result import JoinResult, JoinStats
from repro.core.space import Space
from repro.core.stats import CpuCounters
from repro.internal import internal_algorithm
from repro.io.costmodel import CostModel
from repro.io.disk import SimulatedDisk
from repro.kernels.backend import (
    active_backend,
    cpu_count,
    numpy_enabled,
    require_numpy,
)
from repro.kernels.rpm import rpm_join_ids, rpm_join_task
from repro.kernels.shm import (
    AliasedStore,
    ChainedStore,
    Manifest,
    SharedColumnarStore,
    columnar_arrays,
    shm_enabled,
)
from repro.kernels.twolayer import twolayer_join_ids, twolayer_join_task
from repro.obs.trace import KIND_RUN, KIND_TASK, KIND_WORKER, NULL_TRACER
from repro.pbsm.estimator import estimate_partitions
from repro.pbsm.grid import TileGrid
from repro.pbsm.partitioner import partition_relation
from repro.pbsm.scheduler import SCHEDULERS, count_steals, lpt_schedule
from repro.pbsm.twolayer import twolayer_partition_join

EXECUTORS = ("simulated", "process", "thread")

#: Dedup modes the parallel driver supports: both are *online* (each pair
#: is owned by exactly one task), so no cross-worker phase is needed.
PARALLEL_DEDUP_MODES = ("rpm", "twolayer")

#: Chunks submitted per worker in process mode; >1 smooths load imbalance
#: that the up-front LPT packing cannot foresee.
CHUNKS_PER_WORKER = 4

#: A task is stripe-split when its joined size exceeds
#: ``max(STRIPE_SPLIT_FACTOR * mean task size, STRIPE_SPLIT_MIN_RECORDS)``.
STRIPE_SPLIT_FACTOR = 2.0

#: Below this joined size splitting cannot amortise the duplicated
#: stripe-layout work (2x the sweep kernel's own striping floor).
STRIPE_SPLIT_MIN_RECORDS = 8192

#: Upper bound on stripe parts per task.
STRIPE_SPLIT_MAX_PARTS = 16

#: Environment override raising the worker-count clamp beyond the usable
#: CPU count (tests and benches on small machines oversubscribe through
#: this on purpose).
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"

#: ``(pid, records_left, records_right)`` — one partition-pair join task;
#: a stripe-split part appends ``(part, n_parts)``.
JoinTask = Tuple[Any, ...]

#: ``(pid, l_lo, l_hi, r_lo, r_hi)`` — the same task in shared-memory
#: form: two CSR slices into the segment's partition-index arrays; a
#: stripe-split part appends ``(part, n_parts)``.
ShmJoinTask = Tuple[Any, ...]

#: ``(pid, part, pairs, suppressed, counters_dict, wall_seconds)`` — one
#: task's outcome.  ``part`` is the stripe part (0 for unsplit tasks);
#: merging sorts by ``(pid, part)``.  ``wall_seconds`` is measured inside
#: the worker, so per-task timing survives the process boundary instead
#: of being dropped.
TaskOutcome = Tuple[int, int, List[Tuple[int, int]], int, Dict[str, int], float]

#: ``(worker_label, chunk_wall, task_outcomes, chunk_bytes)`` — one
#: decoded chunk as :meth:`ParallelPBSM._emit_pool_spans` consumes it.
ChunkReport = Tuple[str, float, List[TaskOutcome], int]


def _grid_spec(grid: TileGrid) -> Tuple:
    """A picklable description from which a worker can rebuild the grid."""
    space = grid.space
    return (
        space.xl,
        space.yl,
        space.xh,
        space.yh,
        grid.nx,
        grid.ny,
        grid.n_partitions,
        grid.mapping,
    )


def _grid_from_spec(spec: Tuple) -> TileGrid:
    xl, yl, xh, yh, nx, ny, n_partitions, mapping = spec
    return TileGrid(Space(xl, yl, xh, yh), nx, ny, n_partitions, mapping)


def _worker_cap() -> int:
    """The largest worker count the real executors will actually spawn."""
    cap = cpu_count() or 1
    try:
        cap = max(cap, int(os.environ.get(MAX_WORKERS_ENV, "")))
    except (TypeError, ValueError):
        pass
    return cap


#: Clamp and degrade messages already warned about in this process.  A
#: serve loop constructs one ``ParallelPBSM`` per query; re-warning the
#: same message on every request is noise, so each fires exactly once.
_WARNED_CLAMPS: Set[str] = set()


def _warn_once(message: str) -> None:
    """Emit a ``RuntimeWarning`` exactly once per process."""
    if message in _WARNED_CLAMPS:
        return
    _WARNED_CLAMPS.add(message)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def reset_clamp_warnings() -> None:
    """Forget previously-warned messages (tests asserting on the warning)."""
    _WARNED_CLAMPS.clear()


def _task_stripe(task: Tuple) -> Optional[Tuple[int, int]]:
    """The ``(part, n_parts)`` stripe slice of a task, if it is split."""
    if isinstance(task[1], int):  # shm form
        return (task[5], task[6]) if len(task) > 5 else None
    return (task[3], task[4]) if len(task) > 3 else None


def _run_join_task(
    internal_name: str, grid: TileGrid, task: JoinTask, dedup: str = "rpm"
) -> TaskOutcome:
    """Execute one partition-pair join with online ownership by its pid.

    ``dedup`` selects the ownership scheme: ``"rpm"`` (reference-point
    test) or ``"twolayer"`` (corner-class avoidance).  A stripe-split
    task runs only its stripe part of the scan (the numpy sweep path);
    scalar internals cannot slice, so for them the whole join belongs to
    part 0 and every other part is empty — the merged result is
    identical either way.
    """
    pid, records_left, records_right = task[0], task[1], task[2]
    stripe = _task_stripe(task)
    part = stripe[0] if stripe is not None else 0
    started = time.perf_counter()
    counters = CpuCounters()
    if internal_name == "sweep_numpy":
        join_task = rpm_join_task if dedup == "rpm" else twolayer_join_task
        pairs, suppressed = join_task(
            records_left, records_right, grid, pid, counters, stripe_slice=stripe
        )
        wall = time.perf_counter() - started
        return pid, part, pairs, suppressed, counters.as_dict(), wall

    if stripe is not None and part != 0:
        wall = time.perf_counter() - started
        return pid, part, [], 0, counters.as_dict(), wall

    if dedup == "twolayer":
        pairs = twolayer_partition_join(
            records_left,
            records_right,
            grid,
            pid,
            internal_algorithm(internal_name),
            counters,
        )
        wall = time.perf_counter() - started
        return pid, part, pairs, 0, counters.as_dict(), wall

    pairs: List[Tuple[int, int]] = []
    suppressed = 0
    refpoint_tests = 0
    partition_of_point = grid.partition_of_point

    def emit(r: Tuple, s: Tuple) -> None:
        nonlocal suppressed, refpoint_tests
        refpoint_tests += 1
        rx = r[1]
        sx = s[1]
        ry = r[4]
        sy = s[4]
        x = rx if rx >= sx else sx
        y = ry if ry <= sy else sy
        if partition_of_point(x, y) == pid:
            pairs.append((r[0], s[0]))
        else:
            suppressed += 1

    internal_algorithm(internal_name)(records_left, records_right, emit, counters)
    counters.refpoint_tests += refpoint_tests
    wall = time.perf_counter() - started
    return pid, part, pairs, suppressed, counters.as_dict(), wall


# ----------------------------------------------------------------------
# the process-pool worker entry (spawned and persistent pools alike)
# ----------------------------------------------------------------------
#: ``(manifest, ((alias, real_prefix), ...), cache)`` — one store a chunk
#: attaches.  ``cache=True`` marks a long-lived (pinned) segment the
#: worker may keep attached across queries; ``cache=False`` marks the
#: per-query segment, closed again when the chunk ends.
StoreRef = Tuple[Manifest, Tuple[Tuple[str, str], ...], bool]

#: ``(internal_name, grid_spec, store_refs, dedup)`` — the per-query
#: configuration every chunk carries, so no pool needs an initializer.
PoolConfig = Tuple[str, Tuple, Tuple[StoreRef, ...], str]

#: Long-lived attachments by segment name (pinned dataset segments);
#: lives in the worker process for the lifetime of its pool.
_ATTACHED: Dict[str, SharedColumnarStore] = {}


def _attach_store(
    refs: Tuple[StoreRef, ...]
) -> Tuple[Any, List[SharedColumnarStore]]:
    """Assemble the chunk's store view from *refs*.

    Returns ``(store, ephemeral)`` where *ephemeral* are the attachments
    the caller must close when the chunk is done (per-query segments);
    cached attachments stay mapped for the next query over the same
    pinned dataset — that is the amortisation a persistent pool buys.
    """
    views: List[Any] = []
    ephemeral: List[SharedColumnarStore] = []
    for manifest, aliases, cache in refs:
        name = manifest[0]
        if cache:
            attached = _ATTACHED.get(name)
            if attached is None:
                # Custody moves into the module-level cache: the segment
                # stays mapped for the pool's lifetime by design.
                attached = SharedColumnarStore.attach(manifest)  # repro-lint: disable=RPL004
                _ATTACHED[name] = attached
        else:
            # Custody moves into the returned `ephemeral` list; the
            # chunk runner closes every entry in its finally block.
            attached = SharedColumnarStore.attach(manifest)  # repro-lint: disable=RPL004
            ephemeral.append(attached)
        views.append(
            AliasedStore(attached, dict(aliases)) if aliases else attached
        )
    if len(views) == 1:
        return views[0], ephemeral
    return ChainedStore(views), ephemeral


def _run_pool_chunk(payload: bytes) -> bytes:
    """The one process-pool worker entry: run a chunk of CSR-slice tasks.

    The payload is the pickled ``(config, tasks)`` pair (see
    :data:`PoolConfig`).  The grid is rebuilt per chunk (cheap); the
    per-query segment is attached for the chunk only, pinned dataset
    segments stay attached across chunks and queries.  Each task's
    partition rows are gathered straight out of the mapped pages and run
    through the columnar kernel (or the scalar internal on a KPE round
    trip — same values either way); every task's ``(rid, sid)`` id
    buffers go into one fresh worker-created segment, and the reply is
    ``(worker_pid, chunk_wall, task_metas, result_manifest)``.  The
    worker measures its own chunk and task wall times, because the
    parent cannot observe time spent inside another process.  The parent
    pre-serialises the payload and post-deserialises the reply, so
    ``len()`` of both is an exact measurement of the bytes crossing the
    pool.
    """
    np = require_numpy()
    started = time.perf_counter()
    (internal_name, grid_spec, refs, dedup), tasks = pickle.loads(payload)
    grid = _grid_from_spec(grid_spec)
    metas = []
    out_arrays: Dict[str, object] = {}
    store, ephemeral = _attach_store(refs)
    try:
        for task in tasks:
            pid, l_lo, l_hi, r_lo, r_hi = task[:5]
            stripe = _task_stripe(task)
            part = stripe[0] if stripe is not None else 0
            task_started = time.perf_counter()
            counters = CpuCounters()
            a = store.gather("L", store["L.ids"][l_lo:l_hi])
            b = store.gather("R", store["R.ids"][r_lo:r_hi])
            if internal_name == "sweep_numpy":
                join_ids = rpm_join_ids if dedup == "rpm" else twolayer_join_ids
                rid, sid, suppressed = join_ids(
                    a, b, grid, pid, counters, stripe_slice=stripe
                )
                counter_dict = counters.as_dict()
            else:
                record_task: Tuple = (pid, a.to_kpes(), b.to_kpes())
                if stripe is not None:
                    record_task = record_task + stripe
                _, _, pairs, suppressed, counter_dict, _ = _run_join_task(
                    internal_name, grid, record_task, dedup
                )
                rid = np.fromiter(
                    (p[0] for p in pairs), dtype=np.int64, count=len(pairs)
                )
                sid = np.fromiter(
                    (p[1] for p in pairs), dtype=np.int64, count=len(pairs)
                )
            out_arrays[f"{pid}.{part}.rid"] = rid
            out_arrays[f"{pid}.{part}.sid"] = sid
            task_wall = time.perf_counter() - task_started
            metas.append((pid, part, suppressed, counter_dict, task_wall))
    finally:
        for attached in ephemeral:
            attached.close()
    wall = time.perf_counter() - started
    # Untracked on purpose: the parent unlinks after decoding — or, if
    # another chunk fails, while abandoning the fan-out (a worker
    # crashing between here and there leaks the segment — see docs).  If
    # the reply cannot even be serialised, unlink now: the parent will
    # never see the manifest, so nobody else can clean the segment up.
    results = SharedColumnarStore.create(out_arrays, track=False)
    try:
        blob = pickle.dumps(
            (os.getpid(), wall, metas, results.manifest),
            pickle.HIGHEST_PROTOCOL,
        )
    except BaseException:
        results.unlink()
        raise
    finally:
        results.close()
    return blob


def _decode_chunk(payload: bytes, blob: bytes) -> ChunkReport:
    """Parent side of one chunk: decode its result segment, then unlink it."""
    worker_pid, chunk_wall, metas, manifest = pickle.loads(blob)
    results = SharedColumnarStore.attach(manifest)
    try:
        task_outcomes: List[TaskOutcome] = []
        for pid, part, suppressed, counter_dict, task_wall in metas:
            rid = results[f"{pid}.{part}.rid"].tolist()
            sid = results[f"{pid}.{part}.sid"].tolist()
            task_outcomes.append(
                (pid, part, list(zip(rid, sid)), suppressed, counter_dict, task_wall)
            )
    finally:
        results.close()
        results.unlink()
    return f"pid-{worker_pid}", chunk_wall, task_outcomes, len(payload) + len(blob)


def _discard_chunk(blob: bytes) -> None:
    """Unlink the result segment of a chunk whose fan-out was abandoned."""
    results = SharedColumnarStore.attach(pickle.loads(blob)[3])
    try:
        results.close()
    finally:
        results.unlink()


def _task_size(task: Tuple) -> int:
    """Joined record count of a task, in either task representation.

    A stripe-split part is charged its share of the full task: the
    stripes divide the scan, so ``size / n_parts`` is the scheduling
    estimate (the stripe plan itself decides the exact distribution).
    """
    if isinstance(task[1], int):
        size = (task[2] - task[1]) + (task[4] - task[3])
    else:
        size = len(task[1]) + len(task[2])
    stripe = _task_stripe(task)
    if stripe is not None:
        size = max(1, size // stripe[1])
    return size


def _task_key(task: Tuple) -> Tuple[int, int]:
    """Deterministic ``(pid, part)`` identity of a task."""
    stripe = _task_stripe(task)
    return task[0], (stripe[0] if stripe is not None else 0)


def _split_tasks(tasks: List, workers: int) -> List:
    """Stripe-split oversized tasks so no single task dominates.

    A task whose joined size exceeds ``STRIPE_SPLIT_FACTOR`` times the
    mean (and the absolute floor) is replaced by ``n_parts`` stripe-part
    tasks carrying the same data plus ``(part, n_parts)``.  Each part
    recomputes the identical stripe plan and runs only its stripe range,
    so concatenating the parts in order reproduces the unsplit output
    bit for bit.
    """
    if not tasks:
        return tasks
    sizes = [_task_size(t) for t in tasks]
    mean = sum(sizes) / len(sizes)
    threshold = max(STRIPE_SPLIT_FACTOR * mean, float(STRIPE_SPLIT_MIN_RECORDS))
    out: List = []
    for task, size in zip(tasks, sizes):
        if size <= threshold:
            out.append(task)
            continue
        denom = max(mean, float(STRIPE_SPLIT_MIN_RECORDS))
        n_parts = min(
            STRIPE_SPLIT_MAX_PARTS,
            max(2, workers, int(-(-size // denom))),
        )
        for part in range(n_parts):
            out.append(task + (part, n_parts))
    return out


def _chunk_tasks(tasks: List, n_chunks: int) -> List[List]:
    """Pack tasks into *n_chunks* LPT-balanced chunks (by joined size)."""
    sized = sorted(
        tasks, key=lambda t: (-_task_size(t),) + _task_key(t)
    )
    chunks: List[List] = [[] for _ in range(n_chunks)]
    loads = [0] * n_chunks
    for task in sized:
        idx = min(range(n_chunks), key=loads.__getitem__)
        chunks[idx].append(task)
        loads[idx] += _task_size(task)
    return [chunk for chunk in chunks if chunk]


def _steal_units(tasks: List, workers: int) -> List[List]:
    """Largest-first dispatch units for the work-stealing scheduler.

    Big tasks travel solo so the queue can hand them out one at a time;
    small tasks are packed together until they reach the target unit
    size, so dispatch overhead stays bounded.  Units come back sorted
    largest-first — the dispatch order of the shared queue.
    """
    sized = sorted(tasks, key=lambda t: (-_task_size(t),) + _task_key(t))
    total = sum(_task_size(t) for t in tasks)
    target = max(1, total // max(1, workers * CHUNKS_PER_WORKER))
    units: List[List] = []
    current: List = []
    current_size = 0
    for task in sized:
        size = _task_size(task)
        if size >= target:
            units.append([task])
            continue
        current.append(task)
        current_size += size
        if current_size >= target:
            units.append(current)
            current = []
            current_size = 0
    if current:
        units.append(current)
    return units


def _unit_sizes(units: List[List]) -> List[float]:
    return [float(sum(_task_size(t) for t in unit)) for unit in units]


class ParallelPBSM:
    """PBSM with the join phase spread over *workers* workers.

    ``executor="simulated"`` runs sequentially and *models* the parallel
    runtime; ``executor="process"`` actually fans the join tasks out over
    a process pool through shared memory and ``executor="thread"`` over
    a thread pool (numpy releases the GIL inside the vectorized kernel,
    so threads scale on the ``sweep_numpy`` path with zero spawn or
    pickling cost).  All executors produce identical result pairs in
    identical order, and all report the same simulated costs — the real
    executors additionally deliver wall-clock speedup on multicore
    hardware.

    ``scheduler`` selects the task-dispatch policy (``"stealing"``
    default, ``"static"`` for the classic up-front LPT chunking) and
    gates stripe splitting of oversized tasks — see the module
    docstring.  ``dedup`` selects the online ownership scheme —
    ``"rpm"`` (per-pair reference-point test) or ``"twolayer"``
    (corner-class avoidance with zero per-pair work); the offline
    ``"sort"`` mode is rejected because it would serialise the join
    behind a global sorting phase.  Out-of-range worker counts are
    clamped with a :class:`RuntimeWarning` (once per process per
    distinct clamp) instead of raising or silently oversubscribing the
    machine.
    """

    def __init__(
        self,
        memory_bytes: int,
        workers: int = 4,
        *,
        internal: str = "sweep_trie",
        executor: str = "simulated",
        scheduler: str = "stealing",
        dedup: str = "rpm",
        t_factor: float = 1.2,
        tiles_per_partition: int = 4,
        cost_model: Optional[CostModel] = None,
        tracer: Optional[Any] = None,
        pool: Optional[Any] = None,
        pinned: Optional[Tuple[Manifest, Manifest]] = None,
    ) -> None:
        if memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if dedup not in PARALLEL_DEDUP_MODES:
            raise ValueError(
                f"ParallelPBSM dedup must be one of {PARALLEL_DEDUP_MODES}, "
                f"got {dedup!r}: offline sort-based removal would serialise "
                "the join behind a global sorting phase (use the sequential "
                "PBSM driver for dedup='sort')"
            )
        if scheduler not in SCHEDULERS:
            raise ValueError(
                f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}"
            )
        if workers < 1:
            _warn_once(f"workers={workers} is below 1; clamped to 1")
            workers = 1
        if executor in ("process", "thread"):
            cap = _worker_cap()
            if workers > cap:
                _warn_once(
                    f"workers={workers} exceeds the usable CPU count ({cap}); "
                    f"clamped to {cap} (set {MAX_WORKERS_ENV} to allow "
                    "oversubscription)"
                )
                workers = cap
        self.memory_bytes = memory_bytes
        self.workers = workers
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.internal_name = internal
        self.internal = internal_algorithm(internal)
        self.executor = executor
        self.scheduler = scheduler
        self.dedup = dedup
        self.t_factor = t_factor
        self.tiles_per_partition = tiles_per_partition
        self.cost_model = cost_model or CostModel()
        #: An externally-owned (persistent) process pool.  When set, the
        #: fan-out submits its chunks to it instead of spawning a pool
        #: per run — the ``repro serve`` path, where the pool outlives
        #: every query.  The caller owns its lifecycle.
        self.pool = pool
        #: Manifests of pinned left/right dataset segments (columns under
        #: the neutral ``D.*`` prefix).  The per-query segment then
        #: carries only the CSR id arrays — the relation columns are
        #: never re-shipped.
        self.pinned = pinned

    def run(self, left: Sequence[Tuple], right: Sequence[Tuple]) -> JoinResult:
        # The process fan-out needs a real pool (workers > 1) and the
        # shared-memory transport (numpy plus platform shared memory);
        # without the transport the tasks run in-process, byte-identical.
        process_pool = self.executor == "process" and self.workers > 1
        use_shm = process_pool and shm_enabled()
        if process_pool and not use_shm:
            _warn_once(
                "executor='process' needs numpy and POSIX shared memory "
                "(and REPRO_DISABLE_SHM unset); the join tasks run in-process"
            )
        # RPM stays untagged (the historical spelling); avoidance is
        # surfaced so reports and traces show which scheme owned pairs.
        dedup_tag = "" if self.dedup == "rpm" else ",2L"
        stats = JoinStats(
            algorithm=(
                f"ParallelPBSM({self.internal_name}{dedup_tag},"
                f"W={self.workers})"
            ),
            backend=(
                active_backend() if self.internal_name == "sweep_numpy" else ""
            ),
            executor=self.executor,
            shared_memory=use_shm,
            n_left=len(left),
            n_right=len(right),
            n_workers=self.workers,
            scheduler=self.scheduler,
        )
        pairs: List[Tuple[int, int]] = []
        if not left or not right:
            return JoinResult(pairs=pairs, stats=stats)
        cost = self.cost_model
        kpe_bytes = cost.kpe_bytes
        space = Space.of(left, right)
        n_partitions = estimate_partitions(
            len(left), len(right), kpe_bytes, self.memory_bytes, self.t_factor
        )
        # At least one task per worker, or parallelism is wasted.
        n_partitions = max(n_partitions, self.workers)
        grid = TileGrid.for_partitions(
            space, n_partitions, self.tiles_per_partition
        )
        stats.n_partitions = n_partitions

        tracer = self.tracer
        with tracer.span(
            "parallel_pbsm",
            kind=KIND_RUN,
            internal=self.internal_name,
            dedup=self.dedup,
            executor=self.executor,
            scheduler=self.scheduler,
            workers=self.workers,
            shared_memory=use_shm,
            backend=stats.backend or None,
        ):
            # --- sequential partitioning phase -----------------------------
            emit = "ids" if use_shm else "records"
            disk = SimulatedDisk(cost)
            part_cpu = CpuCounters()
            with tracer.span(PHASE_PARTITION, cpu=part_cpu, disk=disk) as sp:
                with disk.phase(PHASE_PARTITION):
                    left_files, n_left_written = partition_relation(
                        left, grid, disk, kpe_bytes, part_cpu, "R", emit=emit
                    )
                    right_files, n_right_written = partition_relation(
                        right, grid, disk, kpe_bytes, part_cpu, "S", emit=emit
                    )
                stats.records_partitioned = n_left_written + n_right_written
                stats.replicas_created = (
                    stats.records_partitioned - len(left) - len(right)
                )
                partition_seconds = cost.io_seconds(
                    disk.total_units()
                ) + cost.cpu_seconds(part_cpu)
            stats.wall_seconds_by_phase[PHASE_PARTITION] = sp.wall_seconds

            with tracer.span(PHASE_JOIN) as sp:
                # --- materialise the join tasks (reads are charged) --------
                # Record tasks carry the records themselves; shm tasks
                # carry CSR slices into the concatenated id arrays.  The
                # files hold the same counts either way, so the charged
                # reads are identical.
                tasks: List = []
                ids_left: List[int] = []
                ids_right: List[int] = []
                task_io_units: Dict[int, float] = {}
                for pid in range(n_partitions):
                    file_left = left_files[pid]
                    file_right = right_files[pid]
                    if not file_left.n_records or not file_right.n_records:
                        continue
                    pair_bytes = file_left.n_bytes + file_right.n_bytes
                    if pair_bytes > self.memory_bytes:
                        stats.memory_overruns += 1
                    if pair_bytes > stats.peak_memory_bytes:
                        stats.peak_memory_bytes = pair_bytes
                    task_disk = SimulatedDisk(cost)
                    # Rebind so the join-phase reads are charged to this
                    # task (they used to land on the partition disk's
                    # default phase, zeroing every task's I/O share).
                    file_left.disk = task_disk
                    file_right.disk = task_disk
                    with task_disk.phase(PHASE_JOIN):
                        records_left = file_left.read_all()
                        records_right = file_right.read_all()
                    if use_shm:
                        l_lo = len(ids_left)
                        ids_left.extend(records_left)
                        r_lo = len(ids_right)
                        ids_right.extend(records_right)
                        tasks.append(
                            (pid, l_lo, len(ids_left), r_lo, len(ids_right))
                        )
                    else:
                        tasks.append((pid, records_left, records_right))
                    task_io_units[pid] = task_disk.total_units()

                # --- stripe-split oversized tasks --------------------------
                # Only the stealing scheduler splits (static stays the
                # unchanged baseline), and only the vectorized sweep can
                # execute a stripe range.  Splitting never changes the
                # output: parts merge back in (pid, part) order.
                if (
                    self.scheduler == "stealing"
                    and self.workers > 1
                    and self.internal_name == "sweep_numpy"
                    and numpy_enabled()
                ):
                    tasks = _split_tasks(tasks, self.workers)

                # --- execute the tasks -------------------------------------
                # Besides the outcomes, each executor fills in the fan-out
                # timing fields of *stats* (``join_makespan_seconds`` is
                # the elapsed time observed here, in the parent).
                if not tasks:
                    outcomes: List[TaskOutcome] = []
                elif use_shm:
                    outcomes = self._execute_shm(
                        tasks, grid, stats, left, right, ids_left, ids_right
                    )
                elif self.executor == "thread" and self.workers > 1:
                    outcomes = self._execute_thread(tasks, grid, stats)
                else:
                    outcomes = self._execute_inline(tasks, grid, stats)
                stats.join_busy_seconds = sum(outcome[5] for outcome in outcomes)

                # --- deterministic merge in (pid, part) order --------------
                task_costs: List[float] = []
                join_cpu_total = CpuCounters()
                join_units_total = 0.0
                suppressed_total = 0
                parts_per_pid: Dict[int, int] = {}
                for outcome in outcomes:
                    parts_per_pid[outcome[0]] = parts_per_pid.get(outcome[0], 0) + 1
                for pid, part, task_pairs, suppressed, counter_dict, _wall in (
                    sorted(outcomes, key=lambda o: (o[0], o[1]))
                ):
                    pairs.extend(task_pairs)
                    suppressed_total += suppressed
                    task_cpu = CpuCounters(**counter_dict)
                    # A split task's I/O (the partition files are read
                    # once, in the parent, before the fan-out) is
                    # amortised evenly across the parts it feeds.
                    units = task_io_units[pid] / parts_per_pid[pid]
                    task_costs.append(
                        cost.io_seconds(units) + cost.cpu_seconds(task_cpu)
                    )
                    join_cpu_total.add(task_cpu)
                    join_units_total += units
                stats.duplicates_suppressed = suppressed_total
                sp.add_counters(join_cpu_total.as_dict())
                sp.add_counters({"io_units": join_units_total})
                if stats.ipc_bytes_shipped or stats.ipc_seconds:
                    sp.add_counters(
                        {
                            "bytes_shipped": stats.ipc_bytes_shipped,
                            "ipc_seconds": stats.ipc_seconds,
                        }
                    )
            stats.wall_seconds_by_phase[PHASE_JOIN] = sp.wall_seconds

            # --- LPT scheduling onto W workers --------------------------
            makespan, _loads = lpt_schedule(task_costs, self.workers)
            stats.n_results = len(pairs)
            stats.io_units_by_phase = {
                PHASE_PARTITION: disk.total_units(),
                PHASE_JOIN: join_units_total,
            }
            stats.cpu_by_phase = {
                PHASE_PARTITION: part_cpu.as_dict(),
                PHASE_JOIN: join_cpu_total.as_dict(),
            }
            # The *parallel* simulated runtime:
            stats.sim_io_seconds = cost.io_seconds(disk.total_units())
            stats.sim_cpu_seconds = makespan  # join tasks dominated by makespan
            stats.sim_seconds_by_phase = {
                PHASE_PARTITION: partition_seconds,
                PHASE_JOIN: makespan,
            }
        return JoinResult(pairs=pairs, stats=stats)

    # ------------------------------------------------------------------
    # task execution
    # ------------------------------------------------------------------
    def _execute_inline(
        self, tasks: List[JoinTask], grid: TileGrid, stats: JoinStats
    ) -> List[TaskOutcome]:
        """Run every task in this process; no pool is spawned.

        Simulated mode, ``workers=1`` and the process executor without
        shared memory take this path.
        """
        tracer = self.tracer
        started = time.perf_counter()
        outcomes = []
        for task in tasks:
            outcome = _run_join_task(self.internal_name, grid, task, self.dedup)
            outcomes.append(outcome)
            if tracer.recording:
                tracer.add_span(
                    "task",
                    outcome[5],
                    kind=KIND_TASK,
                    counters=outcome[4],
                    pid=outcome[0],
                    part=outcome[1],
                )
        stats.join_makespan_seconds = time.perf_counter() - started
        return outcomes

    def _drain(
        self,
        pool: Any,
        run_fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        discard: Optional[Callable[[Any], None]] = None,
    ) -> List[Any]:
        """Run *payloads* on *pool*, honouring the configured scheduler.

        ``static`` submits every pre-packed chunk up front.
        ``stealing`` keeps the (largest-first) payload queue in the
        parent and submits the head to whichever worker slot frees up
        first — completion-driven dispatch, the executor-level
        realisation of idle workers stealing the next-largest task.
        Results come back indexed by payload order either way.

        If any unit raises, the queue is cancelled, every unit already
        running is still collected, each result obtained so far goes to
        *discard* (a finished process chunk owns a result segment only
        the parent can unlink), and the original error is re-raised.
        """
        from concurrent.futures import FIRST_COMPLETED, wait

        window = self.workers if self.scheduler == "stealing" else len(payloads)
        results: List[Any] = [None] * len(payloads)
        pending: Dict[Any, int] = {}
        next_idx = 0
        try:
            while pending or next_idx < len(payloads):
                while next_idx < len(payloads) and len(pending) < window:
                    pending[pool.submit(run_fn, payloads[next_idx])] = next_idx
                    next_idx += 1
                done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
                for future in done:
                    # result() raises before the del: a failed unit stays
                    # pending, so the cleanup below skips it.
                    results[pending[future]] = future.result()
                    del pending[future]
        except BaseException:
            for future in pending:
                future.cancel()
            wait(set(pending))
            if discard is not None:
                leftovers = [r for r in results if r is not None] + [
                    future.result()
                    for future in pending
                    if not future.cancelled() and future.exception() is None
                ]
                for result in leftovers:
                    discard(result)
            raise
        return results

    def _units(self, tasks: List) -> List[List]:
        """Dispatch units for one fan-out, per the configured scheduler."""
        if self.scheduler == "stealing":
            return _steal_units(tasks, self.workers)
        n_chunks = min(len(tasks), self.workers * CHUNKS_PER_WORKER)
        return _chunk_tasks(tasks, n_chunks)

    def _fan_out(
        self,
        pool_cm: Any,
        run_fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        units: List[List],
        stats: JoinStats,
        report: Callable[[Any, Any], ChunkReport],
        discard: Optional[Callable[[Any], None]] = None,
    ) -> Tuple[List[TaskOutcome], float]:
        """Drain one fan-out and book it: the thread and process paths.

        ``pool_cm`` is a context manager yielding the pool — a fresh
        executor, shut down on exit, or ``nullcontext`` around an
        externally owned one; the makespan covers its whole lifetime.
        ``report(payload, result)`` turns one unit's raw result into a
        :data:`ChunkReport`.  Fills ``join_makespan_seconds``,
        ``ipc_bytes_shipped``, ``tasks_stolen`` and the per-worker
        reports and spans; returns the task outcomes and the seconds
        ``report`` took (parent-side decoding, for the process path).
        """
        started = time.perf_counter()
        with pool_cm as pool:
            results = self._drain(pool, run_fn, payloads, discard)
        stats.join_makespan_seconds = time.perf_counter() - started

        decode_started = time.perf_counter()
        chunk_reports = [
            report(payload, result) for payload, result in zip(payloads, results)
        ]
        decode_seconds = time.perf_counter() - decode_started
        stats.ipc_bytes_shipped = sum(rep[3] for rep in chunk_reports)
        if self.scheduler == "stealing":
            stats.tasks_stolen = count_steals(
                _unit_sizes(units), [rep[0] for rep in chunk_reports], self.workers
            )
        self._emit_pool_spans(stats, chunk_reports)
        outcomes = [outcome for rep in chunk_reports for outcome in rep[2]]
        return outcomes, decode_seconds

    def _emit_pool_spans(
        self,
        stats: JoinStats,
        chunk_reports: List[ChunkReport],
    ) -> None:
        """Worker/task spans and per-worker busy totals for one fan-out.

        ``chunk_reports`` rows are ``(worker_label, chunk_wall,
        task_outcomes, chunk_bytes)``; ``chunk_bytes`` (payload out plus
        result blob in) lands on the worker span as a ``bytes_shipped``
        counter, so traces attribute the IPC volume next to the time.
        Also derives ``scheduler_idle_seconds`` — the worker-seconds the
        fan-out paid for but did not fill (``makespan x W - busy``).
        """
        tracer = self.tracer
        busy_by_worker: Dict[str, float] = {}
        for chunk_idx, (label, chunk_wall, task_outcomes, chunk_bytes) in (
            enumerate(chunk_reports)
        ):
            busy_by_worker[label] = busy_by_worker.get(label, 0.0) + chunk_wall
            if tracer.recording:
                worker_span = tracer.add_span(
                    "worker",
                    chunk_wall,
                    kind=KIND_WORKER,
                    worker=label,
                    chunk=chunk_idx,
                    tasks=len(task_outcomes),
                    counters={"bytes_shipped": chunk_bytes},
                )
                for pid, part, _pairs, _suppressed, counter_dict, task_wall in (
                    task_outcomes
                ):
                    tracer.add_span(
                        "task",
                        task_wall,
                        kind=KIND_TASK,
                        parent_id=worker_span.span_id,
                        counters=counter_dict,
                        pid=pid,
                        part=part,
                        worker=label,
                    )
        stats.worker_busy_seconds = busy_by_worker
        stats.scheduler_idle_seconds = max(
            0.0,
            stats.join_makespan_seconds * self.workers
            - sum(busy_by_worker.values()),
        )

    def _execute_thread(
        self, tasks: List[JoinTask], grid: TileGrid, stats: JoinStats
    ) -> List[TaskOutcome]:
        """Fan the tasks out over a thread pool — no spawn, no pickling.

        The vectorized kernel releases the GIL inside numpy, so the scan
        work genuinely overlaps; everything stays in one address space,
        so ``ipc_bytes_shipped`` is rightfully zero and pinned segments
        (or any caller-held arrays) are shared for free.  Worker labels
        are thread names normalised to ``thread-N`` in first-appearance
        order.
        """
        from concurrent.futures import ThreadPoolExecutor

        units = self._units(tasks)
        internal_name = self.internal_name
        dedup = self.dedup

        def run_unit(unit: List[JoinTask]) -> Tuple[str, float, List[TaskOutcome]]:
            unit_started = time.perf_counter()
            unit_outcomes = [
                _run_join_task(internal_name, grid, task, dedup) for task in unit
            ]
            wall = time.perf_counter() - unit_started
            return threading.current_thread().name, wall, unit_outcomes

        labels: Dict[str, str] = {}

        def report(
            _unit: Any, result: Tuple[str, float, List[TaskOutcome]]
        ) -> ChunkReport:
            thread_name, unit_wall, unit_outcomes = result
            label = labels.setdefault(thread_name, f"thread-{len(labels)}")
            return label, unit_wall, unit_outcomes, 0

        pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-join"
        )
        outcomes, _ = self._fan_out(pool, run_unit, units, units, stats, report)
        return outcomes

    def _execute_shm(
        self,
        tasks: List[ShmJoinTask],
        grid: TileGrid,
        stats: JoinStats,
        left: Sequence[Tuple],
        right: Sequence[Tuple],
        ids_left: List[int],
        ids_right: List[int],
    ) -> List[TaskOutcome]:
        """Fan the tasks out over a process pool via shared memory.

        Loads both inputs once into a columnar segment (plus the CSR id
        arrays the partitioner emitted), ships five-integer tasks (seven
        with a stripe part) with the per-query config, and decodes
        worker-returned ``(rid, sid)`` id buffers in ``(pid, part)``
        order — so the merged output is byte-identical to sequential
        execution.  Segment build, payload encode and result decode all
        count into ``stats.ipc_seconds``; only the pipe traffic counts
        into ``stats.ipc_bytes_shipped``.
        """
        from concurrent.futures import ProcessPoolExecutor

        np = require_numpy()
        encode_started = time.perf_counter()
        from repro.kernels.columnar import ColumnarRelation

        refs: Tuple[StoreRef, ...] = ()
        arrays: Dict[str, object] = {}
        if self.pinned is not None:
            # The relation columns already live in pinned registry
            # segments; the per-query segment carries only the CSR id
            # arrays, so a query's segment-build cost is O(partitioned
            # ids), not O(data).
            l_manifest, r_manifest = self.pinned
            refs = (
                (l_manifest, (("L", "D"),), True),
                (r_manifest, (("R", "D"),), True),
            )
        else:
            arrays = columnar_arrays("L", ColumnarRelation.from_kpes(left))
            arrays.update(
                columnar_arrays("R", ColumnarRelation.from_kpes(right))
            )
        arrays["L.ids"] = np.asarray(ids_left, dtype=np.int64)
        arrays["R.ids"] = np.asarray(ids_right, dtype=np.int64)
        units = self._units(tasks)

        with SharedColumnarStore.create(arrays) as store:
            config: PoolConfig = (
                self.internal_name,
                _grid_spec(grid),
                refs + ((store.manifest, (), False),),
                self.dedup,
            )
            payloads = [
                pickle.dumps((config, unit), pickle.HIGHEST_PROTOCOL)
                for unit in units
            ]
            encode_seconds = time.perf_counter() - encode_started
            pool_cm = (
                nullcontext(self.pool)
                if self.pool is not None
                else ProcessPoolExecutor(max_workers=self.workers)
            )
            outcomes, decode_seconds = self._fan_out(
                pool_cm,
                _run_pool_chunk,
                payloads,
                units,
                stats,
                _decode_chunk,
                _discard_chunk,
            )
        stats.ipc_seconds = encode_seconds + decode_seconds
        return outcomes


__all__ = [
    "CHUNKS_PER_WORKER",
    "EXECUTORS",
    "MAX_WORKERS_ENV",
    "PARALLEL_DEDUP_MODES",
    "ParallelPBSM",
    "SCHEDULERS",
    "STRIPE_SPLIT_FACTOR",
    "STRIPE_SPLIT_MAX_PARTS",
    "STRIPE_SPLIT_MIN_RECORDS",
    "lpt_schedule",
    "reset_clamp_warnings",
]
