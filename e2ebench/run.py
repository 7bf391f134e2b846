"""End-to-end benchmark of the spatial-join system.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload seq-rcd-tiger --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Every timed query is checked against ground truth computed
during set-up; any mismatch makes the run fail (exit code 1).  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Result files (run stamp,
metrics, and for traced runs the spans as JSONL plus a per-layer table)
go to ``e2ebench/out/``.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    MIN_QUERIES,
    OUT,
    BenchError,
    Clock,
    import_program,
    layer_table,
    median,
    nproc,
    peak_rss_mb,
    quantile,
    run_stamp,
)

#: End-to-end metrics: (name, unit), measured with tracing off.
E2E: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("join_p50_ms", "ms"),
    ("join_p90_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("ok_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
]

#: Per-layer metrics of the traced run: (name, unit, aggregation over the
#: traced queries -- "median" or "mean" per query, "run" for run-level).
LAYERS: List[Tuple[str, str, str]] = [
    ("mmapstore.open_ms", "ms", "median"),
    ("pbsm.partition_ms", "ms", "median"),
    ("pbsm.join_ms", "ms", "median"),
    ("pbsm.repartitions", "count", "mean"),
    ("pbsm.records_per_input", "ratio", "median"),
    ("pbsm.useful_ratio", "ratio", "median"),
    ("kernels.intersection_tests", "count", "mean"),
    ("kernels.batch_ops", "count", "mean"),
    ("parallel.makespan_ms", "ms", "median"),
    ("parallel.busy_ms", "ms", "median"),
    ("parallel.utilization", "ratio", "median"),
    ("parallel.tasks_stolen", "count", "mean"),
    ("shm.ipc_ms", "ms", "median"),
    ("shm.bytes_shipped", "count", "mean"),
    ("planner.plan_ms", "ms", "median"),
    ("planner.cache_hit_rate", "ratio", "mean"),
    ("serve.server_ms", "ms", "median"),
    ("serve.execute_ms", "ms", "median"),
    ("serve.checksum_ms", "ms", "median"),
    ("serve.wire_ms", "ms", "median"),
    ("serve.rejects", "count", "run"),
    ("trace.coverage", "ratio", "run"),
    ("trace.overhead", "ratio", "run"),
]

#: Workload parameters at full size and at the smoke-test size.
PARAMS: Dict[str, Dict[str, Dict[str, Any]]] = {
    "seq-rcd-tiger": {
        "full": {"n": 12_000, "memory_mb": 0.09, "clusters": 64},
        "tiny": {"n": 1_500, "memory_mb": 0.02, "clusters": 16},
    },
    "par-shm-dense": {
        "full": {"n": 10_000, "mean_edge": 0.02, "memory_mb": 2.5},
        "tiny": {"n": 800, "mean_edge": 0.02, "memory_mb": 2.5},
    },
    "serve-mixed": {
        "full": {
            "n_tiger": 9_000,
            "n_zipf": 6_000,
            "n_dense": 6_000,
            "clusters": 64,
            "mean_edge": 0.02,
            "memory_mb": 2.5,
        },
        "tiny": {
            "n_tiger": 800,
            "n_zipf": 600,
            "n_dense": 500,
            "clusters": 16,
            "mean_edge": 0.02,
            "memory_mb": 2.5,
        },
    },
}
WORKLOADS = tuple(PARAMS)

#: Hard limit on one run; the watchdog tears the run down past it.
WATCHDOG_FLOOR_S = 175
#: prctl option that makes a process the reaper of its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36


def _workload(name: str, seed: int, params: Dict[str, Any], workdir: Path) -> Any:
    if name == "seq-rcd-tiger":
        from inproc import SeqRcdTiger

        return SeqRcdTiger(seed, params, workdir)
    if name == "par-shm-dense":
        from inproc import ParShmDense

        return ParShmDense(seed, params, workdir)
    from served import ServeMixed

    return ServeMixed(seed, params, workdir)


def _params(name: str, size: str) -> Dict[str, Any]:
    params = dict(PARAMS[name][size])
    # Load never exceeds the box: at most nproc workers and connections.
    width = max(1, min(2, nproc()))
    if name != "seq-rcd-tiger":
        params["workers"] = width
    if name == "serve-mixed":
        params["connections"] = width
    return params


def closed_loop(workload: Any, seconds: float, trace: bool) -> Tuple[List[dict], float]:
    """One caller, one query at a time, checks paused out of the clock."""
    clock = Clock()
    records: List[dict] = []
    while clock.elapsed() < seconds or len(records) < MIN_QUERIES:
        traced = trace and len(records) % 2 == 1
        records.append(workload.query(traced, clock))
    return records, clock.elapsed()


def end_to_end(
    records: List[dict], wall: float, setup: List[float], rss: float
) -> Dict[str, float]:
    latencies = [r["latency"] for r in records]
    ok = sum(1 for r in records if r["ok"])
    return {
        "setup_s": median(setup),
        "join_p50_ms": quantile(latencies, 0.50) * 1e3,
        "join_p90_ms": quantile(latencies, 0.90) * 1e3,
        "throughput_qps": len(records) / wall,
        "ok_rate": ok / len(records),
        "peak_rss_mb": rss,
    }


def per_layer(records: List[dict], extra: Dict[str, float]) -> Dict[str, float]:
    traced = [r for r in records if r.get("layers")]
    untraced = [r for r in records if not r["traced"]]
    if not traced or not untraced:
        raise BenchError("traced run needs both traced and untraced queries")
    out: Dict[str, float] = {}
    for name, _unit, agg in LAYERS:
        if name in extra:
            out[name] = float(extra[name])
        elif name == "trace.coverage":
            out[name] = sum(r["covered"] for r in traced) / sum(
                r["latency"] for r in traced
            )
        elif name == "trace.overhead":
            out[name] = (
                median(r["latency"] for r in traced)
                / median(r["latency"] for r in untraced)
                - 1.0
            )
        else:
            values = [
                r["layers"][name] for r in traced if r["layers"].get(name) is not None
            ]
            if not values:
                out[name] = 0.0
            elif agg == "mean":
                out[name] = sum(values) / len(values)
            else:
                out[name] = median(values)
    return out


def _child_pids() -> List[int]:
    """Live (and zombie) child processes of this process, from /proc."""
    pids: List[int] = []
    for path in Path(f"/proc/{os.getpid()}/task").glob("*/children"):
        try:
            pids += [int(p) for p in path.read_text().split()]
        except (OSError, ValueError):
            continue
    return sorted(set(pids))


def _become_subreaper() -> None:
    """Adopt orphaned descendants, so the run can wait for them too.

    A process the server starts (its pool workers, its resource tracker)
    that outlives the server is re-parented to this process instead of
    to init, and :func:`_reap_children` then waits for it.  Linux only;
    elsewhere the run waits for its direct children alone.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_children(grace: float = 5.0) -> None:
    """Stop and wait for every child (and adopted orphan) of this run.

    Runs on every way out of a run, last of all.  multiprocessing's
    resource tracker is started lazily by the first shared-memory call
    (the program's shm probe included) and otherwise outlives the run as
    an orphan; it is stopped through its own API first.  Children still
    there get *grace* seconds to end on their own (an orphaned tracker
    ends when it reads EOF), then SIGTERM, then SIGKILL, and each is
    waited for.
    """
    from multiprocessing import active_children, resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    active_children()
    pids = _child_pids()
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        for pid in pids if sig is not None else ():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    done, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid
                if done:
                    pids.remove(pid)
            time.sleep(0.05)
        if not pids:
            return


def _median_by_kind(records: List[dict]) -> Dict[str, float]:
    """Median latency per query kind (served: pair/mode), in ms."""
    groups: Dict[str, List[float]] = {}
    for r in records:
        key = f"{r['pair']}/{r['mode']}" if "pair" in r else "all"
        groups.setdefault(key, []).append(r["latency"] * 1e3)
    return {k: median(v) for k, v in sorted(groups.items())}


def run_one(args: argparse.Namespace) -> int:
    import_program()
    name, seed, trace = args.workload, args.seed, bool(args.trace)
    params = _params(name, args.size)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = _workload(name, seed, params, workdir)
    extra: Dict[str, float] = {}
    try:
        workload.prepare()
        if args.corrupt_truth:
            workload.corrupt_truth()
        setup = workload.setup_samples()
        if name == "serve-mixed":
            records, wall, extra = workload.run_phase(args.seconds, trace)
        else:
            workload.warmup()
            records, wall = closed_loop(workload, args.seconds, trace)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    rss = peak_rss_mb()

    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    units = {n: u for n, u in E2E}
    units.update({n: u for n, u, _ in LAYERS})
    if trace:
        values = per_layer(records, extra)
    else:
        values = end_to_end(records, wall, setup, rss)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    gaps = list(getattr(workload, "gaps", ()))

    stem = f"{name}-seed{seed}-trace{int(trace)}"
    latencies = [r["latency"] for r in records]
    report = {
        "stamp": run_stamp(name, seed, params),
        "seconds": args.seconds,
        "size": args.size,
        "trace": trace,
        "setup_samples_s": setup,
        "timed_wall_s": wall,
        "queries": attempted,
        "beyond_p90": sum(1 for x in latencies if x > quantile(latencies, 0.9)),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "gaps": gaps,
        "median_ms_by_kind": _median_by_kind(records),
        "rss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rss_children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if trace:
        with open(OUT / f"{stem}.spans.jsonl", "w") as handle:
            for index, record in enumerate(records):
                for span in record.get("spans", ()):
                    handle.write(
                        json.dumps({"workload": name, "query": index, **span}) + "\n"
                    )
        table = layer_table(name, metrics)
        if gaps:
            table += "\nNot exposed by this path (reported as 0): " + ", ".join(
                f"`{g}`" for g in gaps
            ) + "\n"
        (OUT / f"{stem}.layers.md").write_text(table)

    print(f"{name} seed={seed} queries={attempted} failed={failed} wall={wall:.2f}s")
    for key, entry in metrics.items():
        print(f"  {key:28s} {entry['value']:14.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process, then one combined line."""
    combined: Dict[str, Any] = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
            "--size",
            args.size,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(out.stdout.rsplit("\n", 2)[0] + "\n")
        lines = out.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.stderr.write(out.stderr)
            raise BenchError(f"{name}: no result (exit code {out.returncode})")
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for key, entry in result["metrics"].items():
            combined[f"{name}.{key}"] = entry
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}
        )
    )
    return 0 if correct else 1


def _watchdog(signum: int, frame: Any) -> None:
    raise BenchError("watchdog: run exceeded its time limit")


def _terminated(signum: int, frame: Any) -> None:
    raise BenchError(f"stopped by signal {signum}")


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny is the smoke-test size",
    )
    parser.add_argument(
        "--corrupt-truth",
        action="store_true",
        help="deliberately wrong ground truth (checks the correctness gate)",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        try:
            return run_all(args)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    _become_subreaper()
    signal.signal(signal.SIGALRM, _watchdog)
    # SIGTERM unwinds like an error, so the server and the scratch files
    # are still cleaned up.
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(int(max(WATCHDOG_FLOOR_S, 2 * args.seconds + 105)))
    started = time.perf_counter()
    try:
        return run_one(args)
    except (BenchError, ImportError) as exc:
        print(f"error after {time.perf_counter() - started:.1f}s: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        _reap_children()


if __name__ == "__main__":
    sys.exit(main())
