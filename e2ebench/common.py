"""Shared plumbing of the end-to-end benchmark.

Everything here is benchmark-side: locating the program's sources,
generating inputs from a seed, ground-truth digests, latency summaries,
peak-memory readings and the run stamp.  Nothing in this module is timed
as part of a query.
"""

from __future__ import annotations

import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

#: Root of the checkout: the directory holding ``src/`` and ``e2ebench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where result files, traces and per-run scratch data go (git-ignored).
OUT = Path(__file__).resolve().parent / "out"

#: The OID offset of every right-hand relation, so pair ids never collide.
RIGHT_OID = 1_000_000

#: Minimum timed queries per run: the p90 then has >= 10 samples beyond it.
MIN_QUERIES = 100


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed set-up)."""


def import_program() -> Any:
    """Put the checkout's ``src/`` first on ``sys.path`` and import repro.

    Refuses to fall back to any other installed copy: the benchmark must
    measure the sources of the checkout it sits in.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


def program_env() -> Dict[str, str]:
    """Environment for child processes that run the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def tiger_pair(
    n: int, seed: int, *, clusters: int = 16, steps_per_line: int = 48
) -> Tuple[list, list]:
    """Two TIGER-like relations of *n* segment MBRs sharing one geography.

    One run of ``polyline_mbrs`` draws ``2n`` segments around the same
    city centres; whole polylines go alternately to the left and the
    right relation.  Like the paper's LA_RR x LA_ST the two inputs then
    cover the same places, so how much they overlap does not hinge on
    where one seed happened to drop the hot spots.
    """
    from repro.core.rect import KPE
    from repro.datasets import polyline_mbrs

    both = polyline_mbrs(
        2 * n, seed=seed, clusters=clusters, steps_per_line=steps_per_line
    )
    left: list = []
    right: list = []
    for i, rec in enumerate(both):
        if (i // steps_per_line) % 2 == 0:
            if len(left) < n:
                left.append(KPE(len(left), rec[1], rec[2], rec[3], rec[4]))
        elif len(right) < n:
            right.append(KPE(RIGHT_OID + len(right), rec[1], rec[2], rec[3], rec[4]))
    return left, right


def dense_pair(n: int, seed: int, mean_edge: float) -> Tuple[list, list]:
    """Uniform rectangles with large edges: results outnumber inputs."""
    from repro.datasets import uniform_rects

    return (
        uniform_rects(n, seed=2 * seed, mean_edge=mean_edge),
        uniform_rects(n, seed=2 * seed + 1, mean_edge=mean_edge, start_oid=RIGHT_OID),
    )


def zipf_pair(n: int, seed: int) -> Tuple[list, list]:
    """Zipf-skewed rectangles whose hot tiles coincide in both inputs."""
    from repro.datasets import zipf_rects

    return (
        zipf_rects(n, seed=2 * seed, tile_seed=seed),
        zipf_rects(n, seed=2 * seed + 1, tile_seed=seed, start_oid=RIGHT_OID),
    )


# ----------------------------------------------------------------------
# ground truth and result digests
# ----------------------------------------------------------------------
_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB


def pairs_array(pairs: Sequence[Tuple[int, int]]) -> Any:
    """Result pairs as an ``(n, 2)`` int64 array."""
    import numpy as np

    flat = np.fromiter(
        (oid for pair in pairs for oid in pair), dtype=np.int64, count=2 * len(pairs)
    )
    return flat.reshape(-1, 2)


def digest(arr: Any) -> Tuple[int, int]:
    """Order-insensitive digest of a pair array: (count, mixed 64-bit sum).

    Each pair is hashed with the splitmix64 finaliser and the hashes are
    summed modulo 2**64, so equal digests mean equal multisets of pairs
    with overwhelming probability, at O(n) cost and without a sort.
    """
    import numpy as np

    if len(arr) == 0:
        return (0, 0)
    with np.errstate(over="ignore"):
        x = arr[:, 0].astype(np.uint64) * np.uint64(_MIX_A)
        x ^= arr[:, 1].astype(np.uint64)
        x ^= x >> np.uint64(30)
        x *= np.uint64(_MIX_B)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_MIX_C)
        x ^= x >> np.uint64(31)
        total = int(x.sum(dtype=np.uint64))
    return (len(arr), total)


def sha256_of_pairs(arr: Any) -> str:
    """The service's checksum contract, computed independently.

    SHA-256 over the sorted pairs, each packed as two little-endian
    int64s (see the wire-protocol module of the program).
    """
    import hashlib

    import numpy as np

    order = np.lexsort((arr[:, 1], arr[:, 0]))
    data = np.ascontiguousarray(arr[order], dtype="<i8")
    return hashlib.sha256(data.tobytes()).hexdigest()


class Truth:
    """Ground truth of one input pair, computed once during set-up."""

    def __init__(self, name: str, left: list, right: list) -> None:
        import repro

        # The sequential in-memory engine on its pure-Python internal
        # join: independent of the columnar kernels every timed query
        # runs on, and with a budget that never overflows.
        result = repro.PBSM(repro.mb(256), internal="sweep_list").run(left, right)
        self.name = name
        self.pairs = result.pairs
        arr = pairs_array(result.pairs)
        self.digest = digest(arr)
        self.sha256 = sha256_of_pairs(arr)

    @property
    def count(self) -> int:
        return self.digest[0]

    def corrupt(self) -> None:
        """Make this truth deliberately wrong (smoke test of the gate)."""
        self.digest = (self.digest[0], self.digest[1] ^ 1)
        self.sha256 = "0" * 64


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of *values* (0 <= q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of the largest process in the tree, in MiB.

    ``RUSAGE_CHILDREN`` reports the largest descendant that has been
    waited for (pool workers, the server and its workers once reaped),
    ``RUSAGE_SELF`` this process, which hosts the in-process engines.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Clock:
    """Wall clock of a timed phase that can be paused for checks."""

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.paused = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started - self.paused

    def pause(self) -> "_Pause":
        return _Pause(self)


class _Pause:
    def __init__(self, clock: Clock) -> None:
        self.clock = clock

    def __enter__(self) -> None:
        self.t0 = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        self.clock.paused += time.perf_counter() - self.t0


def rng_for(seed: int, *salt: object) -> random.Random:
    return random.Random(f"{seed}:" + ":".join(str(s) for s in salt))


# ----------------------------------------------------------------------
# run stamp
# ----------------------------------------------------------------------
def git_sha() -> Optional[str]:
    """The checkout's commit, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def run_stamp(workload: str, seed: int, params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.kernels.backend import numpy_enabled
    from repro.kernels.shm import shm_enabled

    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numpy_backend": bool(numpy_enabled()),
        "posix_shm": bool(shm_enabled()),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "params": params,
    }


def layer_table(workload: str, layers: Dict[str, Dict[str, Any]]) -> str:
    """The per-layer metrics of one traced run as a markdown table."""
    lines = [
        f"### {workload}",
        "",
        "| metric | value | unit |",
        "|---|---:|---|",
    ]
    for name, entry in layers.items():
        lines.append(f"| `{name}` | {entry['value']:.6g} | {entry['unit']} |")
    return "\n".join(lines) + "\n"


__all__ = [
    "BenchError",
    "Clock",
    "MIN_QUERIES",
    "OUT",
    "RIGHT_OID",
    "ROOT",
    "SRC",
    "Truth",
    "dense_pair",
    "digest",
    "import_program",
    "layer_table",
    "median",
    "nproc",
    "pairs_array",
    "peak_rss_mb",
    "program_env",
    "quantile",
    "rng_for",
    "run_stamp",
    "sha256_of_pairs",
    "tiger_pair",
    "zipf_pair",
]
