"""Steadiness check: one workload, N runs, each in a fresh process.

Usage, from the root of a checkout::

    python3 e2ebench/steady.py --workload serve-mixed --runs 10 --seed-base 100
    python3 e2ebench/steady.py --workload par-shm-dense --runs 5 --trace 1

Run *i* uses seed ``seed_base + i`` (``--fixed-seed``: always
``seed_base``, which leaves only the machine's own noise).  For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``), the
inter-quartile spread as a share of the median, and (max - min) / median.
When ``BENCHMARK.json`` sits at the root of the checkout, each
end-to-end spread is compared with its bound: ``ok`` below a third of the
bound, ``wide`` below the bound, ``OVER`` beyond it.  The summary is
also written to ``e2ebench/out/steady-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, ROOT  # noqa: E402


def _bounds() -> Dict[str, float]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: float(m["bound"]) for m in spec.get("end_to_end", [])}


def main(argv: object = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fixed-seed",
        action="store_true",
        help="use seed-base for every run (machine noise alone)",
    )
    args = parser.parse_args(argv)

    seconds = args.seconds
    if seconds is None:
        spec_path = ROOT / "BENCHMARK.json"
        seconds = (
            json.loads(spec_path.read_text())["run_seconds"]
            if spec_path.is_file()
            else 30.0
        )
    run_py = Path(__file__).resolve().parent / "run.py"
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    failures = 0
    for i in range(args.runs):
        seed = args.seed_base + (0 if args.fixed_seed else i)
        out = subprocess.run(
            [
                sys.executable,
                str(run_py),
                "--workload",
                args.workload,
                "--seed",
                str(seed),
                "--seconds",
                str(seconds),
                "--trace",
                str(args.trace),
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            failures += 1
            print(f"run {i} (seed {seed}) failed with code {out.returncode}")
            sys.stderr.write(out.stderr[-2000:])
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            failures += 1
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(float(entry["value"]))
            units[name] = entry["unit"]
        summary = "  ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        )
        print(f"run {i} seed {seed}: {summary}", flush=True)

    bounds = _bounds() if args.trace == 0 else {}
    rows = []
    print()
    print(
        f"{'metric':28s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
        f"{'iqr/med':>8s} {'rng/med':>8s}  bound"
    )
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(vals) - min(vals)) / med if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = f"{bound:.2f} " + (
                "ok" if iqr < bound / 3 else ("wide" if iqr <= bound else "OVER")
            )
        print(
            f"{name:28s} {units[name]:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
            f"{iqr:8.4f} {rng:8.4f}  {verdict}"
        )
        rows.append(
            {
                "metric": name,
                "unit": units[name],
                "values": vals,
                "median": med,
                "q1": q1,
                "q3": q3,
                "iqr_over_median": iqr,
                "range_over_median": rng,
                "bound": bound,
            }
        )
    OUT.mkdir(parents=True, exist_ok=True)
    summary_path = OUT / f"steady-{args.workload}-trace{args.trace}.json"
    summary_path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "runs": args.runs,
                "seed_base": args.seed_base,
                "seconds": seconds,
                "failures": failures,
                "metrics": rows,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"\nwrote {summary_path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
