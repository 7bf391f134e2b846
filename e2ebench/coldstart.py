"""Cold-start probe for ``par-shm-dense``: one fresh interpreter, one join.

Usage (with the program's ``src/`` on ``PYTHONPATH``)::

    python coldstart.py INPUTS.npy MEMORY_MB WORKERS

``INPUTS.npy`` holds a ``(2, n, 5)`` float64 array: the left and right
relations as ``(oid, xl, yl, xh, yh)`` rows.  Prints one JSON line with
``setup_s`` -- the seconds spent importing the program plus the first
``spatial_join`` call (inputs are converted outside the timed part) --
and the number of result pairs, which the caller checks.
"""

import json
import sys
import time


def main(argv: list) -> int:
    import numpy as np

    inputs, memory_mb, workers = argv[1], float(argv[2]), int(argv[3])
    arr = np.load(inputs)

    t0 = time.perf_counter()
    import repro
    from repro.core.rect import KPE

    imported = time.perf_counter() - t0

    left, right = (
        [KPE(int(row[0]), row[1], row[2], row[3], row[4]) for row in side.tolist()]
        for side in arr
    )
    t1 = time.perf_counter()
    result = repro.spatial_join(
        left, right, repro.mb(memory_mb), workers=workers, shared_memory=True
    )
    first_join = time.perf_counter() - t1
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # reap the tracker the shm transport started
    print(json.dumps({"setup_s": imported + first_join, "n_results": len(result.pairs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
