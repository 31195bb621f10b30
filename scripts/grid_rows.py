"""Pre-solve rows timing: per-bin Xi products against ``GridEstimator.xi_rows``.

The two grids are those of the bench's ``filters`` workloads on the 64-mic
composite array:

* bank-narrow: 100-1600 Hz, nfft 4096 (128 bins, orders 1-18);
* bank-wide: 100-12000 Hz, nfft 128 (32 bins, top order 35).

Per bin, the reference takes ``hw_b @ grid.xi(b, N_b)`` (Xi formed by
``TranslationPlan.apply``); the blocked form takes the rows of every bin from
one product per degree. ``hw`` is a fixed random (B, 2, (top + 1)^2) array,
zero above each bin's order. The two calls alternate; each time is the median
of ``repeats`` runs. ``rel_diff`` is the largest difference relative to the
largest row entry. Prints one JSON line.

Usage: python scripts/grid_rows.py [repeats]
"""

import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from binrender import arrays, estimation, metrics

SOUND_SPEED = 346.2
SAMPLE_RATE = 48000.0
TARGET = np.array([0.03, -0.02, 0.01])
GRIDS = {"bank-narrow": ((100.0, 1600.0), 4096), "bank-wide": ((100.0, 12000.0), 128)}


def bank_ks(band, nfft):
    freqs = np.arange(1, nfft // 2 + 1) * SAMPLE_RATE / nfft
    freqs = freqs[(freqs >= band[0]) & (freqs <= band[1])]
    return 2.0 * math.pi * freqs / SOUND_SPEED


def cpu_model():
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    return next((line.partition(":")[2].strip() for line in lines if line.startswith("model name")),
                platform.processor())


def main(argv):
    repeats = int(argv[0]) if argv else 21
    result = {"machine": {"python": platform.python_version(), "numpy": np.__version__,
                          "scipy": scipy.__version__, "cpu": cpu_model(), "nproc": os.cpu_count()},
              "repeats": repeats, "grids": {}}
    geom = arrays.build_composite_array()
    rng = np.random.default_rng(1)
    for name, (band, nfft) in GRIDS.items():
        ks = bank_ks(band, nfft)
        orders = [metrics.truncation_order(k, 0.45, 35) for k in ks]
        top = max(orders)
        grid = estimation.GridEstimator(geom, ks, "auto", TARGET, top)
        hw = rng.standard_normal((ks.size, 2, (top + 1) ** 2, 2)) @ np.array([1.0, 1j])
        for b, order in enumerate(orders):
            hw[b, :, (order + 1) ** 2 :] = 0.0
        calls = {"per_bin": lambda: np.array([hw[b, :, : (n + 1) ** 2] @ grid.xi(b, n)
                                              for b, n in enumerate(orders)]),
                 "blocked": lambda: grid.xi_rows(hw, orders)}
        times = {key: [] for key in calls}
        rows = {}
        for _ in range(repeats):
            for key, call in calls.items():
                start = time.perf_counter()
                rows[key] = call()
                times[key].append(time.perf_counter() - start)
        per_bin, blocked = (float(np.median(times[key])) * 1e3 for key in ("per_bin", "blocked"))
        diff = np.max(np.abs(rows["blocked"] - rows["per_bin"])) / np.max(np.abs(rows["per_bin"]))
        result["grids"][name] = {"bins": ks.size, "top_order": top, "per_bin_ms": round(per_bin, 3),
                                 "blocked_ms": round(blocked, 3), "ratio": round(blocked / per_bin, 3),
                                 "rel_diff": float(f"{diff:.2e}")}
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
