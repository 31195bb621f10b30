"""Radial-table timing: ``special.sph_jn_table`` against one ``scipy.special.spherical_jn`` call.

The four tables are those a warm call takes:

* bank-narrow Psi and Xi: ``filters`` at 100-1600 Hz, nfft 4096 (128 bins,
  top order 18), over the distinct pair and target-mic distances of the
  64-mic composite array;
* bank-wide Xi: 100-12000 Hz, nfft 128 (32 bins, top order 35);
* head-track: one bin's ``build_xi`` table on a listener move, 64
  distances at 1600 Hz, l <= 19.

Kernel and scipy calls alternate; each time is the median of ``repeats``
runs. Prints one JSON line.

Usage: python scripts/radial_tables.py [repeats]
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
from scipy.special import spherical_jn

from binrender import arrays, metrics
from binrender.special import sph_jn_table
from binrender.wavefield import TranslationPlan

SOUND_SPEED = 346.2
SAMPLE_RATE = 48000.0
TARGET = np.array([0.03, -0.02, 0.01])


def bank_ks(band, nfft):
    freqs = np.arange(1, nfft // 2 + 1) * SAMPLE_RATE / nfft
    freqs = freqs[(freqs >= band[0]) & (freqs <= band[1])]
    return 2.0 * math.pi * freqs / SOUND_SPEED


def tables(geom):
    """name -> (lmax, z) of the four tables, over the distinct distances of
    the translation plans that ``GridEstimator`` builds."""
    out = {}
    c, p = geom.directivities
    pos = geom.positions()
    iu, ju = np.triu_indices(geom.n_mics)
    pairs = TranslationPlan.build(pos[iu] - pos[ju], p, c[ju])
    for name, band, nfft in (("bank-narrow", (100.0, 1600.0), 4096),
                             ("bank-wide", (100.0, 12000.0), 128)):
        ks = bank_ks(band, nfft)
        top = max(metrics.truncation_order(k, 0.45, 35) for k in ks)
        if name == "bank-narrow":
            out["bank-narrow-psi"] = (2 * p, np.multiply.outer(ks, pairs.radii))
        xi_cols = TranslationPlan.build(TARGET - pos, top, c)
        out[f"{name}-xi"] = (top + p, np.multiply.outer(ks, xi_cols.radii))
    k = 2.0 * math.pi * 1600.0 / SOUND_SPEED
    out["head-track-bin"] = (19, k * np.linalg.norm(TARGET - pos, axis=1))
    return out


def cpu_model():
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    return next((line.partition(":")[2].strip() for line in lines if line.startswith("model name")),
                platform.processor())


def main(argv):
    repeats = int(argv[0]) if argv else 21
    result = {"machine": {"python": platform.python_version(), "numpy": np.__version__,
                          "scipy": scipy.__version__, "cpu": cpu_model(), "nproc": os.cpu_count()},
              "repeats": repeats, "tables": {}}
    for name, (lmax, z) in tables(arrays.build_composite_array()).items():
        calls = {"kernel": lambda: sph_jn_table(lmax, z),
                 "scipy": lambda: spherical_jn(np.arange(lmax + 1).reshape((-1,) + (1,) * z.ndim), z)}
        times = {key: [] for key in calls}
        for _ in range(repeats):
            for key, call in calls.items():
                start = time.perf_counter()
                call()
                times[key].append(time.perf_counter() - start)
        kernel, reference = (float(np.median(times[key])) * 1e3 for key in ("kernel", "scipy"))
        result["tables"][name] = {"lmax": lmax, "z": z.size, "kernel_ms": round(kernel, 4),
                                  "scipy_ms": round(reference, 4),
                                  "ratio": round(kernel / reference, 3)}
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
