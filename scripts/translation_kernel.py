"""Translation-kernel timing: the angular work of a head-tracking update.

Three groups, on the 64-mic composite array and the head-tracking band
(100-1600 Hz in 100 Hz steps: 16 bins, orders 2-18):

* SH tables: ``special.sh_table`` against ``scipy.special.sph_harm_y_all``
  at lmax 3, 19 and 36 on the 64 target-mic directions, and at lmax 2 on
  the 2080 mic-pair directions of Psi;
* a listener move: the 16 bins' ``build_xi`` calls at a new target (one
  shared translation plan, then one radial table and one contraction per
  bin) against the 16 bins' ``wavefield.translate_multi`` calls (a plan
  built per bin, so the whole kernel per bin), with their ratio;
* a head rotation: the 16 bins' ``rendering._rotate_hrtf`` calls at new
  angles, with the Wigner-D blocks shared across the bins (the cache) and
  rebuilt for every bin (cache cleared before each call).

Each repeat takes new angles and targets, so no call reuses the last
repeat's blocks. The calls of a group alternate; each time is the median
of ``repeats`` runs. Prints one JSON line.

Usage: python scripts/translation_kernel.py [repeats]
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
from scipy.special import sph_harm_y_all

from binrender import arrays, estimation, metrics, rendering, simulate, special, wavefield
from binrender.special import EulerAngles, num_coeffs, sh_table
from binrender.utils import cart2sph

SOUND_SPEED = 346.2
TARGET = np.array([0.03, -0.02, 0.01])


def cpu_model():
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    return next((line.partition(":")[2].strip() for line in lines if line.startswith("model name")),
                platform.processor())


def median_ms(calls, repeats):
    """name -> median ms of ``calls[name](i)`` over repeats i, the calls alternating."""
    times = {key: [] for key in calls}
    for i in range(repeats):
        for key, call in calls.items():
            start = time.perf_counter()
            call(i)
            times[key].append(time.perf_counter() - start)
    return {key: round(float(np.median(t)) * 1e3, 4) for key, t in times.items()}


def main(argv):
    repeats = int(argv[0]) if argv else 21
    rng = np.random.default_rng(1)
    geom = arrays.build_composite_array()
    pos = geom.positions()
    ks = 2.0 * math.pi * simulate.band_freqs(100.0, 1600.0, 100.0) / SOUND_SPEED
    orders = [metrics.truncation_order(k) for k in ks]
    result = {"machine": {"python": platform.python_version(), "numpy": np.__version__,
                          "scipy": scipy.__version__, "cpu": cpu_model(), "nproc": os.cpu_count()},
              "repeats": repeats, "sh_tables": {}}

    iu, ju = np.triu_indices(geom.n_mics)
    directions = {"target-mics": cart2sph(TARGET[None, :] - pos)[1:],
                  "mic-pairs": cart2sph(pos[iu] - pos[ju])[1:]}
    for lmax, name in ((3, "target-mics"), (19, "target-mics"), (36, "target-mics"), (2, "mic-pairs")):
        theta, phi = directions[name]
        times = median_ms({"sh_table": lambda i: sh_table(lmax, theta, phi),
                           "sph_harm_y_all": lambda i: sph_harm_y_all(lmax, lmax, theta, phi)}, repeats)
        result["sh_tables"][f"{name}-lmax{lmax}"] = {
            "lmax": lmax, "points": theta.size, "sh_table_ms": times["sh_table"],
            "sph_harm_y_all_ms": times["sph_harm_y_all"],
            "ratio": round(times["sh_table"] / times["sph_harm_y_all"], 3)}

    targets = rng.uniform(-0.1, 0.1, size=(repeats, 3))
    c, _ = geom.directivities
    for k, order in zip(ks, orders):  # warm-up: the plan slot sized by a whole move
        estimation.build_xi(geom, TARGET, k, order)
    move = median_ms({
        "build_xi": lambda i: [estimation.build_xi(geom, targets[i], k, order)
                               for k, order in zip(ks, orders)],
        "translate_multi": lambda i: [wavefield.translate_multi(targets[i] - pos, k, order, c)
                                      for k, order in zip(ks, orders)]}, repeats)
    result["move_16_build_xi_ms"] = move["build_xi"]
    result["move_16_translate_multi_ms"] = move["translate_multi"]
    result["move_ratio"] = round(move["build_xi"] / move["translate_multi"], 3)

    rows = [rng.normal(size=(2, num_coeffs(order))) + 1j * rng.normal(size=(2, num_coeffs(order)))
            for order in orders]
    angles = [EulerAngles(*rng.uniform(-1.5, 1.5, size=3)) for _ in range(2 * repeats)]

    def rotate(i, shared):
        for h in rows:
            if not shared:
                special.wigner_d_block.cache_clear()
            rendering._rotate_hrtf(h, angles[2 * i + shared])

    rotation = median_ms({"shared": lambda i: rotate(i, True),
                          "per_bin": lambda i: rotate(i, False)}, repeats)
    result["rotation_16_rotate_hrtf_ms"] = {"shared_blocks": rotation["shared"],
                                            "per_bin_blocks": rotation["per_bin"]}
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
