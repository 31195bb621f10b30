"""Head-tracking update timing: the per-bin ``render_full`` path in process.

On the 64-mic composite array and the head-tracking band (100-1600 Hz in
100 Hz steps: 16 bins, orders 2-18), one ``Estimator`` per bin serves a
seeded trajectory, as a head tracker drives the library:

* rotation: new Euler angles at the same position, so every bin reuses
  its last Xi(target);
* move: a new position (uniform in a 0.1 m ball) and new angles, so every
  bin takes a new Xi(target): the first bin's ``build_xi`` builds the
  target's translation plan, and the other bins reuse it with their own
  radial table.

An update is the 16 bins' ``render_full`` calls. Rotations and moves
alternate, and beside them the two per-update parts that do not depend on
the pose: the 16 ``render_weights`` calls and the 16 ``Estimator.solve``
calls. Each time is the median (and 90th percentile) of ``updates`` runs.
Prints one JSON line. Pin BLAS to one thread for numbers comparable with
the benchmark: ``OPENBLAS_NUM_THREADS=1 python scripts/track_update.py``.

Usage: python scripts/track_update.py [updates]
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

from binrender import arrays, estimation, hrtf, metrics, rendering, simulate
from binrender.special import EulerAngles

SOUND_SPEED = 346.2
SAMPLE_RATE = 48000.0
MEASURE_RADIUS = 1.5
HEAD_RADIUS = 0.0875
SOURCE = np.array([1.4, 0.6, 0.2])


def cpu_model():
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    return next((line.partition(":")[2].strip() for line in lines if line.startswith("model name")),
                platform.processor())


def pose(rng, position=None):
    """(position, angles): alpha +-90 degrees, beta and gamma +-20 degrees."""
    if position is None:
        v = rng.normal(size=3)
        position = v / np.linalg.norm(v) * 0.1 * rng.uniform() ** (1.0 / 3.0)
    angles = EulerAngles(*np.radians([rng.uniform(-90, 90), rng.uniform(-20, 20), rng.uniform(-20, 20)]))
    return position, angles


def main(argv):
    updates = int(argv[0]) if argv else 41
    rng = np.random.default_rng(1)
    geom = arrays.build_composite_array()
    freqs = simulate.band_freqs(100.0, 1600.0, 100.0)
    ks = 2.0 * math.pi * freqs / SOUND_SPEED
    orders = [metrics.truncation_order(k) for k in ks]
    scene = simulate.Scene(sources=(simulate.PointSource(SOURCE),), freqs=freqs, sound_speed=SOUND_SPEED)
    obs = simulate.simulate_observation(scene, geom)
    spectrum = hrtf.rigid_sphere_hrtf_spectrum(hrtf.SyntheticHead(radius=HEAD_RADIUS), freqs,
                                               MEASURE_RADIUS, max(orders), SAMPLE_RATE, SOUND_SPEED)
    h_pairs = [spectrum.at_index(b) for b in range(ks.size)]
    estimators = [estimation.Estimator(geom, k) for k in ks]
    start = pose(rng)
    # update i: a turn at the last position, then a move and turn
    rotations, moves = [], []
    for _ in range(updates):
        rotations.append(pose(rng, (moves[-1] if moves else start)[0]))
        moves.append(pose(rng))

    def render(position, angles):
        return [rendering.render_full(obs[b], est, position, angles, h_pairs[b], "sph",
                                      MEASURE_RADIUS, orders[b]) for b, est in enumerate(estimators)]

    render(*start)  # warm-up: every bin's Xi and weights at the start pose
    calls = {
        "rotate": lambda i: render(*rotations[i]),
        "move": lambda i: render(*moves[i]),
        "weights": lambda i: [rendering.render_weights("sph", n, k, MEASURE_RADIUS) for k, n in zip(ks, orders)],
        "solve": lambda i: [est.solve(s) for est, s in zip(estimators, obs)],
    }
    times = {key: [] for key in calls}
    for i in range(updates):
        for key, call in calls.items():
            t = time.perf_counter()
            call(i)
            times[key].append(time.perf_counter() - t)
    result = {"machine": {"python": platform.python_version(), "numpy": np.__version__,
                          "scipy": scipy.__version__, "cpu": cpu_model(), "nproc": os.cpu_count(),
                          "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
              "bins": ks.size, "orders": [min(orders), max(orders)], "updates": updates}
    for key, t in times.items():
        result[f"{key}_ms"] = round(float(np.median(t)) * 1e3, 3)
        result[f"{key}_p90_ms"] = round(float(np.percentile(t, 90)) * 1e3, 3)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
