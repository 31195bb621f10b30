"""Layer timings in process, one group of layers per run; prints one JSON line.

All groups run on the 64-mic composite array. The bank grids are those of
the bench's ``filters`` workloads: bank-narrow (100-1600 Hz, nfft 4096: 128
bins, orders 1-18) and bank-wide (100-12000 Hz, nfft 128: 32 bins, top
order 35). The head-tracking band is 100-1600 Hz in 100 Hz steps (16 bins,
orders 2-18).

* ``radial``: ``special.sph_jn_table`` against one ``spherical_jn`` call on
  the tables a warm call takes: bank-narrow Psi and Xi, bank-wide Xi (over
  the distinct pair and target-mic distances) and the table of one
  head-track bin at 1600 Hz (64 distances, l <= 19), which ``build_xi``
  takes for a wavenumber its last target did not ask.
* ``rows``: each bank grid's pre-solve rows, per bin (``hw_b @ grid.xi(b,
  N_b)``) against ``GridEstimator.xi_rows``, for a fixed random ``hw`` zero
  above each bin's order; ``rel_diff`` is their largest difference relative
  to the largest row entry. Then the solves of ``GridEstimator.rows`` on
  those rows: a per-bin ``Estimator(geom, k, "auto", psi_upper[b]).solve``
  (Psi scattered, factored and dropped bin by bin) against the grid's
  chunked in-place solve pass; ``bitwise`` says whether they agree bit for bit.
* ``kernel``: ``special.sh_table`` against ``sph_harm_y_all`` (lmax 3, 19,
  36 on the 64 target-mic directions, 2 on the 2080 mic pairs); a move's 16
  ``build_xi`` calls (one shared plan and one radial table over the 16
  wavenumbers) against 16 ``translate_multi`` calls (a plan and a table per
  bin); a rotation's 16 ``_rotate_hrtf`` calls, Wigner-D blocks
  shared across bins against rebuilt per bin; new targets and angles per repeat.
* ``track``: one ``Estimator`` per head-track bin serves a seeded trajectory
  of 16-bin ``render_full`` updates: rotations (each bin reuses its Xi) and
  moves in a 0.1 m ball (the first bin builds the target's plan and one
  radial table over the 16 wavenumbers, the rest reuse both), beside an
  update's 16 ``render_weights`` and ``solve`` calls.
* ``convolve``: ``rendering.apply_filter_bank`` on seeded 64-channel float32
  noise of 1 s and 10 s at 48 kHz, through random banks of 128 and 4096
  taps: the median time, then the tracemalloc peak of one more call (its
  output included).

The calls of a group alternate; each time is the median (``track`` adds the
90th percentile) of ``repeats`` runs. Pin BLAS to one thread for numbers
comparable with the benchmark (``OPENBLAS_NUM_THREADS=1``); ``PYTHONPATH=src``
runs it from a source checkout, without installing the package.

Usage: OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/layer_timing.py {radial,rows,kernel,track,convolve} [repeats]
"""

import json
import math
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy
from scipy.special import sph_harm_y_all, spherical_jn

from binrender import arrays, estimation, hrtf, metrics, rendering, simulate, special, wavefield
from binrender.hrtf import SAMPLE_RATE, SOUND_SPEED
from binrender.special import EulerAngles, num_coeffs, sh_table, sph_jn_table
from binrender.utils import cart2sph

TARGET = np.array([0.03, -0.02, 0.01])
MEASURE_RADIUS = 1.5
GRIDS = {"bank-narrow": ((100.0, 1600.0), 4096), "bank-wide": ((100.0, 12000.0), 128)}
TRACK_FREQS = simulate.band_freqs(100.0, 1600.0, 100.0)
TRACK_KS = 2.0 * math.pi * TRACK_FREQS / SOUND_SPEED
TRACK_ORDERS = [metrics.truncation_order(k) for k in TRACK_KS]


def bank_ks(band, nfft):
    freqs = np.arange(1, nfft // 2 + 1) * SAMPLE_RATE / nfft
    freqs = freqs[(freqs >= band[0]) & (freqs <= band[1])]
    return 2.0 * math.pi * freqs / SOUND_SPEED


def machine():
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    cpu = next((line.partition(":")[2].strip() for line in lines if line.startswith("model name")),
               platform.processor())
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "cpu": cpu, "nproc": os.cpu_count(), "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def timed(calls, repeats):
    """name -> (median, 90th percentile) ms of ``calls[name](i)`` over repeats i, the calls
    alternating."""
    times = {key: [] for key in calls}
    for i in range(repeats):
        for key, call in calls.items():
            start = time.perf_counter()
            call(i)
            times[key].append((time.perf_counter() - start) * 1e3)
    return {key: (round(float(np.median(t)), 4), round(float(np.percentile(t, 90)), 4))
            for key, t in times.items()}


def versus(calls, repeats):
    """(first, second, first / second) of the median ms of two alternating calls."""
    (first, _), (second, _) = timed(calls, repeats).values()
    return first, second, round(first / second, 3)


def radial(geom, repeats):
    c, p = geom.directivities
    pos = geom.positions()
    iu, ju = np.triu_indices(geom.n_mics)
    pairs = wavefield.TranslationPlan.build(pos[iu] - pos[ju], p, c[ju])
    tables = {}
    for name, (band, nfft) in GRIDS.items():
        ks = bank_ks(band, nfft)
        top = max(metrics.truncation_order(k) for k in ks)
        if name == "bank-narrow":
            tables["bank-narrow-psi"] = (2 * p, np.multiply.outer(ks, pairs.radii))
        xi_cols = wavefield.TranslationPlan.build(TARGET - pos, top, c)
        tables[f"{name}-xi"] = (top + p, np.multiply.outer(ks, xi_cols.radii))
    tables["head-track-bin"] = (19, TRACK_KS[-1] * np.linalg.norm(TARGET - pos, axis=1))  # 1600 Hz
    out = {}
    for name, (lmax, z) in tables.items():
        ours, scipy_ms, ratio = versus({
            "kernel": lambda i: sph_jn_table(lmax, z),
            "scipy": lambda i: spherical_jn(np.arange(lmax + 1).reshape((-1,) + (1,) * z.ndim), z)}, repeats)
        out[name] = {"lmax": lmax, "z": z.size, "kernel_ms": ours, "scipy_ms": scipy_ms, "ratio": ratio}
    return {"tables": out}


def rows(geom, repeats):
    rng = np.random.default_rng(1)
    out = {}
    for name, (band, nfft) in GRIDS.items():
        ks = bank_ks(band, nfft)
        orders = [metrics.truncation_order(k) for k in ks]
        top = max(orders)
        grid = estimation.GridEstimator(geom, ks, "auto", TARGET, top)
        hw = rng.standard_normal((ks.size, 2, (top + 1) ** 2, 2)) @ np.array([1.0, 1j])
        for b, order in enumerate(orders):
            hw[b, :, (order + 1) ** 2 :] = 0.0
        calls = {"blocked": lambda i: grid.xi_rows(hw, orders),
                 "per_bin": lambda i: np.array([hw[b, :, : (n + 1) ** 2] @ grid.xi(b, n)
                                                for b, n in enumerate(orders)])}
        blocked_ms, per_bin_ms, ratio = versus(calls, repeats)
        blocked, per_bin = calls["blocked"](0), calls["per_bin"](0)
        diff = np.max(np.abs(blocked - per_bin)) / np.max(np.abs(per_bin))
        # the solves of grid.rows: the rows' conjugate transposes per bin
        rhs = blocked.conj().transpose(0, 2, 1)
        solves = {"pass": lambda i: grid._solve(rhs.copy()),
                  "estimators": lambda i: np.array([estimation.Estimator(geom, k, "auto", grid.psi_upper[b])
                                                    .solve(rhs[b]) for b, k in enumerate(ks)])}
        pass_ms, estimators_ms, solve_ratio = versus(solves, repeats)
        bitwise = solves["pass"](0).tobytes() == solves["estimators"](0).tobytes()
        out[name] = {"bins": ks.size, "top_order": top, "per_bin_ms": per_bin_ms,
                     "blocked_ms": blocked_ms, "ratio": ratio, "rel_diff": float(f"{diff:.2e}"),
                     "estimators_solve_ms": estimators_ms, "pass_solve_ms": pass_ms,
                     "solve_ratio": solve_ratio, "bitwise": bitwise}
    return {"grids": out}


def kernel(geom, repeats):
    rng = np.random.default_rng(1)
    pos = geom.positions()
    iu, ju = np.triu_indices(geom.n_mics)
    directions = {"target-mics": cart2sph(TARGET[None, :] - pos)[1:],
                  "mic-pairs": cart2sph(pos[iu] - pos[ju])[1:]}
    out = {"sh_tables": {}}
    for lmax, name in ((3, "target-mics"), (19, "target-mics"), (36, "target-mics"), (2, "mic-pairs")):
        theta, phi = directions[name]
        ours, scipy_ms, ratio = versus({
            "sh_table": lambda i: sh_table(lmax, theta, phi),
            "sph_harm_y_all": lambda i: sph_harm_y_all(lmax, lmax, theta, phi)}, repeats)
        out["sh_tables"][f"{name}-lmax{lmax}"] = {"lmax": lmax, "points": theta.size, "sh_table_ms": ours,
                                                  "sph_harm_y_all_ms": scipy_ms, "ratio": ratio}

    targets = rng.uniform(-0.1, 0.1, size=(repeats, 3))
    c, _ = geom.directivities
    bins = list(zip(TRACK_KS, TRACK_ORDERS))
    for k, order in bins:  # warm-up: the plan slot sized by a whole move
        estimation.build_xi(geom, TARGET, k, order)
    out["move_16_build_xi_ms"], out["move_16_translate_multi_ms"], out["move_ratio"] = versus({
        "build_xi": lambda i: [estimation.build_xi(geom, targets[i], k, n) for k, n in bins],
        "translate_multi": lambda i: [wavefield.translate_multi(targets[i] - pos, k, n, c)
                                      for k, n in bins]}, repeats)

    hs = [rng.normal(size=(2, num_coeffs(n))) + 1j * rng.normal(size=(2, num_coeffs(n)))
          for n in TRACK_ORDERS]
    angles = [EulerAngles(*rng.uniform(-1.5, 1.5, size=3)) for _ in range(2 * repeats)]

    def rotate(i, shared):
        for h in hs:
            if not shared:
                special.wigner_d_block.cache_clear()
            rendering._rotate_hrtf(h, angles[2 * i + shared])

    shared, per_bin, _ = versus({"shared": lambda i: rotate(i, True),
                                 "per_bin": lambda i: rotate(i, False)}, repeats)
    out["rotation_16_rotate_hrtf_ms"] = {"shared_blocks": shared, "per_bin_blocks": per_bin}
    return out


def pose(rng, position=None):
    """(position, angles): alpha +-90 degrees, beta and gamma +-20 degrees."""
    if position is None:
        v = rng.normal(size=3)
        position = v / np.linalg.norm(v) * 0.1 * rng.uniform() ** (1.0 / 3.0)
    angles = EulerAngles(*np.radians([rng.uniform(-90, 90), rng.uniform(-20, 20), rng.uniform(-20, 20)]))
    return position, angles


def track(geom, updates):
    rng = np.random.default_rng(1)
    scene = simulate.Scene(sources=(simulate.PointSource(np.array([1.4, 0.6, 0.2])),),
                           freqs=TRACK_FREQS, sound_speed=SOUND_SPEED)
    obs = simulate.simulate_observation(scene, geom)
    spectrum = hrtf.rigid_sphere_hrtf_spectrum(hrtf.SyntheticHead(), TRACK_FREQS,
                                               MEASURE_RADIUS, max(TRACK_ORDERS))
    h_pairs = [spectrum.at_index(b) for b in range(TRACK_KS.size)]
    estimators = [estimation.Estimator(geom, k) for k in TRACK_KS]
    start = pose(rng)
    # update i: a turn at the last position, then a move and turn
    rotations, moves = [], []
    for _ in range(updates):
        rotations.append(pose(rng, (moves[-1] if moves else start)[0]))
        moves.append(pose(rng))

    def render(position, angles):
        return [rendering.render_full(obs[b], est, position, angles, h_pairs[b], "sph",
                                      MEASURE_RADIUS, TRACK_ORDERS[b])
                for b, est in enumerate(estimators)]

    render(*start)  # warm-up: every bin's Xi and weights at the start pose
    times = timed({
        "rotate": lambda i: render(*rotations[i]),
        "move": lambda i: render(*moves[i]),
        "weights": lambda i: [rendering.render_weights("sph", n, k, MEASURE_RADIUS)
                              for k, n in zip(TRACK_KS, TRACK_ORDERS)],
        "solve": lambda i: [est.solve(s) for est, s in zip(estimators, obs)],
    }, updates)
    out = {"bins": TRACK_KS.size, "orders": [min(TRACK_ORDERS), max(TRACK_ORDERS)], "updates": updates}
    for key, (median, p90) in times.items():
        out[f"{key}_ms"], out[f"{key}_p90_ms"] = median, p90
    return out


def convolve(geom, repeats):
    rng = np.random.default_rng(1)
    out = {}
    for seconds in (1, 10):
        signals = rng.standard_normal((geom.n_mics, int(seconds * SAMPLE_RATE)), dtype=np.float32)
        for taps in (128, 4096):
            bank = rendering.BinauralFilterBank(
                taps=rng.standard_normal((2, geom.n_mics, taps)), sample_rate=SAMPLE_RATE,
                delay_samples=taps // 2, band=(100.0, 1000.0))
            median = timed({"call": lambda i: rendering.apply_filter_bank(bank, signals)}, repeats)["call"][0]
            tracemalloc.start()
            try:
                rendering.apply_filter_bank(bank, signals)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out[f"{seconds}s-{taps}taps"] = {"seconds": seconds, "taps": taps, "median_ms": median,
                                             "peak_mb": round(peak / 1e6, 2)}
    return {"mics": geom.n_mics, "signals": out}


GROUPS = {"radial": (radial, 21), "rows": (rows, 21), "kernel": (kernel, 21), "track": (track, 41),
          "convolve": (convolve, 11)}


def main(argv):
    if not argv or argv[0] not in GROUPS:
        sys.exit(f"usage: layer_timing.py {{{','.join(GROUPS)}}} [repeats]")
    group, default = GROUPS[argv[0]]
    repeats = int(argv[1]) if len(argv) > 1 else default
    result = {"group": argv[0], "machine": machine(), "repeats": repeats,
              **group(arrays.build_composite_array(), repeats)}
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
