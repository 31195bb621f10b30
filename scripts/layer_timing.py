"""Layer timings in process, one group of layers per run; prints one JSON line.

All groups run on the 64-mic composite array. The bank grids are those of
the bench's ``filters`` workloads: bank-narrow (100-1600 Hz, nfft 4096: 128
bins, orders 1-18) and bank-wide (100-12000 Hz, nfft 128: 32 bins, top
order 35). The head-tracking band is 100-1600 Hz in 100 Hz steps (16 bins,
orders 2-18).

* ``radial``: ``special.sph_jn_table`` against one ``spherical_jn`` call on
  the tables a warm call takes: bank-narrow Psi and Xi, bank-wide Xi (over
  the distinct pair and target-mic distances) and the table of a
  head-tracking move (the 16 head-track wavenumbers times the 64 target-mic
  distances, l <= 19), which ``build_xi`` takes at a new target.
* ``rows``: each bank grid's pre-solve rows, per bin (``hw_b @ xi.xi(b,
  N_b)``) against ``XiGrid.xi_rows``, for a fixed random ``hw`` zero above
  each bin's order; ``rel_diff`` is their largest difference relative to
  the largest row entry. Then the solves of ``PsiGrid.solve_rows`` on those
  rows: a per-bin ``Estimator(geom, k, "auto", psi.psi_upper(b, b +
  1)[0]).solve`` (Psi scattered, factored and dropped bin by bin) against the
  grid's chunked in-place solve pass; ``bitwise`` says whether they agree bit
  for bit. Last ``peak_mb``, the tracemalloc peak of one warm
  ``rendering.grid_rows`` call on the grid, against the synthetic head's
  spectrum at the grid's top order; bank-narrow adds ``bank_peak_mb``, the
  tracemalloc peak of one warm ``rendering.synth_fir_filters`` call on its
  grid (the rows and the bank's tail), and bank-wide ``fit_peak_mb``, the
  tracemalloc peak of the order-35 ``fit_sh`` that comes before it in the
  bench's ``filters`` call (the 2232-direction ``equiangular_grid`` at the
  bench bundle's 61 frequencies, 100-12100 Hz every 200 Hz, seeded random
  responses), beyond the set.
* ``kernel``: ``special.sh_table`` against ``sph_harm_y_all`` (lmax 3, 19,
  36 on the 64 target-mic directions, 2 on the 2080 mic pairs); a move's 16
  ``build_xi`` calls (one shared ``XiGrid`` over the 16 wavenumbers)
  against 16 ``translate_multi`` calls (a plan and a table per
  bin); a rotation's 16 ``_rotate_hrtf`` calls, Wigner-D blocks
  shared across bins against rebuilt per bin; new targets and angles per repeat.
  Then two spectrum turns, one ``_rotate_hrtf`` call each on seeded random
  rows: 256 x order 18 (bank-narrow's 128 bins, both ears) and 122 x order
  35 (bank-wide's 61-frequency bundle, both ears), the Wigner-D cache
  cleared before each call and the two in reverse order every other repeat:
  the median time and the tracemalloc peak of one more call, its blocks and
  output included.
  Then a cold order-35 ``TranslationPlan.build`` over the target-mic
  displacements (``gaunt_grid``, ``_term_constants`` and the Legendre tables
  cleared before each): the median time, then the tracemalloc peak of one
  more cold build, the memory it keeps beyond the plan it returns and the
  most Legendre tables it held at once. Last ``fit_sh`` at order 35 on the
  2232-direction ``equiangular_grid`` at 8 frequencies (seeded random
  responses): the median time and the tracemalloc peak of one more fit
  beyond the ``HrtfSet``.
* ``track``: one ``Estimator`` per head-track bin serves a seeded trajectory
  of 16-bin ``render_full`` updates: rotations (each bin reuses its Xi) and
  moves in a 0.1 m ball (the first bin builds the target's ``XiGrid`` over
  the 16 wavenumbers, the rest reuse it), beside an
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
BUNDLE_FREQS = simulate.band_freqs(100.0, 12100.0, 200.0)  # the bench's bank-wide HRTF bundle


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
    tables["head-track-move"] = (19, np.multiply.outer(TRACK_KS, np.linalg.norm(TARGET - pos, axis=1)))
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
        xi, psi = estimation.XiGrid(geom, ks, TARGET, top), estimation.PsiGrid(geom, ks, "auto")
        hw = rng.standard_normal((ks.size, 2, (top + 1) ** 2, 2)) @ np.array([1.0, 1j])
        for b, order in enumerate(orders):
            hw[b, :, (order + 1) ** 2 :] = 0.0
        calls = {"blocked": lambda i: xi.xi_rows(hw, orders),
                 "per_bin": lambda i: np.array([hw[b, :, : (n + 1) ** 2] @ xi.xi(b, n)
                                                for b, n in enumerate(orders)])}
        blocked_ms, per_bin_ms, ratio = versus(calls, repeats)
        blocked, per_bin = calls["blocked"](0), calls["per_bin"](0)
        diff = np.max(np.abs(blocked - per_bin)) / np.max(np.abs(per_bin))
        # the solves of psi.solve_rows: the rows' conjugate transposes per bin
        rhs = blocked.conj().transpose(0, 2, 1)
        solves = {"pass": lambda i: psi.solve(rhs.copy()),
                  "estimators": lambda i: np.array([estimation.Estimator(geom, k, "auto",
                                                                         psi.psi_upper(b, b + 1)[0])
                                                    .solve(rhs[b]) for b, k in enumerate(ks)])}
        pass_ms, estimators_ms, solve_ratio = versus(solves, repeats)
        bitwise = solves["pass"](0).tobytes() == solves["estimators"](0).tobytes()
        out[name] = {"bins": ks.size, "top_order": top, "per_bin_ms": per_bin_ms,
                     "blocked_ms": blocked_ms, "ratio": ratio, "rel_diff": float(f"{diff:.2e}"),
                     "estimators_solve_ms": estimators_ms, "pass_solve_ms": pass_ms,
                     "solve_ratio": solve_ratio, "bitwise": bitwise,
                     "peak_mb": grid_rows_peak(geom, ks, top)}
    out["bank-narrow"]["bank_peak_mb"] = bank_peak(geom, *GRIDS["bank-narrow"])
    hs = fit_set(BUNDLE_FREQS)
    out["bank-wide"]["fit_peak_mb"] = peak_mb(lambda: hrtf.fit_sh(hs, 35))
    return {"grids": out}


def peak_mb(call):
    """The tracemalloc peak, in MB, of one ``call()``, its result included."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round(peak / 1e6, 2)


def grid_rows_peak(geom, ks, top):
    """The tracemalloc peak, in MB, of one warm ``grid_rows`` call over ``ks``."""
    freqs = ks * SOUND_SPEED / (2.0 * math.pi)
    spectrum = hrtf.rigid_sphere_hrtf_spectrum(hrtf.SyntheticHead(), freqs, MEASURE_RADIUS, top)
    call = lambda: rendering.grid_rows(geom, freqs, TARGET, EulerAngles(), spectrum)
    call()
    return peak_mb(call)


def bank_peak(geom, band, nfft):
    """The tracemalloc peak, in MB, of one warm ``synth_fir_filters`` call on the grid of
    ``band`` and ``nfft``."""
    freqs, in_band = rendering.fft_grid(band, nfft, SAMPLE_RATE)
    top = max(metrics.truncation_order(k) for k in 2.0 * math.pi * freqs[in_band] / SOUND_SPEED)
    spectrum = hrtf.rigid_sphere_hrtf_spectrum(hrtf.SyntheticHead(), freqs[in_band], MEASURE_RADIUS, top)
    call = lambda: rendering.synth_fir_filters(geom, TARGET, EulerAngles(0.3, 0.2, 0.1), spectrum, band,
                                               nfft, SAMPLE_RATE)
    call()
    return peak_mb(call)


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
    for k, order in bins:  # warm-up: the slot's XiGrid sized by a whole move
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

    spectra = {(rows, order): rng.normal(size=(rows, num_coeffs(order)))
               + 1j * rng.normal(size=(rows, num_coeffs(order))) for rows, order in ((256, 18), (122, 35))}

    def turn(shape, i):
        special.wigner_d_block.cache_clear()
        start = time.perf_counter()
        rendering._rotate_hrtf(spectra[shape], angles[i])
        return (time.perf_counter() - start) * 1e3

    times = {shape: [] for shape in spectra}
    for i in range(repeats):  # the two turns in reverse order every other repeat
        for shape in list(spectra)[:: 1 - 2 * (i % 2)]:
            times[shape].append(turn(shape, i))
    out["spectrum_turns"] = {f"{rows}x{order}": {
        "rows": rows, "order": order, "median_ms": round(float(np.median(times[rows, order])), 4),
        "peak_mb": peak_mb(lambda: turn((rows, order), 0))} for rows, order in spectra}
    out["cold_plan_35"] = cold_plan(TARGET - pos, c, repeats)
    out["fit_35"] = fit_35(repeats)
    return out


def cold_plan(displacements, c, repeats):
    """A cold order-35 plan build: median ms, tracemalloc peak, what it keeps
    beyond the plan and the most Legendre tables held at once."""
    def build():
        for cache in (special.gaunt_grid, special._gauss_legendre_sh, wavefield._term_constants):
            cache.cache_clear()
        start = time.perf_counter()
        plan = wavefield.TranslationPlan.build(displacements, 35, c)
        return plan, (time.perf_counter() - start) * 1e3

    median = round(float(np.median([build()[1] for _ in range(repeats)])), 4)
    held = [0]

    def grid(*args):
        out = special.gaunt_grid(*args)
        held[0] = max(held[0], special._gauss_legendre_sh.cache_info().currsize)
        return out

    wavefield.gaunt_grid = grid
    tracemalloc.start()
    try:
        plan, _ = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        wavefield.gaunt_grid = special.gaunt_grid
    retained = current - plan.angular.nbytes - plan.radii.nbytes - plan.radius_index.nbytes
    return {"median_ms": median, "peak_mb": round(peak / 1e6, 2), "retained_mb": round(retained / 1e6, 2),
            "tables_held": held[0]}


def fit_set(freqs):
    """An ``HrtfSet`` of seeded random responses on the 2232-direction ``equiangular_grid``."""
    rng = np.random.default_rng(1)
    grid = hrtf.equiangular_grid()
    shape = (2, freqs.size, grid.shape[0])
    responses = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return hrtf.HrtfSet(MEASURE_RADIUS, grid, freqs, responses, SAMPLE_RATE)


def fit_35(repeats):
    """``fit_sh`` at order 35 on 2232 directions: median ms and tracemalloc peak beyond the set."""
    hs = fit_set(np.linspace(1000.0, 12000.0, 8))
    median = timed({"fit": lambda i: hrtf.fit_sh(hs, 35)}, repeats)["fit"][0]
    return {"directions": hs.n_directions, "freqs": hs.freqs.size, "median_ms": median,
            "peak_mb": peak_mb(lambda: hrtf.fit_sh(hs, 35))}


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
            out[f"{seconds}s-{taps}taps"] = {
                "seconds": seconds, "taps": taps, "median_ms": median,
                "peak_mb": peak_mb(lambda: rendering.apply_filter_bank(bank, signals))}
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
