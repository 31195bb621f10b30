"""Desk-scale listening-region experiment.

A point source at (1.5, 0, 0) m is recorded by the 64-mic composite array
and by the 64-mic rigid-sphere array; binaural signals at listener positions
along the x axis (and at the two bench positions A/B) are rendered with the
spherical-wave decomposition against a rigid-sphere surrogate head, and the
average NMSE below 1.6 kHz is reported per position and array.

Output: desk_experiment.csv in the chosen output directory (plot-ready,
one row per position/array/metric).

Usage: PYTHONPATH=src python scripts/desk_experiment.py [outdir]
"""

import math
import sys
from pathlib import Path

import numpy as np

from binrender import arrays, estimation, metrics, rendering, simulate
from binrender.hrtf import SOUND_SPEED, SyntheticHead, rigid_sphere_hrtf_spectrum
from binrender.special import EulerAngles
from binrender.wavefield import translate_coeffs

SOURCE = np.array([1.5, 0.0, 0.0])
FREQS = simulate.band_freqs(100.0, 1600.0, 100.0)
KS = 2.0 * math.pi * FREQS / SOUND_SPEED
ORDERS = [metrics.truncation_order(k) for k in KS]
POSITIONS = {
    "x=0.0": np.array([0.0, 0.0, 0.0]),
    "x=0.1": np.array([0.1, 0.0, 0.0]),
    "x=0.2": np.array([0.2, 0.0, 0.0]),
    "x=0.3": np.array([0.3, 0.0, 0.0]),
    "x=0.4": np.array([0.4, 0.0, 0.0]),
    "bench_A": np.array([0.0, 0.0, 0.0]),
    "bench_B": np.array([-0.071, 0.071, 0.0]),
}


def binaural_through(geom, head, listener, rigid):
    scene = simulate.Scene(sources=(simulate.PointSource(SOURCE),), freqs=FREQS)
    obs = simulate.simulate_observation(scene, geom)
    if not rigid:  # every bin at its truncation order, in one pass over the grid
        spec = rigid_sphere_hrtf_spectrum(head, FREQS, 1.5, max(ORDERS))
        rows = rendering.grid_rows(geom, FREQS, listener, EulerAngles(), spec)
        return (rows @ obs[:, :, None])[:, :, 0]
    out = np.empty((FREQS.size, 2), dtype=complex)
    for fi, (f, k, order) in enumerate(zip(FREQS, KS, ORDERS)):
        spec = rigid_sphere_hrtf_spectrum(head, [f], 1.5, order)
        est_order = min(order, 7)
        alpha = estimation.rigid_sphere_estimate(obs[fi], geom, k, est_order)
        if np.any(listener != geom.baffle.center):
            alpha = translate_coeffs(alpha, listener, out_order=est_order)
        out[fi] = rendering.render_coeffs(alpha, spec.at_index(0), "sph", 1.5)
    return out


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("desk_out")
    outdir.mkdir(parents=True, exist_ok=True)
    head = SyntheticHead()
    composite = arrays.build_composite_array()
    sphere = arrays.build_rigid_sphere_array()

    rows = []
    for name, listener in POSITIONS.items():
        scene = simulate.Scene(sources=(simulate.PointSource(SOURCE),), freqs=FREQS)
        truth = simulate.true_binaural(scene, head, listener_position=listener)
        for label, geom, rigid in (("composite", composite, False),
                                   ("rigid_sphere", sphere, True)):
            est = binaural_through(geom, head, listener, rigid)
            for ear, ear_name in ((0, "L"), (1, "R")):
                avg = metrics.average_nmse(est[:, ear], truth[:, ear])
                rows.append({
                    "position": name, "frequency_or_band": "100-1600",
                    "metric": f"nmse_{ear_name}_{label}_db",
                    "value": f"{avg.db:.3f}", "excluded_bins": avg.excluded_bins,
                })
            print(f"{name:8s} {label:12s} NMSE L {rows[-2]['value']} dB, R {rows[-1]['value']} dB")
    metrics.write_metric_report(outdir / "desk_experiment.csv", rows)
    print(f"wrote {outdir / 'desk_experiment.csv'}")


if __name__ == "__main__":
    main()
