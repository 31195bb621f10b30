"""Rendering-method comparison: plane-wave vs spherical-wave decomposition.

Analytic point-source fields on the horizontal plane are rendered with PLN
and SPH against a rigid-sphere surrogate head whose HRTFs are fitted from a
2232-direction grid at 1.5 m, and the left-ear spectral distortion (with
amplitude-bias normalization) is tabulated per azimuth and per source
distance.

Output: pln_vs_sph_azimuth.csv and pln_vs_sph_distance.csv.

Usage: python scripts/pln_vs_sph.py [outdir]
"""

import math
import sys
from pathlib import Path

import numpy as np

from binrender import metrics, rendering, simulate
from binrender import wavefield as wf
from binrender.hrtf import SyntheticHead, ear_pressure, equiangular_grid, fit_sh, \
    synth_rigid_sphere_hrtf

C = 346.2
MEASURE_RADIUS = 1.5
FREQS = simulate.band_freqs(100.0, 12000.0, 100.0)


def left_ear_sd(head, spectrum, src):
    y_true = np.empty(FREQS.size, dtype=complex)
    y_sph = np.empty(FREQS.size, dtype=complex)
    y_pln = np.empty(FREQS.size, dtype=complex)
    for fi, f in enumerate(FREQS):
        k = 2.0 * math.pi * f / C
        order = metrics.truncation_order(k)
        alpha = wf.point_source_coeffs(src, np.zeros(3), k, order)
        h_pair = spectrum.at_index(fi)
        y_true[fi] = ear_pressure(head, src, k)[0]
        y_sph[fi] = rendering.render_coeffs(alpha, h_pair, "sph", MEASURE_RADIUS, order)[0]
        y_pln[fi] = rendering.render_coeffs(alpha, h_pair, "pln", order=order)[0]
    return (metrics.spectral_distortion(y_sph, y_true, normalize=True),
            metrics.spectral_distortion(y_pln, y_true, normalize=True))


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("pln_vs_sph_out")
    outdir.mkdir(parents=True, exist_ok=True)
    head = SyntheticHead()
    print("fitting HRTF spectrum (order 35, 2232 directions)...")
    hrtf_set = synth_rigid_sphere_hrtf(head, equiangular_grid(), FREQS, MEASURE_RADIUS)
    spectrum = fit_sh(hrtf_set, 35)

    rows = []
    for az_deg in range(0, 360, 15):
        az = math.radians(az_deg)
        src = 2.0 * np.array([math.cos(az), math.sin(az), 0.0])
        sd_sph, sd_pln = left_ear_sd(head, spectrum, src)
        for name, sd in (("sph", sd_sph), ("pln", sd_pln)):
            rows.append({"position": "0;0;0", "azimuth_deg": az_deg,
                         "frequency_or_band": "100-12000",
                         "metric": f"sd_L_{name}_db", "value": f"{sd.db:.4f}",
                         "excluded_bins": sd.excluded_bins})
        print(f"azimuth {az_deg:3d}: SD sph {sd_sph.db:.4f} dB, pln {sd_pln.db:.4f} dB")
    metrics.write_metric_report(outdir / "pln_vs_sph_azimuth.csv", rows)

    rows = []
    for dist in (1.0, 1.5, 2.0, 3.0, 5.0):
        vals = {"sph": [], "pln": []}
        for az_deg in range(0, 360, 45):
            az = math.radians(az_deg)
            src = dist * np.array([math.cos(az), math.sin(az), 0.0])
            sd_sph, sd_pln = left_ear_sd(head, spectrum, src)
            vals["sph"].append(sd_sph.db)
            vals["pln"].append(sd_pln.db)
        for name in ("sph", "pln"):
            rows.append({"position": "0;0;0", "azimuth_deg": "avg",
                         "frequency_or_band": f"dist={dist}",
                         "metric": f"sd_L_{name}_db",
                         "value": f"{np.mean(vals[name]):.4f}", "excluded_bins": 0})
        print(f"distance {dist}: SD sph {np.mean(vals['sph']):.4f} dB, "
              f"pln {np.mean(vals['pln']):.4f} dB")
    metrics.write_metric_report(outdir / "pln_vs_sph_distance.csv", rows)
    print(f"wrote CSVs to {outdir}")


if __name__ == "__main__":
    main()
