"""Generate the embedded 64-node spherical 7-design asset.

Drives the equal-weight spherical-harmonic sums sum_i Y_n^m(x_i) to zero
for every 1 <= n <= 7 with a least-squares solver over all 64 node
positions (128 parameters, 63 residual equations; solutions are plentiful
near a uniform start). A deliberately non-antipodal construction is used so
the order-7 SH matrix of the node set stays full rank, which the
rigid-baffle estimator needs.

Writes src/binrender/data/tdesign_t7_n64.json with 17-significant-digit
coordinates plus the achieved residual, after verifying

    max_{1<=n<=7, |m|<=n} |sum_i Y_n^m(x_i)| < 1e-13
    cond(Y_order7(nodes)) reasonably small.

Usage: python scripts/make_tdesign.py [seed]
"""

import json
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

from binrender.special import sh_matrix
from binrender.utils import cart2sph, sph2cart

N_POINTS = 64
MAX_ORDER = 7


def residuals(params):
    sums = np.sum(sh_matrix(MAX_ORDER, params[:N_POINTS], params[N_POINTS:]), axis=0)
    out = []
    for n in range(1, MAX_ORDER + 1):
        for m in range(n + 1):
            s = sums[n * n + n + m]
            out.append(s.real)
            if m > 0:
                out.append(s.imag)
    return np.asarray(out)


def fibonacci_init(seed):
    rng = np.random.default_rng(seed)
    i = np.arange(N_POINTS)
    golden = (1 + 5**0.5) / 2
    theta = np.arccos(1 - 2 * (i + 0.5) / N_POINTS)
    phi = (2 * np.pi * i / golden) % (2 * np.pi)
    params = np.concatenate([theta, phi])
    return params + 2e-3 * rng.standard_normal(params.size)


def design_residual(nodes):
    _, theta, phi = cart2sph(nodes)
    return float(np.max(np.abs(np.sum(sh_matrix(MAX_ORDER, theta, phi)[:, 1:], axis=0))))


def sh_condition(nodes):
    _, theta, phi = cart2sph(nodes)
    return np.linalg.cond(sh_matrix(MAX_ORDER, theta, phi))


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    best = None
    for attempt in range(12):
        x0 = fibonacci_init(seed + attempt)
        sol = least_squares(residuals, x0, method="trf", xtol=None, ftol=None,
                            gtol=1e-15, max_nfev=60000)
        nodes = sph2cart(np.ones(N_POINTS), sol.x[:N_POINTS], sol.x[N_POINTS:])
        resid = design_residual(nodes)
        cond = sh_condition(nodes)
        print(f"attempt {attempt}: residual {resid:.3e}, cond(Y7) {cond:.2f}")
        if resid < 1e-13 and (best is None or cond < best[1]):
            best = (resid, cond, nodes)
        if best is not None and best[1] < 20:
            break
    if best is None:
        raise SystemExit("did not converge to a 7-design")
    resid, cond, nodes = best

    out = {
        "kind": "spherical_t_design",
        "t": 7,
        "n_points": 64,
        "version": 1,
        "provenance": "generated by scripts/make_tdesign.py (free least-squares construction)",
        "defining_property_residual": float(resid),
        "sh_matrix_condition_order7": float(cond),
        "nodes": [[f"{c:.16e}" for c in row] for row in nodes],
    }
    dest = Path(__file__).resolve().parents[1] / "src" / "binrender" / "data" / "tdesign_t7_n64.json"
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps(out, indent=1))
    print(f"wrote {dest} (residual {resid:.3e}, cond {cond:.2f})")


if __name__ == "__main__":
    main()
