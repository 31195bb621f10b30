"""The traced benchmark rebinds binrender names by attribute lookup.

``perfbench/tracing.py`` wraps module functions and Estimator methods in
place; renaming or removing one of them breaks ``perfbench/run.py --trace 1``.
This test instruments the package the way the benchmark does, runs one
head-tracking update through the traced chain, and restores the originals.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import scipy.special

from binrender import arrays, bundleio, cli, estimation, hrtf, rendering, simulate, wavefield
from binrender.special import EulerAngles

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_instruments_traced_names():
    tracing = _load_tracing()
    modules = {"cli": cli, "bundleio": bundleio, "hrtf": hrtf, "estimation": estimation,
               "wavefield": wavefield, "rendering": rendering, "simulate": simulate,
               "scipy_special": scipy.special}
    original = (rendering.render_full, estimation.Estimator.solve, scipy.special.spherical_jn)
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer, modules)
    try:
        geom = arrays.build_small_array()
        f = 500.0
        k = 2.0 * math.pi * f / 346.2
        spec = hrtf.rigid_sphere_hrtf_spectrum(hrtf.SyntheticHead(), [f], 1.5, 3)
        est = estimation.Estimator(geom, k)
        y = rendering.render_full(np.ones(geom.n_mics, dtype=complex), est, np.zeros(3),
                                  EulerAngles(0.3, 0.2, 0.1), spec.at_index(0), "sph", 1.5)
    finally:
        restore()
    assert np.all(np.isfinite(y))
    assert (rendering.render_full, estimation.Estimator.solve,
            scipy.special.spherical_jn) == original
    names = {span[1] for span in tracer.spans}
    assert {"hrtf.spectrum", "estimation.Estimator", "estimation.build_psi",
            "estimation.xi", "estimation.build_xi", "wavefield.translate_multi",
            "estimation.solve", "estimation.cho_solve", "rendering.render_full",
            "rendering.binaural_rows", "rendering.render_weights",
            "special.wigner_d"} <= names
    layers = tracing.layer_metrics(tracer.spans, 0.0)
    assert layers["rendering.rows_calls"] == 1
