"""Span tracer for the traced benchmark run.

The tracer wraps public functions of ``binrender`` (and the
``scipy.special`` entry points it calls) by rebinding the names their
callers look up, so the program itself is unchanged. Every call becomes a
span ``(id, name, start, end, parent id, operation id, count)``; spans stay
in memory and are written out once the run ends. Per-layer metrics are
computed from the spans afterwards: durations, self times (duration minus
the part covered by child spans), call counts and work counts.
"""

import functools
import itertools
import json
import threading
import time
from pathlib import Path

# Per-layer metrics, in the order they are reported: name -> unit.
PER_LAYER = {
    "cli.self_s": "s",
    "bundleio.load_hrtf_s": "s",
    "bundleio.hrtf_bytes": "bytes",
    "hrtf.fit_sh_s": "s",
    "hrtf.fit_sh_calls": "count",
    "hrtf.spectrum_s": "s",
    "estimation.estimator_calls": "count",
    "estimation.build_psi_s": "s",
    "estimation.psi_pairs": "count",
    "estimation.factor_s": "s",
    "estimation.build_xi_s": "s",
    "estimation.build_xi_calls": "count",
    "estimation.xi_requests": "count",
    "estimation.xi_hit_ratio": "ratio",
    "estimation.solve_s": "s",
    "estimation.solve_hit_ratio": "ratio",
    "wavefield.translate_psi_s": "s",
    "wavefield.translate_xi_s": "s",
    "wavefield.translate_calls": "count",
    "wavefield.translated_rows": "count",
    "wavefield.out_coeffs": "count",
    "special.radial_calls": "count",
    "special.radial_s": "s",
    "special.sh_calls": "count",
    "special.sh_s": "s",
    "special.gaunt_hits": "count",
    "special.gaunt_misses": "count",
    "special.gaunt_cold_s": "s",
    "special.wigner_d_calls": "count",
    "special.wigner_d_s": "s",
    "rendering.rows_calls": "count",
    "rendering.rows_s": "s",
    "rendering.weights_calls": "count",
    "rendering.weights_s": "s",
    "rendering.bank_self_s": "s",
    "rendering.save_bank_s": "s",
    "rendering.convolve_s": "s",
    "rendering.convolve_samples": "count",
    "simulate.observation_s": "s",
    "simulate.truth_s": "s",
    "trace.overhead_s": "s",
}

# Operation id of the correctness checks; only simulate.truth_s is taken
# from them, so the checks do not inflate the layers they call.
CHECK_OP = "check"


class Tracer:
    """In-memory span recorder; ``op`` names the operation now running."""

    def __init__(self):
        self.spans = []
        self.op = "setup"
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name, count=None):
        """Return ``fn`` recording one span per call.

        ``count(args, kwargs, result)`` gives the span's work count.
        """
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            op = self.op
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            n = count(args, kwargs, result) if count is not None else None
            spans.append((span_id, name, start, end, parent, op, n))
            return result

        return traced

    def write(self, path):
        fields = ["id", "name", "start", "end", "parent", "op", "count"]
        with open(path, "w") as f:
            f.write(json.dumps({"fields": fields}) + "\n")
            for span in sorted(self.spans):
                f.write(json.dumps(span) + "\n")


def instrument(tracer, modules):
    """Rebind the traced names; returns a function that restores them.

    ``modules`` maps short names (cli, bundleio, hrtf, estimation, wavefield,
    rendering, simulate, scipy_special) to the imported modules.
    """
    m = modules
    est_cls = m["estimation"].Estimator
    gaunt_grid = m["wavefield"].gaunt_grid

    def bundle_bytes(args, kwargs, result):
        base = Path(args[0])
        return sum(base.with_suffix(s).stat().st_size for s in (".json", ".bin"))

    def psi_pairs(args, kwargs, result):
        n_mics = args[0].n_mics
        return n_mics * (n_mics + 1) // 2

    def translate_work(args, kwargs, result):
        rows, width = result.shape
        return [rows, rows * width]

    def samples(args, kwargs, result):
        return int(getattr(args[1], "size", 0))

    targets = [
        (m["cli"], "main", "cli.main", None),
        (m["cli"], "rigid_sphere_hrtf_spectrum", "hrtf.spectrum", None),
        (m["hrtf"], "rigid_sphere_hrtf_spectrum", "hrtf.spectrum", None),
        (m["hrtf"], "fit_sh", "hrtf.fit_sh", None),
        (m["bundleio"], "load_hrtf_bundle", "bundleio.load_hrtf", bundle_bytes),
        (m["cli"], "synth_fir_filters", "rendering.synth_fir_filters", None),
        (m["cli"], "save_filter_bank", "rendering.save_filter_bank", None),
        (m["rendering"], "binaural_rows", "rendering.binaural_rows", None),
        (m["rendering"], "render_weights", "rendering.render_weights", None),
        (m["rendering"], "render_full", "rendering.render_full", None),
        (m["rendering"], "apply_filter_bank", "rendering.apply_filter_bank", samples),
        (m["rendering"], "wigner_d_block", "special.wigner_d", None),
        (m["wavefield"], "wigner_d_block", "special.wigner_d", None),
        (m["estimation"], "build_psi", "estimation.build_psi", psi_pairs),
        (m["estimation"], "build_xi", "estimation.build_xi", None),
        (m["estimation"], "translate_multi", "wavefield.translate_multi", translate_work),
        (m["estimation"], "cho_solve", "estimation.cho_solve", None),
        (est_cls, "__init__", "estimation.Estimator", None),
        (est_cls, "solve", "estimation.solve", None),
        (est_cls, "xi", "estimation.xi", None),
        (m["scipy_special"], "spherical_jn", "special.radial", None),
        (m["scipy_special"], "spherical_yn", "special.radial", None),
        (m["scipy_special"], "sph_harm_y", "special.sh", None),
        (m["simulate"], "simulate_observation", "simulate.observation", None),
        (m["simulate"], "true_binaural", "simulate.truth", None),
    ]
    saved = []
    for owner, attr, name, count in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, count))

    # Gaunt tables: the span's count is 1 when the call missed the cache.
    missed = threading.local()

    def gaunt_counted(*args):
        before = gaunt_grid.cache_info().misses
        result = gaunt_grid(*args)
        missed.n = gaunt_grid.cache_info().misses - before
        return result

    saved.append((m["wavefield"], "gaunt_grid", gaunt_grid))
    m["wavefield"].gaunt_grid = tracer.wrap(
        gaunt_counted, "special.gaunt_grid", lambda args, kwargs, result: missed.n)

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def layer_metrics(spans, overhead_s):
    """Per-layer metrics from the spans, as {name: value} in PER_LAYER order.

    Spans of the checks count only towards simulate.truth_s.
    """
    children = {}
    for span in spans:
        if span[4] is not None:
            children[span[4]] = children.get(span[4], 0.0) + span[3] - span[2]
    names = {span[0]: span[1] for span in spans}
    by_name = {}
    for span in spans:
        if span[5] != CHECK_OP or span[1] == "simulate.truth":
            by_name.setdefault(span[1], []).append(span)

    def group(name):
        return by_name.get(name, [])

    def calls(name):
        return len(group(name))

    def total(name, under=None):
        return sum(s[3] - s[2] for s in group(name) if under is None or names.get(s[4]) == under)

    def self_time(name):
        return sum(s[3] - s[2] - children.get(s[0], 0.0) for s in group(name))

    def work(name, index=None):
        return sum(s[6] if index is None else s[6][index] for s in group(name))

    def hit_ratio(requests, misses):
        return 1.0 - misses / requests if requests else 0.0

    solves = calls("estimation.solve")
    solve_misses = sum(1 for s in group("estimation.cho_solve") if names.get(s[4]) == "estimation.solve")
    gaunt = group("special.gaunt_grid")
    values = {
        "cli.self_s": self_time("cli.main"),
        "bundleio.load_hrtf_s": total("bundleio.load_hrtf"),
        "bundleio.hrtf_bytes": work("bundleio.load_hrtf"),
        "hrtf.fit_sh_s": total("hrtf.fit_sh"),
        "hrtf.fit_sh_calls": calls("hrtf.fit_sh"),
        "hrtf.spectrum_s": total("hrtf.spectrum"),
        "estimation.estimator_calls": calls("estimation.Estimator"),
        "estimation.build_psi_s": total("estimation.build_psi"),
        "estimation.psi_pairs": work("estimation.build_psi"),
        "estimation.factor_s": self_time("estimation.Estimator"),
        "estimation.build_xi_s": total("estimation.build_xi"),
        "estimation.build_xi_calls": calls("estimation.build_xi"),
        "estimation.xi_requests": calls("estimation.xi"),
        "estimation.xi_hit_ratio": hit_ratio(calls("estimation.xi"), calls("estimation.build_xi")),
        "estimation.solve_s": total("estimation.solve"),
        "estimation.solve_hit_ratio": hit_ratio(solves, solve_misses),
        "wavefield.translate_psi_s": total("wavefield.translate_multi", under="estimation.build_psi"),
        "wavefield.translate_xi_s": total("wavefield.translate_multi", under="estimation.build_xi"),
        "wavefield.translate_calls": calls("wavefield.translate_multi"),
        "wavefield.translated_rows": work("wavefield.translate_multi", 0),
        "wavefield.out_coeffs": work("wavefield.translate_multi", 1),
        "special.radial_calls": calls("special.radial"),
        "special.radial_s": total("special.radial"),
        "special.sh_calls": calls("special.sh"),
        "special.sh_s": total("special.sh"),
        "special.gaunt_hits": sum(1 for s in gaunt if not s[6]),
        "special.gaunt_misses": sum(1 for s in gaunt if s[6]),
        "special.gaunt_cold_s": sum(s[3] - s[2] for s in gaunt if s[6]),
        "special.wigner_d_calls": calls("special.wigner_d"),
        "special.wigner_d_s": total("special.wigner_d"),
        "rendering.rows_calls": calls("rendering.binaural_rows"),
        "rendering.rows_s": self_time("rendering.binaural_rows"),
        "rendering.weights_calls": calls("rendering.render_weights"),
        "rendering.weights_s": total("rendering.render_weights"),
        "rendering.bank_self_s": self_time("rendering.synth_fir_filters"),
        "rendering.save_bank_s": total("rendering.save_filter_bank"),
        "rendering.convolve_s": total("rendering.apply_filter_bank"),
        "rendering.convolve_samples": work("rendering.apply_filter_bank"),
        "simulate.observation_s": total("simulate.observation"),
        "simulate.truth_s": total("simulate.truth"),
        "trace.overhead_s": overhead_s,
    }
    if list(values) != list(PER_LAYER):
        raise RuntimeError("per-layer metrics out of step with PER_LAYER")
    return values
