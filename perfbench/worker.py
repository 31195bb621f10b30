"""Benchmark worker: seeded inputs, set-up, timed operations and checks.

perfbench/run.py starts one fresh interpreter per role:

    worker.py gen     --workload W --seed N --dir D
    worker.py setup   --workload W --dir D --t0 NS --result R
    worker.py measure --workload W --dir D --t0 NS --seconds S --result R [--trace]

``--t0`` is the parent's CLOCK_MONOTONIC reading in nanoseconds, taken just
before it started this process, so set-up time covers interpreter start-up,
imports, loading the inputs and one untimed warm-up operation. The program
is driven only through its public entry points: ``binrender.cli.main`` for
the ``filters`` command and the library API for head tracking. Every
binrender function is looked up through its module at call time, so the
traced run can rebind it.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import scipy.special
from scipy.io import wavfile
from scipy.signal import fftconvolve

from binrender import arrays, bundleio, cli, estimation, hrtf, metrics, rendering, simulate, wavefield
from binrender.special import EulerAngles
from binrender.utils import rotation_matrix_zyz

import tracing

SOUND_SPEED = 346.2
MEASURE_RADIUS = 1.5
SAMPLE_RATE = 48000.0
NOISE_SECONDS = 1.0
PINNED_BLAS_THREADS = 1
WORKER_COUNTS = (1, 2)

BANKS = {
    # many cheap bins (orders 1-18): per-bin fixed costs, thread pool
    "bank-narrow": {"band": (100.0, 1600.0), "nfft": 4096, "hrtf": "synthetic",
                    "cycle": ("filters1", "filters2")},
    # order-35 bins from a measured-HRTF bundle: fit_sh, translate, rotation
    "bank-wide": {"band": (100.0, 12000.0), "nfft": 128, "hrtf": "bundle",
                  "cycle": ("filters1", "convolve", "convolve")},
}
TRACK_BAND = (100.0, 1600.0, 100.0)
TRACK_UPDATES = 100  # rotation-only updates, and as many moves, per pass
TRACK_TRACED = 10  # of each kind in the traced run
TRACK_CHECK_EVERY = 20

# Upper bounds on the NMSE against the analytic truth, in dB: the worst of
# seeds 1-20 on the seed commit (-13.2, 6.9, -21.6) plus a margin of 6-10 dB.
NMSE_BOUND_DB = {"bank-narrow": -6.0, "bank-wide": 13.0, "head-track": -12.0}
QUALITY_BINS = 32  # in-band bins the bank response is checked at, at most
# render_full against render_composed: reassociation rounding only
COMPOSED_RTOL = 1e-9
CONVOLVE_RTOL = 1e-9

OP_NAMES = {"filters1": "op", "filters2": "op2", "convolve": "op2", "rotate": "op", "move": "op2"}


def _modules():
    return {"cli": cli, "bundleio": bundleio, "hrtf": hrtf, "estimation": estimation,
            "wavefield": wavefield, "rendering": rendering, "simulate": simulate,
            "scipy_special": scipy.special}


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _source(rng):
    """A point source 1.2-2 m away, within 30 degrees of the horizontal plane."""
    dist = rng.uniform(1.2, 2.0)
    az = rng.uniform(-math.pi, math.pi)
    el = math.radians(rng.uniform(-30.0, 30.0))
    return [dist * math.cos(el) * math.cos(az), dist * math.cos(el) * math.sin(az),
            dist * math.sin(el)]


def _position(rng, radius=0.1):
    """Uniform in the ball of ``radius`` about the origin."""
    return list(_unit(rng) * radius * rng.uniform() ** (1.0 / 3.0))


def _signed(rng, lo, hi):
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))


def _head_turn(rng):
    """z-y-z Euler angles in degrees: alpha +-90, beta and gamma +-20."""
    return [rng.uniform(-90.0, 90.0), rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)]


def _write_json(path, doc):
    Path(path).write_text(json.dumps(doc, indent=1))


def generate(workload, seed, d):
    rng = np.random.default_rng(seed)
    d.mkdir(parents=True, exist_ok=True)
    head_radius = rng.uniform(0.080, 0.095)
    (d / "geom.json").write_text(arrays.geometry_to_json(arrays.build_composite_array()))
    sources = [_source(rng) for _ in range(2)]
    _write_json(d / "scene.json", {
        "sources": [{"pos": p, "spectrum": "flat"} for p in sources],
        "band": list(TRACK_BAND), "sound_speed": SOUND_SPEED})
    inputs = {"head_radius": head_radius, "sources": sources}

    if workload in BANKS:
        spec = BANKS[workload]
        if spec["hrtf"] == "bundle":
            head = hrtf.SyntheticHead(radius=head_radius)
            grid = hrtf.equiangular_grid()  # 2232 directions
            freqs = simulate.band_freqs(100.0, 12100.0, 200.0)  # covers the 12 kHz band edge
            bundleio.save_hrtf_bundle(d / "hrtf", hrtf.synth_rigid_sphere_hrtf(
                head, grid, freqs, MEASURE_RADIUS, SAMPLE_RATE, SOUND_SPEED))
            hrtf_ref = "hrtf"
            noise = rng.standard_normal((64, int(NOISE_SECONDS * SAMPLE_RATE)))
            np.save(d / "noise.npy", noise.astype(np.float32))
        else:
            hrtf_ref = {"synthetic": {"head_radius": head_radius, "measure_radius": MEASURE_RADIUS}}
        euler = [_signed(rng, 10.0, 90.0), _signed(rng, 5.0, 20.0), 0.0]
        inputs.update(position=_position(rng), euler_deg=euler)
        _write_json(d / "run.json", {
            "version": 1, "scene": "scene.json", "geometry": "geom.json", "hrtf": hrtf_ref,
            "render": {"mode": "sph", "band": list(spec["band"]), "nfft": spec["nfft"],
                       "sample_rate": SAMPLE_RATE},
            "listener": {"position": inputs["position"], "euler_deg": euler},
            "output_dir": "out", "seed": seed})
    else:
        start = {"position": _position(rng), "euler_deg": _head_turn(rng)}
        updates = []
        position = start["position"]
        for _ in range(TRACK_UPDATES):
            updates.append({"kind": "rotate", "position": position, "euler_deg": _head_turn(rng)})
            position = _position(rng)
            updates.append({"kind": "move", "position": position, "euler_deg": _head_turn(rng)})
        inputs["trajectory"] = {"start": start, "updates": updates}
    _write_json(d / "inputs.json", inputs)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _angles(euler_deg):
    return EulerAngles(*(math.radians(a) for a in euler_deg))


def _head_scene(sources, freqs, position, euler_deg):
    """The scene in head coordinates: x_head = R^T (x_world - position)."""
    rot = rotation_matrix_zyz(*(math.radians(a) for a in euler_deg))
    pos = np.asarray(position, dtype=float)
    return simulate.Scene(
        sources=tuple(simulate.PointSource(rot.T @ (np.asarray(s) - pos)) for s in sources),
        freqs=freqs, sound_speed=SOUND_SPEED)


def _quality(est, true):
    """(NMSE dB, SD dB) averaged over the ears."""
    nmse = [metrics.average_nmse(est[:, e], true[:, e]).db for e in (0, 1)]
    sd = [metrics.spectral_distortion(est[:, e], true[:, e], normalize=True).db for e in (0, 1)]
    return float(np.mean(nmse)), float(np.mean(sd))


class Bank:
    """``filters`` through the CLI, and convolution through the bank it wrote."""

    def __init__(self, workload, d):
        self.workload = workload
        self.spec = BANKS[workload]
        self.d = d
        self.config = str(d / "run.json")
        self.inputs = json.loads((d / "inputs.json").read_text())
        self.outputs = [d / "out" / n for n in ("filterbank.wav", "filterbank.json",
                                                "manifest_filters.json")]
        self.noise = np.load(d / "noise.npy") if "convolve" in self.spec["cycle"] else None
        self.reference = None
        self.bank = None
        self.convolved = None

    def warm_up(self):
        self.run("filters1")
        self.reference = [_sha256(p) for p in self.outputs]
        if self.noise is not None:
            self.bank = self.load_bank()
            self.run("convolve")

    def run(self, kind):
        if kind == "convolve":
            self.convolved = rendering.apply_filter_bank(self.bank, self.noise)
            return
        os.environ["BINRENDER_WORKERS"] = "2" if kind == "filters2" else "1"
        rc = cli.main(["filters", self.config])
        if rc != 0:
            raise RuntimeError(f"filters exited with {rc}")

    def check(self, kind):
        """Per-operation check, outside the timed region."""
        if kind == "convolve":
            return bool(np.all(np.isfinite(self.convolved)))
        # the CLI promises byte-identical outputs for any worker count
        return [_sha256(p) for p in self.outputs] == self.reference

    def load_bank(self):
        sidecar = json.loads((self.d / "out" / "filterbank.json").read_text())
        rate, data = wavfile.read(self.d / "out" / "filterbank.wav")
        n = sidecar["n_mics"]
        taps = np.stack([data[:, :n].T, data[:, n:].T]).astype(float)
        return rendering.BinauralFilterBank(
            taps=taps, sample_rate=float(rate), delay_samples=sidecar["delay_samples"],
            band=tuple(sidecar["band"]), geometry_hash=sidecar["geometry_hash"])

    def final_checks(self):
        """Bank response against the analytic truth; convolution reference."""
        bank = self.load_bank()
        nfft = bank.nfft
        freqs = np.arange(nfft // 2 + 1) * SAMPLE_RATE / nfft
        lo, hi = self.spec["band"]
        bins = np.nonzero((freqs >= lo) & (freqs <= hi))[0]
        bins = bins[:: -(-bins.size // QUALITY_BINS)]  # evenly spaced subset
        # rfft of the taps with the nfft/2 circular delay removed
        resp = np.fft.rfft(bank.taps, axis=2)[:, :, bins] * np.where(bins % 2, -1.0, 1.0)
        scene = simulate.Scene(
            sources=tuple(simulate.PointSource(np.asarray(s)) for s in self.inputs["sources"]),
            freqs=freqs[bins], sound_speed=SOUND_SPEED)
        obs = simulate.simulate_observation(scene, arrays.load_geometry(self.d / "geom.json"))
        est = np.einsum("emb,bm->be", resp, obs)
        head_scene = _head_scene(self.inputs["sources"], freqs[bins],
                                 self.inputs["position"], self.inputs["euler_deg"])
        true = simulate.true_binaural(head_scene, hrtf.SyntheticHead(radius=self.inputs["head_radius"]))
        nmse_db, sd_db = _quality(est, true)
        checks = {"nmse_db": nmse_db, "sd_db": sd_db,
                  "nmse_ok": nmse_db <= NMSE_BOUND_DB[self.workload]}
        if self.noise is not None:
            ref = sum(fftconvolve(self.bank.taps[:, i, :], self.noise[i][None, :].astype(float), axes=1)
                      for i in range(self.noise.shape[0]))
            err = np.max(np.abs(self.convolved - ref)) / np.max(np.abs(ref))
            checks["convolve_rel_err"] = float(err)
            checks["convolve_ok"] = bool(err < CONVOLVE_RTOL)
        return checks


class HeadTrack:
    """Head-tracked rendering through ``rendering.render_full``."""

    def __init__(self, d):
        self.inputs = json.loads((d / "inputs.json").read_text())
        self.geom = arrays.load_geometry(d / "geom.json")
        self.freqs = simulate.band_freqs(*TRACK_BAND)
        self.ks = 2.0 * math.pi * self.freqs / SOUND_SPEED
        self.orders = [metrics.truncation_order(k) for k in self.ks]
        self.head = hrtf.SyntheticHead(radius=self.inputs["head_radius"])
        scene = simulate.Scene(
            sources=tuple(simulate.PointSource(np.asarray(s)) for s in self.inputs["sources"]),
            freqs=self.freqs, sound_speed=SOUND_SPEED)
        self.obs = simulate.simulate_observation(scene, self.geom)
        self.spectrum = hrtf.rigid_sphere_hrtf_spectrum(
            self.head, self.freqs, MEASURE_RADIUS, max(self.orders), SAMPLE_RATE, SOUND_SPEED)
        self.trajectory = self.inputs["trajectory"]
        self.build_estimators()
        self.samples = []

    def build_estimators(self):
        self.estimators = [estimation.Estimator(self.geom, k) for k in self.ks]

    def warm_up(self):
        start = self.trajectory["start"]
        self.render(start["position"], start["euler_deg"])

    def render(self, position, euler_deg, composed=False):
        fn = rendering.render_composed if composed else rendering.render_full
        pos = np.asarray(position, dtype=float)
        angles = _angles(euler_deg)
        out = np.empty((self.freqs.size, 2), dtype=complex)
        for i, est in enumerate(self.estimators):
            out[i] = fn(self.obs[i], est, pos, angles, self.spectrum.at_index(i),
                        "sph", MEASURE_RADIUS, self.orders[i])
        return out

    def check(self, update, y, index):
        if not np.all(np.isfinite(y)):
            return False
        if index % TRACK_CHECK_EVERY != TRACK_CHECK_EVERY - 1:
            return True
        ref = self.render(update["position"], update["euler_deg"], composed=True)
        close = np.max(np.abs(y - ref)) <= COMPOSED_RTOL * np.max(np.abs(ref))
        true = simulate.true_binaural(
            _head_scene(self.inputs["sources"], self.freqs, update["position"], update["euler_deg"]),
            self.head)
        self.samples.append(_quality(y, true))
        return bool(close)

    def final_checks(self):
        nmse_db = float(np.mean([s[0] for s in self.samples]))
        return {"nmse_db": nmse_db, "sd_db": float(np.mean([s[1] for s in self.samples])),
                "nmse_ok": nmse_db <= NMSE_BOUND_DB["head-track"], "quality_samples": len(self.samples)}


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------

class Runner:
    """Closed loop, one client: each operation starts when the last ended."""

    def __init__(self):
        self.samples = {"op": [], "op2": []}
        self.attempted = 0
        self.failed = 0
        self.tracer = None  # set for the traced operations

    def timed(self, kind, fn, check):
        """Time one operation in ms; a raised error or a failed check fails it."""
        if self.tracer is not None:
            self.tracer.op = f"op:{self.attempted}"
        self.attempted += 1
        try:
            t = time.perf_counter()
            result = fn()
            dt = time.perf_counter() - t
            if self.tracer is not None:
                self.tracer.op = tracing.CHECK_OP
            ok = check(result)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return 0.0
        if not ok:
            print(f"check failed: {kind} operation {self.attempted}", file=sys.stderr)
            self.failed += 1
        self.samples[OP_NAMES[kind]].append(dt * 1e3)
        return dt

    def bank_ops(self, bank, kinds):
        return sum(self.timed(kind, lambda: bank.run(kind), lambda _: bank.check(kind))
                   for kind in kinds)

    def track_updates(self, track, updates):
        return sum(self.timed(u["kind"], lambda: track.render(u["position"], u["euler_deg"]),
                              lambda y: track.check(u, y, i))
                   for i, u in enumerate(updates))


def _new_session(track):
    """Fresh estimators (empty caches) at the start pose, untimed."""
    track.build_estimators()
    track.warm_up()


def _environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas_version = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = Path(cli.__file__).resolve().parent.parent
    loc = sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_version,
            "pinned_blas_threads": PINNED_BLAS_THREADS, "bin_workers": list(WORKER_COUNTS),
            "src_lines": loc}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args):
    d = Path(args.dir)
    tracer = None
    restore = None
    if args.trace:
        tracer = tracing.Tracer()
        restore = tracing.instrument(tracer, _modules())
    if args.workload in BANKS:
        work = Bank(args.workload, d)
    else:
        work = HeadTrack(d)
    if tracer is not None:
        tracer.op = "warmup"
    work.warm_up()
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    if args.mode == "setup":
        return {"setup_s": setup_s}

    runner = Runner()
    result = {"setup_s": setup_s}
    if args.trace:
        # the same operations untraced, then traced: the difference is the
        # tracing overhead
        restore()
        if isinstance(work, Bank):
            kinds = [k for k in dict.fromkeys(work.spec["cycle"]) if k != "filters2"]
            untraced = runner.bank_ops(work, kinds)
            restore = tracing.instrument(tracer, _modules())
            runner.tracer = tracer
            traced = runner.bank_ops(work, kinds)
        else:
            updates = work.trajectory["updates"][: 2 * TRACK_TRACED]
            _new_session(work)
            untraced = runner.track_updates(work, updates)
            _new_session(work)
            restore = tracing.instrument(tracer, _modules())
            runner.tracer = tracer
            traced = runner.track_updates(work, updates)
        tracer.op = tracing.CHECK_OP
    else:
        t_start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - t_start < args.seconds:
            if isinstance(work, Bank):
                runner.bank_ops(work, work.spec["cycle"])
            else:
                # each pass replays the trajectory in a fresh session, so
                # memory stays that of one pass however fast the updates are
                if passes:
                    _new_session(work)
                runner.track_updates(work, work.trajectory["updates"])
            passes += 1
        result["measured_s"] = time.perf_counter() - t_start
    result["peak_rss_mb"] = _peak_rss_mb()

    checks = work.final_checks()
    if not all(v for k, v in checks.items() if k.endswith("_ok")):
        print(f"final check failed: {checks}", file=sys.stderr)
        runner.failed += 1
    runner.attempted += 1
    if args.trace:
        restore()
        tracer.write(d / "spans.jsonl")
        result["layers"] = tracing.layer_metrics(tracer.spans, traced - untraced)
        result["spans"] = len(tracer.spans)
    result.update(samples=runner.samples, attempted=runner.attempted, failed=runner.failed,
                  checks=checks, env=_environment())
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=["gen", "setup", "measure"])
    p.add_argument("--workload", required=True, choices=sorted(BANKS) + ["head-track"])
    p.add_argument("--dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--t0", type=int, default=0)
    p.add_argument("--result")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    if args.mode == "gen":
        generate(args.workload, args.seed, Path(args.dir))
        return 0
    result = run(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
