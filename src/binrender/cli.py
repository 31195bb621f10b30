"""Command-line front end: geometry, simulate, estimate, render, filters,
evaluate.

Every command validates its whole configuration before computing, writes
deterministic outputs (no wall-clock anywhere), and drops a manifest JSON
holding the config hash, library version, and content hashes of the files
it produced. Exit codes: 0 ok, 1 configuration/user error, 2 internal
error. Parallelism across frequency bins follows the BINRENDER_WORKERS
environment variable; results are reduced in a fixed order so outputs are
byte-identical for any worker count.
"""

import hashlib
import json
import math
import os
import sys
from importlib import metadata
from pathlib import Path

import click
import numpy as np
from scipy.io import wavfile

from . import bundleio
from .arrays import (
    build_composite_array,
    build_rigid_sphere_array,
    build_small_array,
    geometry_from_json,
    geometry_to_json,
    load_geometry,
)
from .estimation import Estimator, rigid_sphere_estimate
from .hrtf import SyntheticHead, rigid_sphere_hrtf_spectrum
from .metrics import (
    BinauralPair,
    average_nmse,
    ild,
    itd,
    nmse,
    spectral_distortion,
    truncation_order,
    write_metric_report,
)
from .rendering import bin_rows, save_filter_bank, synth_fir_filters
from .simulate import PointSource, Scene, band_freqs, simulate_observation, true_binaural
from .special import EulerAngles
from .utils import ordered_map


class ConfigError(Exception):
    """User-facing configuration problem (exit code 1)."""


def _workers():
    try:
        return max(1, int(os.environ.get("BINRENDER_WORKERS", "1")))
    except ValueError:
        return 1


def _library_version():
    try:
        return metadata.version("binrender")
    except metadata.PackageNotFoundError:
        return "unknown"


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write_manifest(out_dir, command, config_doc, outputs, seed=0):
    manifest = {
        "command": command,
        "config_hash": hashlib.sha256(_canonical(config_doc).encode()).hexdigest(),
        "library_version": _library_version(),
        "seed": seed,
        "outputs": {Path(p).name: _sha256(p) for p in outputs},
    }
    path = Path(out_dir) / f"manifest_{command}.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return path


# ---------------------------------------------------------------------------
# Config parsing / validation
# ---------------------------------------------------------------------------

def _load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def parse_scene(doc) -> Scene:
    if "freqs" in doc:
        freqs = np.asarray(doc["freqs"], dtype=float)
    elif "band" in doc:
        lo, hi, step = doc["band"]
        freqs = band_freqs(lo, hi, step)
    else:
        raise ConfigError("scene needs 'freqs' or 'band'")
    sources = []
    for s in doc.get("sources", []):
        spectrum = s.get("spectrum", "flat")
        if spectrum == "flat":
            spec = None
        else:
            spec = np.array([complex(re, im) for re, im in spectrum])
            if spec.size != freqs.size:
                raise ConfigError("source spectrum length must match the frequency grid")
        sources.append(PointSource(np.asarray(s["pos"], dtype=float), spec))
    try:
        return Scene(sources=tuple(sources), freqs=freqs,
                     sound_speed=float(doc.get("sound_speed", 346.2)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


class RunConfig:
    """Validated run configuration; all paths checked before any compute."""

    def __init__(self, doc, base_dir):
        if doc.get("version") != 1:
            raise ConfigError("config must carry \"version\": 1")
        self.doc = doc
        base = Path(base_dir)

        scene_ref = doc.get("scene")
        if scene_ref is None:
            raise ConfigError("config needs a 'scene' (path or inline object)")
        self.scene_doc = _load_json(base / scene_ref) if isinstance(scene_ref, str) else scene_ref
        self.scene = parse_scene(self.scene_doc)

        geom_ref = doc.get("geometry")
        if geom_ref is None:
            raise ConfigError("config needs a 'geometry' path")
        geom_path = base / geom_ref
        if not geom_path.exists():
            raise ConfigError(f"geometry file not found: {geom_path}")
        self.geometry = load_geometry(geom_path)

        est = doc.get("estimator", {})
        self.lam = est.get("lambda", "auto")
        self.eta = est.get("eta", "auto")
        self.order = est.get("order", "auto")
        if self.lam != "auto" and float(self.lam) < 0:
            raise ConfigError("estimator lambda must be non-negative")

        rnd = doc.get("render", {})
        self.mode = rnd.get("mode", "sph")
        if self.mode not in ("sph", "pln"):
            raise ConfigError(f"render mode must be sph or pln, got {self.mode!r}")
        self.nfft = int(rnd.get("nfft", 4096))
        self.window = rnd.get("window", "tukey")
        self.band = tuple(rnd.get("band", (100.0, 1600.0)))
        self.sample_rate = float(rnd.get("sample_rate", 48000.0))
        self.order_cap = int(rnd.get("order_cap", 35))
        self.shoulder_radius = float(rnd.get("shoulder_radius", 0.45))
        self.wav_duration = float(rnd.get("wav_duration", 0.25))
        self.wav_gain = float(rnd.get("wav_gain", 1.0))

        listener = doc.get("listener", {})
        self.listener_position = np.asarray(listener.get("position", [0.0, 0.0, 0.0]), dtype=float)
        deg = listener.get("euler_deg", [0.0, 0.0, 0.0])
        self.angles = EulerAngles(*(math.radians(a) for a in deg))

        hrtf_ref = doc.get("hrtf")
        self.hrtf_set = None
        self.synthetic_head = None
        if isinstance(hrtf_ref, dict) and "synthetic" in hrtf_ref:
            syn = hrtf_ref["synthetic"]
            az = syn.get("ear_azimuths_deg", [90.0, -90.0])
            self.synthetic_head = SyntheticHead(
                radius=float(syn.get("head_radius", 0.0875)),
                ear_azimuths=(math.radians(az[0]), math.radians(az[1])),
            )
            self.measure_radius = float(syn.get("measure_radius", 1.5))
        elif isinstance(hrtf_ref, str):
            try:
                self.hrtf_set = bundleio.load_hrtf_bundle(base / hrtf_ref)
            except FileNotFoundError as exc:
                raise ConfigError(f"HRTF bundle not found: {base / hrtf_ref}") from exc
            self.measure_radius = self.hrtf_set.radius
        elif hrtf_ref is not None:
            raise ConfigError("hrtf must be a bundle path or {\"synthetic\": {...}}")

        self.out_dir = Path(base / doc.get("output_dir", "out"))
        self.seed = int(doc.get("seed", 0))

    def require_hrtf(self):
        if self.hrtf_set is None and self.synthetic_head is None:
            raise ConfigError("this command needs an 'hrtf' entry in the config")

    def spectrum_at(self, freqs):
        """HRTF SH spectrum on the given frequency grid."""
        from .hrtf import fit_sh

        k_max = 2.0 * math.pi * np.max(freqs) / self.scene.sound_speed
        order = truncation_order(k_max, self.shoulder_radius, self.order_cap)
        if self.synthetic_head is not None:
            return rigid_sphere_hrtf_spectrum(
                self.synthetic_head, freqs, self.measure_radius, order,
                sample_rate=self.sample_rate, sound_speed=self.scene.sound_speed)
        order = min(order, math.isqrt(self.hrtf_set.n_directions) - 1)
        spec = fit_sh(self.hrtf_set, order)
        return spec


def _render_responses(cfg: RunConfig, observations):
    """Per-frequency binaural responses (F, 2) through the estimator chain."""
    freqs = cfg.scene.freqs
    spectrum = cfg.spectrum_at(freqs)

    def one(fi):
        rows = bin_rows(cfg.geometry, freqs[fi], cfg.listener_position, cfg.angles, spectrum,
                        cfg.mode, cfg.lam, cfg.order_cap, cfg.shoulder_radius,
                        cfg.scene.sound_speed)
        return rows @ observations[fi]

    return np.array(ordered_map(one, range(freqs.size), _workers()))


def _multitone_wav(freqs, responses, sample_rate, duration, gain):
    """Deterministic multitone realization of per-frequency responses."""
    t = np.arange(int(round(duration * sample_rate))) / sample_rate
    out = np.zeros((t.size, 2), dtype=np.float32)
    for fi, f in enumerate(freqs):
        phasor = np.exp(1j * 2.0 * math.pi * f * t)
        for ear in (0, 1):
            out[:, ear] += (gain * np.real(responses[fi, ear] * phasor)).astype(np.float32)
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@click.group()
def cli():
    """Binaural rendering from microphone array recordings."""


@cli.command()
@click.option("--kind", type=click.Choice(["small", "composite", "rigid-sphere"]), default=None)
@click.option("--center", default="0,0,0", show_default=True, help="Array center x,y,z in meters.")
@click.option("--yaw-deg", default=0.0, show_default=True)
@click.option("--radius", default=None, type=float, help="Small-array or baffle radius in meters.")
@click.option("--beta", default=0.5, show_default=True, help="Cardioid directivity parameter.")
@click.option("--out", "out_path", default=None, help="Write geometry JSON here.")
@click.option("--validate", "validate_path", default=None, help="Validate an existing geometry file.")
def geometry(kind, center, yaw_deg, radius, beta, out_path, validate_path):
    """Emit or validate array geometry files."""
    if validate_path is not None:
        doc = Path(validate_path).read_text()
        geom = geometry_from_json(doc)
        if geometry_to_json(geom) != doc:
            raise ConfigError("geometry file is not in canonical form (round trip differs)")
        click.echo(f"ok: {geom.n_mics} microphones"
                   + (", rigid baffle" if geom.baffle is not None else ""))
        return
    if kind is None or out_path is None:
        raise ConfigError("need --kind and --out (or --validate)")
    try:
        ctr = tuple(float(x) for x in center.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --center {center!r}") from exc
    if kind == "small":
        geom = build_small_array(ctr, math.radians(yaw_deg), radius or 0.015, beta)
    elif kind == "composite":
        geom = build_composite_array(ctr, beta)
    else:
        geom = build_rigid_sphere_array(ctr, radius or 0.145)
    Path(out_path).write_text(geometry_to_json(geom))
    click.echo(f"wrote {out_path} ({geom.n_mics} microphones)")


@cli.command("hrtf-import")
@click.argument("csv_path", type=click.Path())
@click.option("--radius", type=float, required=True, help="Measurement sphere radius in meters.")
@click.option("--sample-rate", type=float, default=48000.0, show_default=True)
@click.option("--out", "out_base", required=True, help="Output bundle base path.")
def hrtf_import(csv_path, radius, sample_rate, out_base):
    """Convert a hand-made HRTF CSV into a bundle (JSON header + binary blob)."""
    from .hrtf import read_hrtf_csv

    try:
        hrtf_set = read_hrtf_csv(csv_path, radius=radius, sample_rate=sample_rate)
    except FileNotFoundError as exc:
        raise ConfigError(f"CSV not found: {csv_path}") from exc
    base = bundleio.save_hrtf_bundle(out_base, hrtf_set)
    click.echo(f"wrote {base}.json/.bin ({hrtf_set.n_directions} directions, "
               f"{hrtf_set.freqs.size} frequencies)")


def _config_arg(fn):
    return click.argument("config_path", type=click.Path())(fn)


def _estimator_flags(fn):
    """Estimator overrides; flag values take precedence over the config file."""
    fn = click.option("--lam", "--lambda", "lam", default=None,
                      help="Distributed-estimator ridge (overrides config).")(fn)
    fn = click.option("--eta", default=None,
                      help="Rigid-sphere estimator ridge (overrides config).")(fn)
    fn = click.option("--order", default=None,
                      help="Truncation order, or 'auto' (overrides config).")(fn)
    return fn


def _parse_reg(value, name):
    if value is None or value == "auto":
        return value
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"--{name} must be a number or 'auto'") from exc


def _load_config(config_path, lam=None, eta=None, order=None):
    doc = _load_json(config_path)
    cfg = RunConfig(doc, Path(config_path).resolve().parent)
    if lam is not None:
        cfg.lam = _parse_reg(lam, "lam")
    if eta is not None:
        cfg.eta = _parse_reg(eta, "eta")
    if order is not None:
        cfg.order = order if order == "auto" else int(order)
    return cfg


@cli.command()
@_config_arg
def simulate(config_path):
    """Simulate microphone observations for the configured scene."""
    cfg = _load_config(config_path)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    freqs = cfg.scene.freqs
    obs = simulate_observation(cfg.scene, cfg.geometry)
    base = bundleio.save_observation_bundle(
        cfg.out_dir / "observation", freqs, obs,
        geometry_hash=cfg.geometry.content_hash())
    outputs = [base.with_suffix(".json"), base.with_suffix(".bin")]
    manifest = _write_manifest(cfg.out_dir, "simulate", cfg.doc, outputs, cfg.seed)
    click.echo(f"wrote {base}.json/.bin and {manifest.name}")


@cli.command()
@_config_arg
@_estimator_flags
@click.option("--observations", default=None,
              help="Observation bundle base path (default: output_dir/observation).")
def estimate(config_path, lam, eta, order, observations):
    """Estimate expansion coefficients at the listener position per frequency."""
    cfg = _load_config(config_path, lam, eta, order)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    obs_base = Path(observations) if observations else cfg.out_dir / "observation"
    freqs, obs = bundleio.load_observation_bundle(obs_base)
    if obs.shape[1] != cfg.geometry.n_mics:
        raise ConfigError("observation bundle does not match the geometry's microphone count")

    def one(fi):
        k = 2.0 * math.pi * freqs[fi] / cfg.scene.sound_speed
        order = (truncation_order(k, cfg.shoulder_radius, cfg.order_cap)
                 if cfg.order == "auto" else int(cfg.order))
        if cfg.geometry.baffle is not None:
            # truncated estimator needs I >= (order+1)^2
            if cfg.order == "auto":
                order = min(order, math.isqrt(cfg.geometry.n_mics) - 1)
            alpha = rigid_sphere_estimate(obs[fi], cfg.geometry, k, order, cfg.eta)
        else:
            alpha = Estimator(cfg.geometry, k, cfg.lam).coeffs(
                obs[fi], cfg.listener_position, order)
        return order, alpha.coeffs

    results = ordered_map(one, range(freqs.size), _workers())
    orders = [r[0] for r in results]
    flat = np.concatenate([r[1] for r in results])
    header = {
        "kind": "coefficients",
        "layout": "concatenated per-frequency (order+1)^2 blocks",
        "freqs": [float(f) for f in freqs],
        "orders": orders,
        "center": [float(x) for x in cfg.listener_position],
    }
    base = bundleio.write_bundle(cfg.out_dir / "coefficients", header, flat)
    outputs = [base.with_suffix(".json"), base.with_suffix(".bin")]
    manifest = _write_manifest(cfg.out_dir, "estimate", cfg.doc, outputs, cfg.seed)
    click.echo(f"wrote {base}.json/.bin and {manifest.name}")


@cli.command()
@_config_arg
@_estimator_flags
@click.option("--observations", default=None)
def render(config_path, lam, eta, order, observations):
    """Render per-frequency binaural responses (CSV) and a multitone WAV."""
    cfg = _load_config(config_path, lam, eta, order)
    cfg.require_hrtf()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    obs_base = Path(observations) if observations else cfg.out_dir / "observation"
    freqs, obs = bundleio.load_observation_bundle(obs_base)
    responses = _render_responses(cfg, obs)

    csv_path = cfg.out_dir / "binaural_response.csv"
    with open(csv_path, "w") as f:
        f.write("freq_hz,left_re,left_im,right_re,right_im\n")
        for fi, f_hz in enumerate(freqs):
            left, right = responses[fi]
            f.write(f"{f_hz:.6f},{left.real:.12e},{left.imag:.12e},"
                    f"{right.real:.12e},{right.imag:.12e}\n")

    wav_path = cfg.out_dir / "binaural.wav"
    data = _multitone_wav(freqs, responses, cfg.sample_rate, cfg.wav_duration, cfg.wav_gain)
    wavfile.write(wav_path, int(cfg.sample_rate), data)

    manifest = _write_manifest(cfg.out_dir, "render", cfg.doc, [csv_path, wav_path], cfg.seed)
    click.echo(f"wrote {csv_path.name}, {wav_path.name} and {manifest.name}")


@cli.command()
@_config_arg
@_estimator_flags
def filters(config_path, lam, eta, order):
    """Synthesize and export the MIMO FIR binaural filter bank."""
    cfg = _load_config(config_path, lam, eta, order)
    cfg.require_hrtf()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    nyq_freqs = np.arange(1, cfg.nfft // 2 + 1) * cfg.sample_rate / cfg.nfft
    spectrum = cfg.spectrum_at(nyq_freqs[(nyq_freqs >= cfg.band[0]) & (nyq_freqs <= cfg.band[1])])
    bank = synth_fir_filters(
        cfg.geometry, cfg.listener_position, cfg.angles, spectrum,
        cfg.band, cfg.nfft, cfg.sample_rate, mode=cfg.mode, lam=cfg.lam,
        window=cfg.window, order_cap=cfg.order_cap,
        shoulder_radius=cfg.shoulder_radius, sound_speed=cfg.scene.sound_speed,
        workers=_workers())
    base = save_filter_bank(bank, cfg.out_dir / "filterbank")
    outputs = [base.with_suffix(".wav"), base.with_suffix(".json")]
    manifest = _write_manifest(cfg.out_dir, "filters", cfg.doc, outputs, cfg.seed)
    click.echo(f"wrote {base}.wav/.json and {manifest.name}")


@cli.command()
@_config_arg
@_estimator_flags
@click.option("--observations", default=None)
def evaluate(config_path, lam, eta, order, observations):
    """Compare rendered binaural responses against the analytic ground truth."""
    cfg = _load_config(config_path, lam, eta, order)
    cfg.require_hrtf()
    if cfg.synthetic_head is None and cfg.hrtf_set is None:
        raise ConfigError("evaluate needs a synthetic head or HRTF set as reference")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    obs_base = Path(observations) if observations else cfg.out_dir / "observation"
    freqs, obs = bundleio.load_observation_bundle(obs_base)
    responses = _render_responses(cfg, obs)
    reference = true_binaural(
        cfg.scene, cfg.synthetic_head if cfg.synthetic_head is not None else cfg.hrtf_set,
        cfg.listener_position)

    pos = ";".join(f"{x:.6g}" for x in cfg.listener_position)
    rows = []
    for ear, name in ((0, "L"), (1, "R")):
        per_bin = nmse(responses[:, ear], reference[:, ear])
        for fi, f in enumerate(freqs):
            rows.append({"position": pos, "azimuth_deg": "", "frequency_or_band": f"{f:g}",
                         "metric": f"nmse_{name}_db", "value": f"{per_bin[fi]:.6f}",
                         "excluded_bins": 0})
        avg = average_nmse(responses[:, ear], reference[:, ear])
        band = f"{freqs[0]:g}-{freqs[-1]:g}"
        rows.append({"position": pos, "azimuth_deg": "", "frequency_or_band": band,
                     "metric": f"nmse_{name}_avg_db", "value": f"{avg.db:.6f}",
                     "excluded_bins": avg.excluded_bins})
        sd = spectral_distortion(responses[:, ear], reference[:, ear], normalize=True)
        rows.append({"position": pos, "azimuth_deg": "", "frequency_or_band": band,
                     "metric": f"sd_{name}_db", "value": f"{sd.db:.6f}",
                     "excluded_bins": sd.excluded_bins})
    est_wav = _multitone_wav(freqs, responses, cfg.sample_rate, cfg.wav_duration, 1.0)
    ref_wav = _multitone_wav(freqs, reference, cfg.sample_rate, cfg.wav_duration, 1.0)
    for name, sig in (("estimated", est_wav), ("true", ref_wav)):
        pair = BinauralPair(sig.T.astype(float), cfg.sample_rate)
        rows.append({"position": pos, "azimuth_deg": "", "frequency_or_band": "time",
                     "metric": f"itd_{name}_s", "value": f"{itd(pair):.9f}", "excluded_bins": 0})
        rows.append({"position": pos, "azimuth_deg": "", "frequency_or_band": "time",
                     "metric": f"ild_{name}_db", "value": f"{ild(pair):.6f}", "excluded_bins": 0})

    report = cfg.out_dir / "metrics.csv"
    write_metric_report(report, rows)
    manifest = _write_manifest(cfg.out_dir, "evaluate", cfg.doc, [report], cfg.seed)
    click.echo(f"wrote {report.name} and {manifest.name}")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except (ConfigError, click.UsageError, click.ClickException, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except Exception as exc:  # pragma: no cover - internal failures
        click.echo(f"internal error: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
