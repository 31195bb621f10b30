"""Command-line front end: geometry, hrtf-import, simulate, estimate, render,
filters, evaluate.

Every command checks its inputs (the config; an observation bundle against the
geometry and frequency grid) before computing and writes deterministic outputs
(no wall-clock anywhere). The five data commands write theirs in one output
step, which drops a manifest JSON holding the config hash, library version,
and content hashes of exactly the files written. Every path the CLI reads or
writes that is missing, unreadable, a directory or not writable exits 1 and
names the path, and output_dir is checked before any computation. Exit codes:
0 ok, 1 configuration/user error, 2 internal error: every check on user input
raises ConfigError, so a ValueError escaping the library is an internal error.
"""

import hashlib
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource
from scipy.io import wavfile

from . import __version__, arrays, bundleio, hrtf, metrics
from .arrays import (
    build_composite_array,
    build_rigid_sphere_array,
    build_small_array,
    geometry_from_json,
    geometry_to_json,
    load_geometry,
)
from .estimation import PsiGrid, XiGrid, rigid_sphere_estimate
from .hrtf import HrtfSet, SyntheticHead, rigid_sphere_hrtf_spectrum
from .metrics import (
    ITD_MAX_LAG_S,
    BinauralPair,
    average_nmse,
    ild,
    itd,
    nmse,
    spectral_distortion,
    truncation_order,
    write_metric_report,
)
from .rendering import fft_grid, grid_rows, is_wav_rate, save_filter_bank, synth_fir_filters
from .simulate import PointSource, Scene, band_freqs, simulate_observation, true_binaural
from .special import EulerAngles


class ConfigError(Exception):
    """User-facing configuration problem (exit code 1)."""


@contextmanager
def _user_file(what, path, parsed=True):
    """The one path step of every file the user names: an OSError on it is a
    user error naming ``what`` and the file that failed (for a bundle, its
    .json or .bin), and so is a ValueError while a ``parsed`` input is read."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{what} {exc.filename or path}: {exc.strerror or exc}") from exc
    except (ValueError if parsed else ()) as exc:
        raise ConfigError(f"{what} {path}: {exc}") from exc


@contextmanager
def _output_step(cfg, command, *names):
    """The one output step of every data command: it creates output_dir and
    yields it for the command to write the files ``names`` into, then writes
    the manifest hashing exactly those files and prints one report line. A
    command that fails inside it leaves no manifest; an OSError is the user's."""
    with _user_file("output_dir", cfg.out_dir, parsed=False):
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        yield cfg.out_dir
        canonical = json.dumps(cfg.doc, sort_keys=True, separators=(",", ":"))
        manifest = {
            "command": command,
            "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
            "library_version": __version__,
            "seed": cfg.seed,
            "outputs": {name: hashlib.sha256((cfg.out_dir / name).read_bytes()).hexdigest()
                        for name in names},
        }
        if cfg.flags:  # estimator flags change outputs the config hash does not cover
            manifest["flags"] = cfg.flags
        path = cfg.out_dir / f"manifest_{command}.json"
        path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    click.echo(f"wrote {', '.join(names)} and {path.name} in {cfg.out_dir}")


# ---------------------------------------------------------------------------
# Config parsing / validation
# ---------------------------------------------------------------------------

def _load_json(what, path):
    with _user_file(what, path):  # a ValueError: not JSON, or not text
        return json.loads(Path(path).read_text())


def _positive(x):
    return 0 < x < math.inf


def _pairs(value):
    return all(isinstance(p, list) and len(p) == 2 and all(type(v) in (int, float) for v in p)
               for p in value)


# section -> key -> (default, kind), or (default, kind, check, requirement the
# check states). kind is str, int, float or list (a JSON value of that type; a
# whole float is an int) or a count n (a list of n finite numbers). A string
# default of a key of another kind, such as "auto", also admits that string; a
# default of None makes the key required. A row of None is a key its section's
# own code reads: a nested object, a path or object, or the scene's grid.
_KEYS = {
    "config": {"version": (None, int, lambda v: v == 1, "1"), "scene": None,
               "geometry": (None, str), "hrtf": None,
               "estimator": None, "render": None, "listener": None,
               "output_dir": ("out", str), "seed": (0, int)},
    "estimator": {
        "lambda": ("auto", float, lambda x: 0 <= x < math.inf, "a finite number >= 0"),
        "eta": ("auto", float, lambda x: 0 <= x < math.inf, "a finite number >= 0"),
        "order": ("auto", int, lambda n: n >= 0, "an integer >= 0"),
    },
    "render": {  # band and wav_duration are checked against sample_rate after the table
        "mode": ("sph", str, lambda v: v in ("sph", "pln"), "sph or pln"),
        "nfft": (4096, int, lambda n: n >= 2 and not n & (n - 1), "a power of two >= 2"),
        "window": ("tukey", str, lambda v: v in ("tukey", "boxcar"), "tukey or boxcar"),
        "band": ([100.0, 1600.0], 2),
        "sample_rate": (hrtf.SAMPLE_RATE, float, is_wav_rate, f"a whole number from 1 to {2**32 - 1}"),
        "order_cap": (metrics.ORDER_CAP, int, lambda n: n >= 0, ">= 0"),
        "shoulder_radius": (metrics.SHOULDER_RADIUS, float, _positive, "positive"),
        "wav_duration": (0.25, float, _positive, "positive"),
        "wav_gain": (1.0, float, math.isfinite, "finite"),
    },
    "listener": {"position": ([0.0, 0.0, 0.0], 3), "euler_deg": ([0.0, 0.0, 0.0], 3)},
    "hrtf": {"synthetic": None},
    # 0 < head_radius < measure_radius is checked after the table
    "hrtf.synthetic": {"head_radius": (hrtf.HEAD_RADIUS, float),
                       "ear_azimuths_deg": (list(hrtf.EAR_AZIMUTHS_DEG), 2),
                       "measure_radius": (1.5, float)},
    "scene": {"freqs": None, "band": (None, 3), "sources": ([], list),
              "sound_speed": (hrtf.SOUND_SPEED, float, _positive, "positive")},
    "scene.sources": {"pos": (None, 3),
                      "spectrum": ("flat", list, _pairs, "[re, im] pairs")},
}


def _section(doc, section):
    """``doc`` itself, after checking it is an object holding only ``section``'s keys."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{section} must be a JSON object")
    unknown = sorted(set(doc) - set(_KEYS[section]))
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(unknown)}")
    return doc


def _value(doc, section, key, name=None):
    """``doc[key]`` (or the key's default) as ``section``'s row for ``key`` asks.
    A value of another JSON type, or one that fails the row's check, is a user
    error naming ``name``: the dotted key unless a flag gave the value."""
    default, kind, *check = _KEYS[section][key]
    value = doc.get(key, default)
    name = name or (key if section == "config" else f"{section}.{key}")
    literal = isinstance(default, str) and kind is not str
    auto = f"{json.dumps(default)} or " if literal else ""
    if literal and value == default:
        return value
    if kind is str:
        expected, typed = "a string", isinstance(value, str)
    elif kind is list:
        expected, typed = "a list", isinstance(value, list)
    elif type(kind) is int:
        expected = f"a list of {('two', 'three')[kind - 2]} finite numbers"
        typed = (isinstance(value, list) and len(value) == kind
                 and all(type(v) in (int, float) and math.isfinite(v) for v in value))
    else:
        expected = "an integer" if kind is int else "a number"
        typed = type(value) is int or (type(value) is float and (kind is float or value.is_integer()))
    try:
        if not typed:
            raise TypeError
        value = tuple(value) if type(kind) is int else kind(value)
    except (TypeError, OverflowError) as exc:  # OverflowError: an int too large for a float
        raise ConfigError(f"{name} must be {auto}{expected}, got {json.dumps(value)}") from exc
    if check and not check[0](value):
        raise ConfigError(f"{name} must be {auto}{check[1]}, got {json.dumps(value)}")
    return value


def parse_scene(doc) -> Scene:
    _section(doc, "scene")
    try:
        if "freqs" in doc:
            grid = "freqs"
            freqs = np.asarray(doc["freqs"], dtype=float)
        elif "band" in doc:
            grid = "band"
            try:
                freqs = band_freqs(*_value(doc, "scene", "band"))
            except ValueError as exc:  # a descending band or a step <= 0
                raise ConfigError(f"scene.band: {exc}") from exc
        else:
            raise ConfigError("scene needs 'freqs' or 'band'")
        if (freqs.ndim != 1 or freqs.size == 0 or not np.all(np.isfinite(freqs))
                or any(type(f) not in (int, float) for f in doc.get("freqs", ()))):
            raise ConfigError(f"scene.{grid} must give a non-empty list of finite frequencies, "
                              f"got {json.dumps(doc[grid])}")
        sources = []
        for s in _value(doc, "scene", "sources"):
            _section(s, "scene.sources")
            pos = np.asarray(_value(s, "scene.sources", "pos"), dtype=float)
            spectrum = _value(s, "scene.sources", "spectrum")
            if spectrum == "flat":
                spec = None
            else:
                spec = np.array([complex(re, im) for re, im in spectrum])
                if spec.size != freqs.size:
                    raise ConfigError("source spectrum length must match the frequency grid")
            sources.append(PointSource(pos, spec))
        return Scene(sources=tuple(sources), freqs=freqs,
                     sound_speed=_value(doc, "scene", "sound_speed"))
    except (TypeError, ValueError) as exc:  # a wrong JSON type, or a value that does not convert
        raise ConfigError(f"scene: {exc}") from exc


class RunConfig:
    """Validated run configuration; all paths checked before any compute. The
    text of a ``lam``/``eta``/``order`` flag replaces its ``estimator`` value."""

    def __init__(self, doc, base_dir, **flags):
        _section(doc, "config")
        _value(doc, "config", "version")
        self.doc = doc
        base = Path(base_dir)

        scene_ref = doc.get("scene")
        if scene_ref is None:
            raise ConfigError("config needs a 'scene' (path or inline object)")
        self.scene_doc = _load_json("scene", base / scene_ref) if isinstance(scene_ref, str) else scene_ref
        self.scene = parse_scene(self.scene_doc)

        geom_path = base / _value(doc, "config", "geometry")
        with _user_file("geometry file", geom_path):
            self.geometry = load_geometry(geom_path)

        est = _section(doc.get("estimator", {}), "estimator")
        self.flags = {}  # the checked value of each estimator flag given
        for attr, key in (("lam", "lambda"), ("eta", "eta"), ("order", "order")):
            value = flags.get(attr)
            if value is None:
                value = _value(est, "estimator", key)
            else:  # the text as JSON would hold it: the number float() reads, else the text
                try:
                    value = float(value)
                except ValueError:
                    pass
                value = self.flags[f"--{attr}"] = _value({key: value}, "estimator", key, f"--{attr}")
            setattr(self, attr, value)

        rnd = _section(doc.get("render", {}), "render")
        for key in _KEYS["render"]:
            setattr(self, key, _value(rnd, "render", key))
        if not 0 < self.band[0] < self.band[1] <= self.sample_rate / 2:
            raise ConfigError(f"render.band {list(self.band)} must be [lo, hi] with "
                              f"0 < lo < hi <= {self.sample_rate / 2:g} Hz")
        samples = self.wav_duration * self.sample_rate  # the WAV holds round(samples)
        if not samples > 0.5:  # it rounds to no sample
            raise ConfigError(f"render.wav_duration must hold a sample at {self.sample_rate:g} Hz, "
                              f"got {json.dumps(self.wav_duration)}")
        if not samples < _WAV_MAX_SAMPLES + 0.5:  # the bound is odd: its + 0.5 rounds up
            raise ConfigError(f"render.wav_duration must fit a 4 GiB RIFF WAV, at most "
                              f"{_WAV_MAX_SAMPLES / self.sample_rate:g} s at {self.sample_rate:g} Hz, "
                              f"got {json.dumps(self.wav_duration)}")

        listener = _section(doc.get("listener", {}), "listener")
        self.listener_position = np.asarray(_value(listener, "listener", "position"), dtype=float)
        deg = _value(listener, "listener", "euler_deg")
        self.angles = EulerAngles(*(math.radians(a) for a in deg))

        hrtf_ref = doc.get("hrtf")
        self.head = None  # a SyntheticHead or a measured HrtfSet
        if isinstance(hrtf_ref, dict) and "synthetic" in hrtf_ref:
            _section(hrtf_ref, "hrtf")
            syn = _section(hrtf_ref["synthetic"], "hrtf.synthetic")
            az = _value(syn, "hrtf.synthetic", "ear_azimuths_deg")
            head_radius = _value(syn, "hrtf.synthetic", "head_radius")
            self.measure_radius = _value(syn, "hrtf.synthetic", "measure_radius")
            if not 0 < head_radius < self.measure_radius < math.inf:
                raise ConfigError("hrtf.synthetic needs 0 < head_radius < measure_radius, got "
                                  f"{head_radius} and {self.measure_radius}")
            self.head = SyntheticHead(
                radius=head_radius, ear_azimuths=(math.radians(az[0]), math.radians(az[1])))
        elif isinstance(hrtf_ref, str):
            with _user_file("HRTF bundle", base / hrtf_ref):
                self.head = bundleio.load_hrtf_bundle(base / hrtf_ref)
            self.measure_radius = self.head.radius
        elif hrtf_ref is not None:
            raise ConfigError("hrtf must be a bundle path or {\"synthetic\": {...}}")

        self.out_dir = base / _value(doc, "config", "output_dir")
        with _user_file("output_dir", self.out_dir):  # refused here, before any computation
            first = next(p for p in (self.out_dir, *self.out_dir.parents) if p.exists())
            if not first.is_dir():
                raise ConfigError(f"output_dir {self.out_dir}: {first} is not a directory")
        self.seed = _value(doc, "config", "seed")

    def require_rendering(self):
        """An HRTF, and free-field mics: the only kind the distributed estimator models."""
        if self.head is None:
            raise ConfigError("this command needs an 'hrtf' entry in the config")
        if self.geometry.baffle is not None:
            raise ConfigError("rigid-baffle arrays are not rendered; use 'estimate'")

    def spectrum_at(self, freqs):
        """HRTF SH spectrum covering the given frequencies, in any order.

        A measured bundle must cover them; that is checked before the fit.
        """
        if isinstance(self.head, HrtfSet):
            lo, hi = self.head.freqs[0], self.head.freqs[-1]
            if np.min(freqs) < lo or np.max(freqs) > hi:
                raise ConfigError(
                    f"rendered frequencies {np.min(freqs):g}-{np.max(freqs):g} Hz are not "
                    f"covered by the HRTF grid [{lo:g}, {hi:g}] Hz")
        k_max = 2.0 * math.pi * np.max(freqs) / self.scene.sound_speed
        order = truncation_order(k_max, self.shoulder_radius, self.order_cap)
        if isinstance(self.head, SyntheticHead):
            return rigid_sphere_hrtf_spectrum(
                self.head, np.unique(freqs), self.measure_radius, order,
                sample_rate=self.sample_rate, sound_speed=self.scene.sound_speed)
        order = min(order, math.isqrt(self.head.n_directions) - 1)
        return hrtf.fit_sh(self.head, order)


@contextmanager
def _chosen_lambda(cfg: RunConfig):
    """A numeric lambda that leaves Psi + lambda I singular is a user error."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        if cfg.lam == "auto":
            raise
        name = "--lam" if "--lam" in cfg.flags else "estimator.lambda"
        raise ConfigError(f"{name} {cfg.lam:g}: {exc}") from exc


def _render_responses(cfg: RunConfig, observations, spectrum):
    """Per-frequency binaural responses (F, 2) through the estimator chain,
    against ``spectrum``, the HRTF spectrum at the scene's frequencies."""
    freqs = cfg.scene.freqs
    with _chosen_lambda(cfg):
        rows = grid_rows(cfg.geometry, freqs, cfg.listener_position, cfg.angles,
                         spectrum, cfg.mode, cfg.lam, cfg.order_cap,
                         cfg.shoulder_radius, cfg.scene.sound_speed)
    # one stacked matmul: bitwise the per-bin rows @ s (an einsum sums differently)
    return (rows @ observations[:, :, None])[:, :, 0]


# A RIFF WAV states its size in 32 bits: 50 header bytes, then 8 bytes a
# 2-channel float32 sample. Past that scipy writes RF64, which many readers refuse.
_WAV_MAX_SAMPLES = (2**32 - 1 - 50) // 8
# Samples per span of _multitone_wav: its time and phasor arrays take ~32 bytes a sample.
_WAV_SPAN = 1 << 16


def _multitone_wav(freqs, responses, sample_rate, duration, gain):
    """Deterministic multitone realization of per-frequency responses, built in
    spans of _WAV_SPAN samples so that working memory does not grow with the duration."""
    n_samples = int(round(duration * sample_rate))
    out = np.zeros((n_samples, 2), dtype=np.float32)
    for lo in range(0, n_samples, _WAV_SPAN):
        hi = min(lo + _WAV_SPAN, n_samples)
        t = np.arange(lo, hi) / sample_rate
        for fi, f in enumerate(freqs):
            phasor = np.exp(1j * 2.0 * math.pi * f * t)
            for ear in (0, 1):
                out[lo:hi, ear] += (gain * np.real(responses[fi, ear] * phasor)).astype(np.float32)
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
@click.option("--beta", default=arrays.DEFAULT_BETA, show_default=True,
              help="Cardioid directivity parameter.")
@click.option("--out", "out_path", default=None, help="Write geometry JSON here.")
@click.option("--validate", "validate_path", default=None, help="Validate an existing geometry file.")
def geometry(kind, center, yaw_deg, radius, beta, out_path, validate_path):
    """Emit or validate array geometry files."""
    if validate_path is not None:
        mode, reads = "--validate", ["--validate"]
    elif kind is None or out_path is None:
        raise ConfigError("need --kind and --out (or --validate)")
    else:
        mode, reads = f"--kind {kind}", ["--kind", "--center", "--out"] + {
            "small": ["--yaw-deg", "--radius", "--beta"], "composite": ["--beta"],
            "rigid-sphere": ["--radius"]}[kind]
    ctx = click.get_current_context()
    unused = [p.opts[0] for p in ctx.command.params if p.opts[0] not in reads
              and ctx.get_parameter_source(p.name) is ParameterSource.COMMANDLINE]
    if unused:
        raise ConfigError(f"{', '.join(unused)} not used with {mode}")
    if validate_path is not None:
        with _user_file("geometry file", validate_path):
            doc = Path(validate_path).read_text()
            geom = geometry_from_json(doc)
        if geometry_to_json(geom) != doc:
            raise ConfigError("geometry file is not in canonical form (round trip differs)")
        click.echo(f"ok: {geom.n_mics} microphones"
                   + (", rigid baffle" if geom.baffle is not None else ""))
        return
    try:
        ctr = tuple(float(x) for x in center.split(","))
        if len(ctr) != 3 or not all(map(math.isfinite, ctr)):
            raise ValueError
    except ValueError as exc:
        raise ConfigError(f"--center must be three finite numbers x,y,z, got {center!r}") from exc
    if not math.isfinite(yaw_deg):
        raise ConfigError(f"--yaw-deg must be finite, got {yaw_deg}")
    if radius is None:  # the kind's default; a given radius, 0 too, goes to the builder's check
        radius = arrays.DEFAULT_BAFFLE_RADIUS if kind == "rigid-sphere" else arrays.DEFAULT_SMALL_RADIUS
    try:
        if kind == "small":
            geom = build_small_array(ctr, math.radians(yaw_deg), radius, beta)
        elif kind == "composite":
            geom = build_composite_array(ctr, beta)
        else:
            geom = build_rigid_sphere_array(ctr, radius)
    except ValueError as exc:  # a bad beta or radius
        raise ConfigError(str(exc)) from exc
    with _user_file("--out", out_path, parsed=False):
        arrays.save_geometry(geom, out_path)
    click.echo(f"wrote {out_path} ({geom.n_mics} microphones)")


@cli.command("hrtf-import")
@click.argument("csv_path", type=click.Path())
@click.option("--radius", type=float, required=True, help="Measurement sphere radius in meters.")
@click.option("--sample-rate", type=float, default=hrtf.SAMPLE_RATE, show_default=True)
@click.option("--out", "out_base", required=True, help="Output bundle base path.")
def hrtf_import(csv_path, radius, sample_rate, out_base):
    """Convert a hand-made HRTF CSV into a bundle (JSON header + binary blob)."""
    with _user_file("HRTF CSV", csv_path):
        hrtf_set = hrtf.read_hrtf_csv(csv_path, radius=radius, sample_rate=sample_rate)
    with _user_file("--out", out_base, parsed=False):
        base = bundleio.save_hrtf_bundle(out_base, hrtf_set)
    click.echo(f"wrote {base}.json/.bin ({hrtf_set.n_directions} directions, "
               f"{hrtf_set.freqs.size} frequencies)")


_config_arg = click.argument("config_path", type=click.Path())
# estimator overrides (--lam here, --eta/--order on estimate) beat the config file
_lam_flag = click.option("--lam", "--lambda", "lam", default=None,
                         help="Distributed-estimator ridge (overrides config).")
_observations_flag = click.option(
    "--observations", default=None,
    help="Observation bundle base path (default: output_dir/observation).")


def _observations(cfg: RunConfig, path):
    """(F, n_mics) observations, checked against the run's geometry and grid."""
    base = Path(path) if path else cfg.out_dir / "observation"
    with _user_file("observation bundle", base):
        freqs, obs = bundleio.load_observation_bundle(base, cfg.geometry.content_hash())
    if obs.shape[1] != cfg.geometry.n_mics:
        raise ConfigError("observation bundle does not match the geometry's microphone count")
    if not np.array_equal(freqs, cfg.scene.freqs):
        raise ConfigError("observation bundle frequencies differ from the scene's grid")
    return obs


def _load_config(config_path, **flags):
    doc = _load_json("config", config_path)
    try:
        return RunConfig(doc, Path(config_path).resolve().parent, **flags)
    except (TypeError, ValueError) as exc:  # a wrong JSON type, or a value that does not convert
        raise ConfigError(f"{config_path}: {exc}") from exc


def _check_sources_off_array(scene: Scene, geom):
    """Sources where the simulated field is finite: off every mic, outside a baffle."""
    for src in scene.sources:
        if geom.baffle is not None:
            if np.linalg.norm(src.position - geom.baffle.center) <= geom.baffle.radius:
                raise ConfigError(f"scene source at {src.position.tolist()} lies inside the "
                                  "rigid baffle")
        elif np.any(np.linalg.norm(geom.positions() - src.position, axis=1) == 0):
            raise ConfigError(f"scene source at {src.position.tolist()} coincides with a "
                              "microphone")


def _check_truth(cfg: RunConfig):
    """Sources where evaluate's ground truth exists, checked before rendering."""
    if not cfg.scene.sources:
        raise ConfigError("evaluate needs at least one scene source")
    dists = [np.linalg.norm(src.position - cfg.listener_position) for src in cfg.scene.sources]
    if isinstance(cfg.head, HrtfSet):
        radius = cfg.head.radius
        if any(abs(d - radius) > 1e-6 * radius for d in dists):
            raise ConfigError("evaluate against a measured HRTF bundle needs every source on "
                              f"its measurement sphere, {radius:g} m from the listener")
    elif min(dists) <= cfg.head.radius:
        raise ConfigError("a scene source lies inside the synthetic head")


@cli.command()
@_config_arg
def simulate(config_path):
    """Simulate microphone observations for the configured scene."""
    cfg = _load_config(config_path)
    _check_sources_off_array(cfg.scene, cfg.geometry)
    obs = simulate_observation(cfg.scene, cfg.geometry)
    with _output_step(cfg, "simulate", "observation.json", "observation.bin") as out:
        bundleio.save_observation_bundle(out / "observation", cfg.scene.freqs, obs,
                                         geometry_hash=cfg.geometry.content_hash())


@cli.command()
@_config_arg
@_lam_flag
@click.option("--eta", default=None, help="Rigid-sphere estimator ridge (overrides config).")
@click.option("--order", default=None, help="Truncation order, or 'auto' (overrides config).")
@_observations_flag
def estimate(config_path, lam, eta, order, observations):
    """Estimate expansion coefficients at the listener position per frequency."""
    cfg = _load_config(config_path, lam=lam, eta=eta, order=order)
    if (cfg.geometry.baffle is not None and cfg.order != "auto"
            and (cfg.order + 1) ** 2 > cfg.geometry.n_mics):
        raise ConfigError(f"order {cfg.order} on the rigid baffle needs at least "
                          f"{(cfg.order + 1) ** 2} microphones, got {cfg.geometry.n_mics}")
    obs = _observations(cfg, observations)
    ks = cfg.scene.wavenumbers()
    orders = [truncation_order(k, cfg.shoulder_radius, cfg.order_cap)
              if cfg.order == "auto" else cfg.order for k in ks]
    if cfg.geometry.baffle is not None:
        if cfg.order == "auto":  # truncated estimator needs I >= (order+1)^2
            orders = [min(order, math.isqrt(cfg.geometry.n_mics) - 1) for order in orders]
        alphas = [rigid_sphere_estimate(s, cfg.geometry, k, order, cfg.eta)
                  for s, k, order in zip(obs, ks, orders)]
    else:
        # the grid estimator's halves, Psi's solves first and then Xi(target)
        # at the top order: every bin slices their tables
        with _chosen_lambda(cfg):
            w = PsiGrid(cfg.geometry, ks, cfg.lam).solve(np.array(obs, dtype=complex))
        alphas = XiGrid(cfg.geometry, ks, cfg.listener_position, max(orders, default=0)).coeffs(w, orders)
    flat = np.concatenate([alpha.coeffs for alpha in alphas])
    header = {
        "kind": "coefficients",
        "layout": "concatenated per-frequency (order+1)^2 blocks",
        "freqs": [float(f) for f in cfg.scene.freqs],
        "orders": orders,
        "center": [float(x) for x in cfg.listener_position],
    }
    with _output_step(cfg, "estimate", "coefficients.json", "coefficients.bin") as out:
        bundleio.write_bundle(out / "coefficients", header, flat)


@cli.command()
@_config_arg
@_lam_flag
@_observations_flag
def render(config_path, lam, observations):
    """Render per-frequency binaural responses (CSV) and a multitone WAV."""
    cfg = _load_config(config_path, lam=lam)
    cfg.require_rendering()
    obs = _observations(cfg, observations)
    freqs = cfg.scene.freqs
    spectrum = cfg.spectrum_at(freqs)
    # as in filters: the fit replaces the measured set before the rows are built
    cfg.head = None
    responses = _render_responses(cfg, obs, spectrum)
    with _output_step(cfg, "render", "binaural_response.csv", "binaural.wav") as out:
        with open(out / "binaural_response.csv", "w") as f:
            f.write("freq_hz,left_re,left_im,right_re,right_im\n")
            for f_hz, (left, right) in zip(freqs, responses):
                f.write(f"{f_hz:.6f},{left.real:.12e},{left.imag:.12e},"
                        f"{right.real:.12e},{right.imag:.12e}\n")
        data = _multitone_wav(freqs, responses, cfg.sample_rate, cfg.wav_duration, cfg.wav_gain)
        wavfile.write(out / "binaural.wav", int(cfg.sample_rate), data)


@cli.command()
@_config_arg
@_lam_flag
def filters(config_path, lam):
    """Synthesize and export the MIMO FIR binaural filter bank."""
    cfg = _load_config(config_path, lam=lam)
    cfg.require_rendering()
    freqs, in_band = fft_grid(cfg.band, cfg.nfft, cfg.sample_rate)
    if in_band.size == 0:
        raise ConfigError(f"render band {list(cfg.band)} holds no bin of the {cfg.nfft}-point FFT")
    # the fit replaces the measured set: its responses (4.4 MB for a
    # 2232-direction bundle at 61 frequencies) go before the bank is built,
    # and the bank takes the fit's only reference, to drop it before its tail
    fit = [cfg.spectrum_at(freqs[in_band])]
    cfg.head = None
    with _chosen_lambda(cfg):
        bank = synth_fir_filters(
            cfg.geometry, cfg.listener_position, cfg.angles, fit.pop(),
            cfg.band, cfg.nfft, cfg.sample_rate, mode=cfg.mode, lam=cfg.lam,
            window=cfg.window, order_cap=cfg.order_cap,
            shoulder_radius=cfg.shoulder_radius, sound_speed=cfg.scene.sound_speed)
    with _output_step(cfg, "filters", "filterbank.wav", "filterbank.json") as out:
        save_filter_bank(bank, out / "filterbank")


@cli.command()
@_config_arg
@_lam_flag
@_observations_flag
def evaluate(config_path, lam, observations):
    """Compare rendered binaural responses against the analytic ground truth."""
    cfg = _load_config(config_path, lam=lam)
    cfg.require_rendering()
    if isinstance(cfg.head, HrtfSet) and not np.array_equal(cfg.scene.freqs, cfg.head.freqs):
        raise ConfigError("evaluate against a measured HRTF bundle needs the scene grid "
                          "to equal the bundle's frequency grid")
    _check_truth(cfg)
    freqs = cfg.scene.freqs
    shortest = max(1.0 / freqs.min(), ITD_MAX_LAG_S)
    if cfg.wav_duration < shortest:
        raise ConfigError(f"render.wav_duration must span a period of the lowest scene frequency "
                          f"and the ITD's {ITD_MAX_LAG_S * 1e3:g} ms lag window for evaluate: at "
                          f"least {shortest:g} s, got {json.dumps(cfg.wav_duration)}")
    obs = _observations(cfg, observations)
    responses = _render_responses(cfg, obs, cfg.spectrum_at(freqs))
    reference = true_binaural(cfg.scene, cfg.head, cfg.listener_position, cfg.angles)

    pos = ";".join(f"{x:.6g}" for x in cfg.listener_position)

    def row(band, metric, value, excluded_bins=0, digits=6):
        return {"position": pos, "frequency_or_band": band, "metric": metric,
                "value": f"{value:.{digits}f}", "excluded_bins": excluded_bins}

    rows = []
    band = f"{freqs.min():g}-{freqs.max():g}"
    for ear, name in ((0, "L"), (1, "R")):
        est, ref = responses[:, ear], reference[:, ear]
        rows += [row(f"{f:g}", f"nmse_{name}_db", db) for f, db in zip(freqs, nmse(est, ref))]
        rows.append(row(band, f"nmse_{name}_avg_db", *average_nmse(est, ref)))
        rows.append(row(band, f"sd_{name}_db", *spectral_distortion(est, ref, normalize=True)))
    est_wav = _multitone_wav(freqs, responses, cfg.sample_rate, cfg.wav_duration, 1.0)
    ref_wav = _multitone_wav(freqs, reference, cfg.sample_rate, cfg.wav_duration, 1.0)
    for name, sig in (("estimated", est_wav), ("true", ref_wav)):
        pair = BinauralPair(sig.T, cfg.sample_rate)
        try:
            itd_s, ild_db = itd(pair), ild(pair)
        except ValueError as exc:  # no energy below the ITD/ILD low-pass
            raise ConfigError(f"{name} binaural signal: {exc}") from exc
        rows += [row("time", f"itd_{name}_s", itd_s, digits=9),
                 row("time", f"ild_{name}_db", ild_db)]
    with _output_step(cfg, "evaluate", "metrics.csv") as out:
        write_metric_report(out / "metrics.csv", rows)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except (ConfigError, click.ClickException) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except Exception as exc:  # pragma: no cover - internal failures
        click.echo(f"internal error: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
