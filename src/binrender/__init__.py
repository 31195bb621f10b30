"""Binaural rendering from microphone array recordings of arbitrary geometry.

Soundfield estimation by harmonic analysis of infinite order (arbitrarily
placed directional microphones), spherical-wave-decomposition binaural
rendering against distance-aware HRTF spectra, MIMO FIR filter synthesis,
and a free-field simulation harness with analytic oracles.

Conventions throughout: exp(+j w t) time dependence, spherical Hankel
functions of the second kind for outgoing waves, Green's function
exp(-j k r) / (4 pi r), orthonormal complex spherical harmonics with the
Condon-Shortley phase.
"""

from .arrays import (
    ArrayGeometry,
    Microphone,
    RigidBaffle,
    build_composite_array,
    build_rigid_sphere_array,
    build_small_array,
    cardioid_coeffs,
    load_geometry,
    save_geometry,
    tdesign_nodes,
)
from .estimation import Estimator, build_psi, build_xi, rigid_sphere_estimate
from .hrtf import (
    HrtfSet,
    HrtfShSpectrum,
    SyntheticHead,
    ear_pressure,
    fit_sh,
    rigid_sphere_hrtf_spectrum,
    synth_rigid_sphere_hrtf,
)
from .metrics import (
    BinauralPair,
    average_nmse,
    ild,
    itd,
    nmse,
    spectral_distortion,
    truncation_order,
)
from .rendering import (
    BinauralFilterBank,
    apply_filter_bank,
    render_coeffs,
    render_full,
    synth_fir_filters,
)
from .simulate import PointSource, Scene, band_freqs, simulate_observation, true_binaural
from .special import EulerAngles, wigner_d_block
from .wavefield import (
    ShCoeffVec,
    TranslationMatrix,
    evaluate_field,
    plane_wave_coeffs,
    point_source_coeffs,
    rotate_coeffs,
    translate_coeffs,
    translation_matrix,
)

__version__ = "0.1.0"
