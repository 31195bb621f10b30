"""The array-holding value types: each owns a read-only copy of the arrays it
is given, and compares and hashes by identity."""

import dataclasses
import importlib
import pkgutil
import re

import numpy as np
import pytest

import binrender
from binrender import arrays, hrtf, metrics, rendering, simulate
from binrender import wavefield as wf


def microphone(**arrays_):
    return arrays.Microphone(**{"position": np.array([0.1, 0.0, 0.0]),
                                "orientation": np.array([1.0, 0.0, 0.0]),
                                "dir_coeffs": np.array([0.5, 0.1j, 0.2, 0.0]), **arrays_})


# type -> (constructor taking the array fields by keyword, {field: caller's array})
OWNERS = {
    "Microphone": (microphone, {"position": np.array([0.1, 0.0, 0.0]),
                                "orientation": np.array([0.0, 1.0, 0.0]),
                                "dir_coeffs": np.array([1.0 + 0j, 0.0, 0.0, 0.0])}),
    "RigidBaffle": (lambda **a: arrays.RigidBaffle(radius=0.1, **a),
                    {"center": np.array([0.0, 0.0, 0.2])}),
    "HrtfSet": (lambda **a: hrtf.HrtfSet(radius=1.5, sample_rate=48000.0, **a),
                {"directions": np.array([[1.0, 0.5], [2.0, -0.5]]),
                 "freqs": np.array([100.0, 200.0]),
                 "responses": np.arange(8.0).reshape(2, 2, 2) + 1j}),
    "HrtfShSpectrum": (lambda **a: hrtf.HrtfShSpectrum(order=1, radius=1.5, sample_rate=48000.0, **a),
                       {"freqs": np.array([100.0, 200.0]),
                        "coeffs": np.arange(16.0).reshape(2, 2, 4) - 1j}),
    "ShCoeffVec": (lambda **a: wf.ShCoeffVec(k=2.0, order=1, **a),
                   {"coeffs": np.array([1.0, 2j, 3.0, 4j]), "center": np.array([0.0, 0.1, 0.0])}),
    "PointSource": (simulate.PointSource,
                    {"position": np.array([1.5, 0.0, 0.0]), "spectrum": np.array([1.0 + 1j, 2.0])}),
    "Scene": (lambda **a: simulate.Scene(sources=(), **a), {"freqs": np.array([100.0, 300.0])}),
    "BinauralFilterBank": (lambda **a: rendering.BinauralFilterBank(
                               sample_rate=48000.0, delay_samples=4, band=(100.0, 1000.0), **a),
                           {"taps": np.arange(48.0).reshape(2, 3, 8)}),
    "BinauralPair": (lambda **a: metrics.BinauralPair(sample_rate=48000.0, **a),
                     {"samples": np.arange(10.0).reshape(2, 5)}),
}


def build(name):
    make, fields = OWNERS[name]
    return make(**{f: a.copy() for f, a in fields.items()})


# the array-holding types that keep what they are given without a copy
HOLDERS = {
    "ArrayGeometry": lambda: arrays.ArrayGeometry((microphone(),)),
    "TranslationMatrix": lambda: wf.TranslationMatrix(np.eye(4), np.zeros(3), 1.0, 1, 1),
    "TranslationPlan": lambda: wf.TranslationPlan.build(np.array([[0.1, 0.0, 0.0]]), 1,
                                                         np.array([[1.0 + 0j, 0.0, 0.0, 0.0]])),
}
ARRAY_HOLDING = {**{name: (lambda name=name: build(name)) for name in OWNERS}, **HOLDERS}


@pytest.mark.parametrize("name", list(OWNERS))
def test_construction_leaves_the_callers_arrays_alone(name):
    make, fields = OWNERS[name]
    given = {f: a.copy() for f, a in fields.items()}
    value = make(**given)
    for f, a in given.items():
        assert a.flags.writeable and np.array_equal(a, fields[f])
        stored = getattr(value, f)
        assert stored is not a and not np.shares_memory(stored, a)
        assert not stored.flags.writeable and np.array_equal(stored, a)
        a[...] = 0  # the caller may go on writing to its own array
        assert np.array_equal(stored, fields[f])


@pytest.mark.parametrize("name", list(ARRAY_HOLDING))
def test_equality_and_hash_compare_identity(name):
    a, b = ARRAY_HOLDING[name](), ARRAY_HOLDING[name]()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) == object.__hash__(a)
    assert len({a, b, a}) == 2


def _binrender_dataclasses():
    for info in pkgutil.iter_modules(binrender.__path__):
        module = importlib.import_module(f"binrender.{info.name}")
        for cls in vars(module).values():
            if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
                yield cls


def test_every_array_holding_dataclass_compares_identity():
    # a dataclass holds arrays when a field annotation mentions np.ndarray or
    # names another such dataclass (ArrayGeometry holds a RigidBaffle)
    classes = set(_binrender_dataclasses())
    holding = set()
    while True:
        names = "|".join(cls.__name__ for cls in holding) or "(?!)"
        found = {cls for cls in classes
                 if any("ndarray" in str(f.type) or re.search(rf"\b({names})\b", str(f.type))
                        for f in dataclasses.fields(cls))}
        if found == holding:
            break
        holding = found
    assert {cls.__name__ for cls in holding} == set(ARRAY_HOLDING)
    for cls in holding:
        assert cls.__dataclass_params__.eq is False, cls.__name__
    # the others (EulerAngles, SyntheticHead) compare by value: cache keys rely on it
    assert all(cls.__dataclass_params__.eq for cls in classes - holding)
