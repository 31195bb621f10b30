"""The LAPACK Cholesky helpers against scipy.linalg's wrappers, and ``own_arrays``."""

from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from binrender import utils


def spd(rng, n, complex_):
    a = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_ else 0.0)
    return a @ a.conj().T + n * np.eye(n)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_factor_and_solves_bitwise_scipy(complex_, rng):
    for n in (1, 7, 64):
        a = spd(rng, n, complex_)
        factor = utils.cho_factor(a, "singular")
        want = cho_factor(a)
        assert want[1] is False and factor.tobytes() == want[0].tobytes()
        for shape in ((n,), (n, 3)):
            b = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_ else 0.0)
            kept = b.copy()
            assert utils.cho_solve(factor, b).tobytes() == cho_solve(want, b).tobytes()
            assert np.array_equal(b, kept)


def test_real_factor_complex_right_hand_side(rng):
    a = spd(rng, 5, False)
    b = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    got = utils.cho_solve(utils.cho_factor(a, "singular"), b)
    assert got.tobytes() == cho_solve(cho_factor(a), b).tobytes()


def test_not_positive_definite_raises_the_given_message():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError, match="^no factor here$"):
        utils.cho_factor(a, "no factor here")
    with pytest.raises(np.linalg.LinAlgError, match="^no factor here$"):
        utils.cho_factor(-np.eye(3, dtype=complex), "no factor here")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_raise(bad, rng):
    a = spd(rng, 4, True)
    factor = utils.cho_factor(a, "singular")
    a[2, 1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        utils.cho_factor(a, "singular")
    b = np.ones(4, dtype=complex)
    b[3] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        utils.cho_solve(factor, b)


def test_own_arrays_stores_read_only_converted_copies():
    @dataclass(frozen=True)
    class Held:
        a: object
        b: object

    a, b = np.arange(3), [1.0, 2.0]
    held = Held(a, b)
    copies = utils.own_arrays(held, b=complex, a=float)
    assert copies[0] is held.b and copies[1] is held.a
    assert held.a.dtype == float and held.b.dtype == complex
    assert np.array_equal(held.a, a) and np.array_equal(held.b, b)
    assert not held.a.flags.writeable and not held.b.flags.writeable
    assert a.flags.writeable and held.a is not a
