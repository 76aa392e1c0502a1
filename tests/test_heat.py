import numpy as np
import pytest

from bcjacobi.core import JacobiSpec, free_spec, moments_of_measure, random_spec, spectral_measure
from bcjacobi.discrete_wave import delta_control
from bcjacobi.errors import InvalidInputError, SpecTooShortError
from bcjacobi.heat import (
    heat_connecting,
    heat_control_matrix,
    heat_response,
    invert_heat,
    solve_heat,
)


def test_heat_two_steps_by_hand():
    fld = solve_heat(free_spec(4), delta_control(3), 3)
    assert fld.v[1, 1] == 1.0
    assert fld.v[1, 2] == 0.0  # b_1 = 0
    assert fld.v[2, 2] == 1.0


def test_heat_zero_control():
    spec = random_spec(5, np.random.default_rng(60))
    fld = solve_heat(spec, np.zeros(4), 4)
    assert np.all(fld.v[1:, :] == 0.0)


def test_heat_front_value():
    rng = np.random.default_rng(61)
    spec = random_spec(6, rng)
    fld = solve_heat(spec, delta_control(5), 5)
    for n in range(1, 6):
        front = np.prod(np.concatenate([[spec.a0], spec.a[: n - 1]]))
        assert fld.v[n, n] == pytest.approx(front, rel=1e-13)
        for t in range(n):
            assert fld.v[n, t] == 0.0


def test_heat_spec_too_short():
    with pytest.raises(SpecTooShortError):
        solve_heat(free_spec(2), delta_control(4), 4)


def test_heat_response_free_two():
    spec = JacobiSpec(a0=1.0, a=[1.0], b=[0.0, 0.0])
    s = heat_response(spec, 4)
    assert np.array_equal(s, [1.0, 0.0, 1.0, 0.0])


def test_heat_response_single_site_powers():
    spec = JacobiSpec(a0=1.0, a=[], b=[0.7])
    s = heat_response(spec, 2)
    assert np.allclose(s, [1.0, 0.7])


def test_heat_response_equals_block_moments():
    rng = np.random.default_rng(62)
    for n in (3, 8, 14, 20):
        spec = JacobiSpec(a0=1.0, a=rng.uniform(0.5, 2, n - 1), b=rng.uniform(-1, 1, n))
        s = heat_response(spec, 2 * n)
        mu = spectral_measure(spec)
        expect = moments_of_measure(mu, 2 * n - 1)
        scale = np.maximum(np.abs(expect), 1.0)
        assert np.max(np.abs(s - expect) / scale) <= 1e-10


def test_heat_connecting_entries():
    s = np.array([1.0, 0.0, 1.0])
    S = heat_connecting(s, 2)
    assert np.array_equal(S, [[1.0, 0.0], [0.0, 1.0]])  # [[s2, s1], [s1, s0]]


def test_heat_connecting_hankel_structure():
    s = np.arange(1.0, 10.0)
    S = heat_connecting(s, 4)
    assert np.array_equal(S, S.T)
    for i in range(4):
        for j in range(4):
            assert S[i, j] == s[8 - (i + 1) - (j + 1)]


def test_heat_gram_identity():
    rng = np.random.default_rng(63)
    for n in (3, 7, 12):
        spec = JacobiSpec(a0=1.0, a=rng.uniform(0.5, 2, n - 1), b=rng.uniform(-1, 1, n))
        T = n
        V = heat_control_matrix(spec, T)
        S = heat_connecting(heat_response(spec, 2 * T - 1), T)
        scale = max(1.0, np.max(np.abs(S)))
        assert np.max(np.abs(S - V.T @ V)) <= 1e-10 * scale


def test_invert_heat_examples():
    spec = invert_heat([1.0, 0.0, 1.0, 0.0], 2)
    assert spec.a[0] == pytest.approx(1.0)
    assert np.allclose(spec.b, [0.0, 0.0], atol=1e-12)
    spec = invert_heat([1.0, 0.7, 0.49], 1)
    assert spec.b[0] == pytest.approx(0.7)


def test_invert_heat_roundtrip():
    rng = np.random.default_rng(64)
    for n in (2, 5, 10):
        spec = JacobiSpec(a0=1.0, a=rng.uniform(0.6, 1.6, n - 1), b=rng.uniform(-0.8, 0.8, n))
        s = heat_response(spec, 2 * n)
        rec = invert_heat(s, n)
        assert np.max(np.abs(rec.a - spec.a)) <= 1e-8 if n > 1 else True
        assert np.max(np.abs(rec.b - spec.b)) <= 1e-8


def _heat_step_reference(spec, f, T, n_active):
    """Oracle: the dedicated first-order stepper the heat module used to carry."""
    f = np.atleast_1d(np.asarray(f, dtype=float))
    v = np.zeros((n_active + 2, T + 1))
    v[0, : min(f.size, T + 1)] = f[: T + 1]
    aa = np.concatenate([[spec.a0], spec.a])
    a_r = np.array([aa[n] if n < aa.size else 0.0 for n in range(1, n_active + 1)])
    a_l = aa[0:n_active]
    b_c = spec.b[0:n_active]
    for t in range(T):
        v[1 : n_active + 1, t + 1] = (
            a_r * v[2 : n_active + 2, t] + a_l * v[0:n_active, t] + b_c * v[1 : n_active + 1, t]
        )
    return v


def test_shared_stepper_matches_heat_reference():
    rng = np.random.default_rng(65)
    for _ in range(20):
        n = int(rng.integers(1, 16))
        spec = random_spec(n, rng, a0=float(rng.uniform(0.5, 2.0)))
        T = int(rng.integers(1, n + 1))
        f = rng.normal(size=T)
        assert np.array_equal(solve_heat(spec, f, T).v, _heat_step_reference(spec, f, T, T))
        L = 2 * n
        depth = (L + 1) // 2
        assert np.array_equal(
            heat_response(spec, L), _heat_step_reference(spec, delta_control(L), L, depth)[1, 1:]
        )
        v = _heat_step_reference(spec, delta_control(T), T, T)
        V = np.empty((T, T))
        for s in range(T):
            V[:, s] = v[1 : T + 1, T - s]
        assert np.array_equal(heat_control_matrix(spec, T), V)


def test_heat_rejects_complex_blocks():
    # a complex block used to lose its imaginary parts with only a warning
    spec = JacobiSpec(a0=1.0, a=[1.0], b=[0.2j, 0.0], mode="complex")
    with pytest.raises(ValueError, match="real blocks"):
        heat_response(spec, 3)
    with pytest.raises(ValueError, match="real blocks"):
        heat_control_matrix(spec, 2)
    with pytest.raises(ValueError, match="real blocks"):
        solve_heat(spec, delta_control(2), 2)


def test_heat_rejects_complex_controls():
    # a complex control used to lose its imaginary part with only a warning
    for f in (np.array([1j, 0, 0]), [1j, 0, 0], np.array([1.0, 0, 0], dtype=complex)):
        with pytest.raises(ValueError, match="real control"):
            solve_heat(free_spec(4), f, 3)


@pytest.mark.parametrize("T", [0, -1])
def test_heat_response_rejects_horizon_below_one(T):
    with pytest.raises(InvalidInputError, match="T >= 1"):
        heat_response(free_spec(4), T)
