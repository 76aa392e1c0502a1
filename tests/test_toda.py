import math

import numpy as np
import pytest

from bcjacobi.core import JacobiSpec, SpectralMeasure, eig_spectral_data, free_spec, random_spec, spectral_measure
from bcjacobi.errors import InvalidInputError
from bcjacobi.toda import (
    moser_evolve,
    recursion_residual,
    toda_moments,
    toda_ode_oracle,
    toda_solve,
)


def test_moser_identity_at_zero():
    mu = SpectralMeasure(((-1.0, 0.5), (1.0, 0.5)))
    out = moser_evolve(mu, 0.0)
    assert out.atoms == mu.atoms


def test_moser_two_atom_closed_form():
    mu = SpectralMeasure(((-1.0, 0.5), (1.0, 0.5)))
    for t in (0.3, 1.0, -2.0):
        out = moser_evolve(mu, t)
        assert out.weights[0] == pytest.approx((1 - np.tanh(2 * t)) / 2, rel=1e-12)
        assert out.weights[1] == pytest.approx((1 + np.tanh(2 * t)) / 2, rel=1e-12)


def test_moser_concentrates_on_top_eigenvalue():
    mu = SpectralMeasure(((-1.0, 0.5), (1.0, 0.5)))
    out = moser_evolve(mu, 40.0)
    assert out.weights[1] > 1 - 1e-12


def test_moser_large_argument_stability():
    # the raw quotient overflows near |lambda| t ~ 350; the log-space form survives
    mu = SpectralMeasure(((-3.0, 0.5), (3.0, 0.5)))
    out = moser_evolve(mu, 50.0)  # smallest weight ~ 1e-260, no overflow anywhere
    assert abs(np.sum(out.weights) - 1.0) <= 1e-12


def test_moser_underflow_is_reported():
    from bcjacobi.errors import NumericalFailureError

    mu = SpectralMeasure(((-3.0, 0.5), (3.0, 0.5)))
    with pytest.raises(NumericalFailureError):
        moser_evolve(mu, 80.0)  # weight below float range: conditioning error


def test_toda_moments_closed_form():
    mu = SpectralMeasure(((-1.0, 0.5), (1.0, 0.5)))
    for t in (0.0, 0.4, 1.3):
        s = toda_moments(mu, t, 2)
        assert s[0] == pytest.approx(1.0, abs=1e-14)
        assert s[1] == pytest.approx(np.tanh(2 * t), rel=1e-12, abs=1e-14)
        assert s[2] == pytest.approx(1.0, rel=1e-12)


def test_recursion_residual_small():
    mu = SpectralMeasure(((-1.0, 0.5), (1.0, 0.5)))
    assert recursion_residual(mu, 0.5, 3, 1e-4) <= 1e-6


def test_recursion_residual_single_atom():
    mu = SpectralMeasure(((0.7, 1.0),))
    assert recursion_residual(mu, 1.0, 4, 1e-5) <= 1e-9


def test_recursion_residual_second_order():
    mu = spectral_measure(random_spec(4, np.random.default_rng(30)))
    r1 = recursion_residual(mu, 0.3, 4, 2e-3)
    r2 = recursion_residual(mu, 0.3, 4, 1e-3)
    assert r2 < r1
    assert r1 / r2 == pytest.approx(4.0, rel=0.25)  # halving the step quarters the residual


def test_toda_closed_form_n2():
    for t in (0.0, 0.5, 1.0, -0.8):
        st = toda_solve(free_spec(2), t)
        assert st.spec.a[0] == pytest.approx(1 / np.cosh(2 * t), abs=1e-12)
        assert st.spec.b[0] == pytest.approx(np.tanh(2 * t), abs=1e-12)
        assert st.spec.b[1] == pytest.approx(-np.tanh(2 * t), abs=1e-12)


def test_toda_identity_at_zero():
    spec = random_spec(5, np.random.default_rng(31))
    st = toda_solve(spec, 0.0)
    assert np.allclose(st.spec.a, spec.a, rtol=1e-10)
    assert np.allclose(st.spec.b, spec.b, rtol=1e-10, atol=1e-12)


def test_toda_matches_rk4_oracle():
    rng = np.random.default_rng(32)
    spec = random_spec(4, rng, a_range=(0.4, 0.9), b_range=(-0.5, 0.5))
    for t in (0.5, -0.5, 1.5):
        st = toda_solve(spec, t)
        oracle = toda_ode_oracle(spec, t, 1e-3)
        assert np.max(np.abs(st.spec.a - oracle.a)) <= 1e-6
        assert np.max(np.abs(st.spec.b - oracle.b)) <= 1e-6


def test_toda_keeps_a0():
    spec = JacobiSpec(a0=2.0, a=[1.0], b=[0.0, 0.0])
    assert toda_solve(spec, 0.5).spec.a0 == 2.0 == toda_ode_oracle(spec, 0.5, 1e-2).a0


def test_toda_matches_rk4_where_the_moment_route_drifted():
    # the moment route came back 2.5e-2 off here, with no error
    rng = np.random.default_rng(3)
    random_spec(8, rng)
    spec = random_spec(12, rng)
    st, oracle = toda_solve(spec, 2.0), toda_ode_oracle(spec, 2.0, 1e-3)
    assert np.max(np.abs(st.spec.a - oracle.a)) <= 1e-8
    assert np.max(np.abs(st.spec.b - oracle.b)) <= 1e-8


def test_toda_matches_rk4_up_to_n40():
    # N = 31 and beyond were refused by the moment route's integer Lambda map
    rng = np.random.default_rng(2024)
    blocks = [random_spec(N, rng) for N in (8, 16, 24, 32, 40)]
    times = (-5.0, -2.0, 0.5, 2.0, 5.0)
    for spec, oracles in zip(blocks, toda_ode_oracle(blocks, times, 1e-3)):
        for t, oracle in zip(times, oracles):
            st = toda_solve(spec, t)
            assert np.max(np.abs(st.spec.a - oracle.a)) <= 1e-8, (spec.n, t)
            assert np.max(np.abs(st.spec.b - oracle.b)) <= 1e-8, (spec.n, t)


def test_toda_block_carries_the_evolved_measure():
    # the blocks of acceptance criterion 7
    rng = np.random.default_rng(17)
    for N in (2, 4, 6, 8):
        spec = random_spec(N, rng, a_range=(0.3, 0.8), b_range=(-0.5, 0.5))
        for t in (-1.0, -0.6, 0.5, 1.0):
            st = toda_solve(spec, t)
            mu = spectral_measure(st.spec)
            assert np.max(np.abs(mu.lambdas - st.measure.lambdas)) <= 1e-12, (N, t)
            assert np.max(np.abs(mu.weights - st.measure.weights)) <= 1e-12, (N, t)
            assert st.measure == moser_evolve(spectral_measure(spec), t)


def test_oracle_n1_constant():
    spec = JacobiSpec(a0=1.0, a=[], b=[0.42])
    out = toda_ode_oracle(spec, 2.0, 1e-3)
    assert out.b[0] == 0.42


def test_isospectral_and_trace():
    rng = np.random.default_rng(33)
    spec = random_spec(6, rng, a_range=(0.4, 0.9), b_range=(-0.5, 0.5))
    eig0 = eig_spectral_data(spec).eigenvalues
    for t in (0.7, -1.2):
        st = toda_solve(spec, t)
        assert np.max(np.abs(eig_spectral_data(st.spec).eigenvalues - eig0)) <= 1e-8
        assert abs(np.sum(st.spec.b) - np.sum(spec.b)) <= 1e-8
        oracle = toda_ode_oracle(spec, t, 1e-3)
        assert abs(np.sum(oracle.b) - np.sum(spec.b)) <= 1e-9


def test_weights_normalized_along_flow():
    mu = spectral_measure(random_spec(7, np.random.default_rng(34)))
    for t in (0.0, 0.5, 2.0, -3.0):
        assert abs(np.sum(moser_evolve(mu, t).weights) - 1.0) <= 1e-12


def _rk4_one_time(spec0, t, dt):
    """The per-time integration the batched oracle replaces (reference)."""

    def rhs(a, b):
        a_ext = np.concatenate([[0.0], a, [0.0]])
        return a * (b[1:] - b[:-1]), 2.0 * (a_ext[1:] ** 2 - a_ext[:-1] ** 2)

    a = spec0.a.copy().astype(float)
    b = spec0.b.copy().astype(float)
    n_steps = max(1, int(round(abs(t) / dt)))
    h = t / n_steps
    for _ in range(n_steps):
        k1a, k1b = rhs(a, b)
        k2a, k2b = rhs(a + 0.5 * h * k1a, b + 0.5 * h * k1b)
        k3a, k3b = rhs(a + 0.5 * h * k2a, b + 0.5 * h * k2b)
        k4a, k4b = rhs(a + h * k3a, b + h * k3b)
        a = a + (h / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
        b = b + (h / 6.0) * (k1b + 2 * k2b + 2 * k3b + k4b)
    return a, b


@pytest.mark.parametrize("N, seed", [(1, 0), (2, 1), (5, 2), (8, 3)])
def test_batched_oracle_matches_per_time_loop(N, seed):
    spec = random_spec(N, np.random.default_rng(seed), a_range=(0.3, 0.9), b_range=(-0.5, 0.5))
    dt = 0.01
    # 0, negatives, unequal and repeated step counts, times off the dt grid
    # (0.0137 takes 1 step, 0.333 takes 33 steps of 0.0100909...)
    times = [0.5, 0.0, -0.2, 0.333, -0.0137, 0.5, 1.004, -0.75]
    batched = toda_ode_oracle(spec, times, dt)
    assert isinstance(batched, list) and len(batched) == len(times)
    for t, out in zip(times, batched):
        a, b = _rk4_one_time(spec, t, dt)
        assert np.array_equal(out.a, a) and np.array_equal(out.b, b), t
        single = toda_ode_oracle(spec, t, dt)
        assert isinstance(single, JacobiSpec)
        assert np.array_equal(single.a, a) and np.array_equal(single.b, b), t


@pytest.mark.parametrize("seed", [5, 6])
def test_direct_sum_oracle_matches_per_block_calls(seed):
    rng = np.random.default_rng(seed)
    # mixed sizes, an N = 1 block at either end and one between larger blocks
    blocks = [random_spec(N, rng, a_range=(0.3, 0.9), b_range=(-0.5, 0.5)) for N in (1, 3, 1, 8, 2, 1)]
    dt = 0.01
    times = [0.5, 0.0, -0.2, 0.333, -0.0137, 0.5, 1.004, -0.75]
    for t in (times, -0.41):
        summed = toda_ode_oracle(blocks, t, dt)
        assert isinstance(summed, list) and len(summed) == len(blocks)
        for blk, out in zip(blocks, summed):
            single = toda_ode_oracle(blk, t, dt)
            if np.ndim(t):
                assert isinstance(out, list) and len(out) == len(times)
            else:
                out, single = [out], [single]
            for o, s in zip(out, single):
                assert isinstance(o, JacobiSpec) and o.a0 == blk.a0
                assert np.array_equal(o.a, s.a) and np.array_equal(o.b, s.b), t
    assert toda_ode_oracle(tuple(blocks), [], dt) == [[] for _ in blocks]


def test_oracle_refuses_complex_blocks():
    cplx = JacobiSpec(1.0, [1 + 0.5j], [0.1j, 0.2], mode="complex")
    real = random_spec(2, np.random.default_rng(7))
    for spec0 in (cplx, [real, cplx], [cplx]):
        with pytest.raises(InvalidInputError, match="real blocks"):
            toda_ode_oracle(spec0, 0.5, 1e-2)


def test_batched_oracle_edge_cases():
    spec = random_spec(3, np.random.default_rng(4))
    assert toda_ode_oracle(spec, [], 1e-3) == []
    assert toda_ode_oracle(spec, (), 1e-3) == []
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            toda_ode_oracle(spec, bad, 1e-3)
        with pytest.raises(ValueError, match="finite"):
            toda_ode_oracle(spec, [0.5, bad], 1e-3)
    for bad_dt in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="dt"):
            toda_ode_oracle(spec, [0.5], bad_dt)
    # block sequences: empty gives [], bad times and dt still raise
    assert toda_ode_oracle([], 0.5, 1e-3) == []
    assert toda_ode_oracle((), [0.5, 1.0], 1e-3) == []
    for blocks in ([spec, spec], []):
        with pytest.raises(ValueError, match="finite"):
            toda_ode_oracle(blocks, [0.5, math.nan], 1e-3)
        with pytest.raises(ValueError, match="dt"):
            toda_ode_oracle(blocks, 0.5, 0.0)
    with pytest.raises(InvalidInputError, match="JacobiSpec"):
        toda_ode_oracle([spec, {"a0": 1.0}], 0.5, 1e-3)
