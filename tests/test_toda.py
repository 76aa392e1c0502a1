import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcjacobi.core import (
    JacobiSpec,
    SpectralMeasure,
    _coeff_gap,
    _tridiagonal,
    eig_spectral_data,
    free_spec,
    random_spec,
    spectral_measure,
)
from bcjacobi.errors import InvalidInputError
from bcjacobi.toda import (
    _expm,
    moser_evolve,
    recursion_residual,
    toda_moments,
    toda_qr_flow,
    toda_solve,
)

from toda_oracle import rk4_one_time


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
        for spec in (toda_solve(free_spec(2), t).spec, toda_qr_flow(free_spec(2), t)):
            assert spec.a[0] == pytest.approx(1 / np.cosh(2 * t), abs=1e-12)
            assert spec.b[0] == pytest.approx(np.tanh(2 * t), abs=1e-12)
            assert spec.b[1] == pytest.approx(-np.tanh(2 * t), abs=1e-12)


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
        a, b = rk4_one_time(spec, t, 1e-3)
        assert np.max(np.abs(st.spec.a - a)) <= 1e-6
        assert np.max(np.abs(st.spec.b - b)) <= 1e-6
        assert _coeff_gap(st.spec, toda_qr_flow(spec, t)) <= 1e-6


def test_toda_keeps_a0():
    spec = JacobiSpec(a0=2.0, a=[1.0], b=[0.0, 0.0])
    assert toda_solve(spec, 0.5).spec.a0 == 2.0 == toda_qr_flow(spec, 0.5).a0


def test_toda_matches_rk4_where_the_moment_route_drifted():
    # the moment route came back 2.5e-2 off here, with no error
    rng = np.random.default_rng(3)
    random_spec(8, rng)
    spec = random_spec(12, rng)
    st, oracle = toda_solve(spec, 2.0), toda_qr_flow(spec, 2.0)
    for a, b in (rk4_one_time(spec, 2.0, 1e-3), (oracle.a, oracle.b)):
        assert np.max(np.abs(st.spec.a - a)) <= 1e-8
        assert np.max(np.abs(st.spec.b - b)) <= 1e-8


def test_toda_matches_qr_flow_up_to_n40():
    # N = 31 and beyond were refused by the moment route's integer Lambda map
    rng = np.random.default_rng(2024)
    blocks = [random_spec(N, rng) for N in (8, 16, 24, 32, 40)]
    for spec in blocks:
        for t in (-5.0, -2.0, 0.5, 2.0, 5.0):
            st, oracle = toda_solve(spec, t), toda_qr_flow(spec, t)
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
    out = toda_qr_flow(spec, 2.0)
    assert out.b[0] == 0.42 and out.a.size == 0


def test_isospectral_and_trace():
    rng = np.random.default_rng(33)
    spec = random_spec(6, rng, a_range=(0.4, 0.9), b_range=(-0.5, 0.5))
    eig0 = eig_spectral_data(spec).eigenvalues
    for t in (0.7, -1.2):
        st = toda_solve(spec, t)
        assert np.max(np.abs(eig_spectral_data(st.spec).eigenvalues - eig0)) <= 1e-8
        assert abs(np.sum(st.spec.b) - np.sum(spec.b)) <= 1e-8
        oracle = toda_qr_flow(spec, t)
        assert abs(np.sum(oracle.b) - np.sum(spec.b)) <= 1e-9


def test_weights_normalized_along_flow():
    mu = spectral_measure(random_spec(7, np.random.default_rng(34)))
    for t in (0.0, 0.5, 2.0, -3.0):
        assert abs(np.sum(moser_evolve(mu, t).weights) - 1.0) <= 1e-12


def test_oracle_refuses_complex_blocks():
    cplx = JacobiSpec(1.0, [1 + 0.5j], [0.1j, 0.2], mode="complex")
    with pytest.raises(InvalidInputError, match="real blocks"):
        toda_qr_flow(cplx, 0.5)


def test_qr_flow_edge_cases():
    spec = random_spec(3, np.random.default_rng(4))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="finite"):
            toda_qr_flow(spec, bad)
    with pytest.raises(InvalidInputError, match="single number"):
        toda_qr_flow(spec, [0.5, 1.0])
    for not_a_block in ([spec], {"a0": 1.0}, spec.to_json()):
        with pytest.raises(InvalidInputError, match="JacobiSpec"):
            toda_qr_flow(not_a_block, 0.5)


@pytest.mark.parametrize(
    "a, b, t",
    [
        ([0.1], [100.0, 100.2], 8.0),  # unshifted, expm(8 L) ~ e^800 overflows
        ([0.01], [10.0, 10.0], 100.0),
        ([0.1], [-100.0, -99.8], 8.0),  # unshifted, expm underflows to 0
        ([0.3, 0.5, 0.2], [1e3, 1e3 + 0.4, 1e3 - 0.3, 1e3 + 0.1], -30.0),
    ],
)
def test_qr_flow_on_a_spectrum_far_from_zero(a, b, t):
    spec = JacobiSpec(a0=1.0, a=a, b=b)
    assert _coeff_gap(toda_qr_flow(spec, t), toda_solve(spec, t).spec) <= 1e-10
    # an offset of the diagonal is an offset of the spectrum, and the flow ignores it
    moved = toda_qr_flow(JacobiSpec(a0=1.0, a=a, b=np.array(b) - b[0]), t)
    assert _coeff_gap(toda_qr_flow(spec, t), JacobiSpec(a0=1.0, a=moved.a, b=moved.b + b[0])) <= 1e-10


# the fixed times pin what a draw may miss: 0 gives the input bit for bit, a
# repeated time gives the same block, and N = 1 and off-grid times match RK4
@pytest.mark.parametrize("N, seed", [(1, 0), (2, 1), (5, 2), (8, 3)])
def test_batched_oracle_matches_per_time_loop(N, seed):
    spec = random_spec(N, np.random.default_rng(seed), a_range=(0.3, 0.9), b_range=(-0.5, 0.5))
    # 0, negatives, repeated times and times off the RK4 reference's dt grid
    times = [0.5, 0.0, -0.2, 0.333, -0.0137, 0.5, 1.004, -0.75]
    outs = [toda_qr_flow(spec, t) for t in times]
    for t, out in zip(times, outs):
        assert isinstance(out, JacobiSpec)
        a, b = rk4_one_time(spec, t, 0.01)
        assert max(np.max(np.abs(out.a - a), initial=0.0), np.max(np.abs(out.b - b))) <= 1e-7, t
    assert np.array_equal(outs[1].a, spec.a) and np.array_equal(outs[1].b, spec.b)
    assert np.array_equal(outs[0].a, outs[5].a) and np.array_equal(outs[0].b, outs[5].b)


@st.composite
def small_blocks(draw):
    N = draw(st.integers(1, 8))
    a = draw(st.lists(st.floats(0.3, 0.9, exclude_min=True, exclude_max=True), min_size=N - 1, max_size=N - 1))
    b = draw(st.lists(st.floats(-0.5, 0.5), min_size=N, max_size=N))
    return JacobiSpec(a0=1.0, a=a, b=b)


times = st.floats(-2.0, 2.0)


@settings(max_examples=40)
@given(small_blocks(), times)
def test_qr_flow_matches_rk4_on_drawn_blocks(spec, t):
    a, b = rk4_one_time(spec, t, 1e-2)
    out = toda_qr_flow(spec, t)
    assert max(np.max(np.abs(out.a - a), initial=0.0), np.max(np.abs(out.b - b))) <= 1e-7


@settings(max_examples=60)
@given(small_blocks(), times)
def test_toda_solve_keeps_eigenvalues_and_trace(spec, t):
    st_t = toda_solve(spec, t)
    eig0 = eig_spectral_data(spec).eigenvalues
    assert np.max(np.abs(eig_spectral_data(st_t.spec).eigenvalues - eig0)) <= 1e-8
    assert abs(np.sum(st_t.spec.b) - np.sum(spec.b)) <= 1e-8


@settings(max_examples=60)
@given(small_blocks(), times)
def test_toda_block_returns_the_moser_atoms(spec, t):
    st_t = toda_solve(spec, t)
    mu = spectral_measure(st_t.spec)
    assert np.max(np.abs(mu.lambdas - st_t.measure.lambdas)) <= 1e-12
    assert np.max(np.abs(mu.weights - st_t.measure.weights)) <= 1e-12


@pytest.mark.parametrize("atoms, match", [
    (((0.0, np.nan),), "finite"),
    (((np.inf, 1.0),), "finite"),
    (((-1.0, 0.5), (1.0, -np.inf)), "finite"),
    ((("x", 1.0),), "numbers"),
    (((1.0,),), "pairs"),
    (((0.0, 1.0), (1.0,)), "numbers"),
    (((1.0 + 1.0j, 1.0),), "real"),
])
def test_measure_refuses_malformed_atoms(atoms, match):
    with pytest.raises(InvalidInputError, match=match):
        SpectralMeasure(atoms)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, "x", 1j])
def test_flow_times_must_be_finite(t):
    mu = SpectralMeasure(((-1.0, 0.5), (1.0, 0.5)))
    for call in (
        lambda: moser_evolve(mu, t),
        lambda: toda_moments(mu, t, 3),
        lambda: recursion_residual(mu, t, 3, 1e-3),
        lambda: recursion_residual(mu, 0.1, 3, t),
        lambda: toda_solve(free_spec(3), t),
    ):
        with pytest.raises(InvalidInputError, match=r"\b[th] must be"):
            call()


def test_expm_matches_scipy_on_the_flow_range():
    """`_expm` against scipy's Pade expm on 1000 symmetric tridiagonals scaled
    to ||X||_inf = 2, the largest step `toda_qr_flow` takes.  Each Horner
    product sums at most three terms per entry, and the two squarings double
    the error twice, so both routes sit a few eps from e^X; the bound is
    32 eps relative to max |e^X| (the worst draw was 5 eps)."""
    from scipy.linalg import expm

    rng = np.random.default_rng(28)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        X = _tridiagonal(rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n))
        X *= 2.0 / np.max(np.sum(np.abs(X), axis=1))
        E = expm(X)
        worst = max(worst, np.max(np.abs(_expm(X) - E)) / np.max(np.abs(E)))
    assert worst <= 32 * np.finfo(float).eps
