import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcjacobi.core import JacobiSpec, chebyshev_values, free_spec, moments_of_measure, phi_eval, random_spec
from bcjacobi.discrete_wave import connecting_from_response, response_vector, reverse_order
from bcjacobi.errors import BCError, InvalidInputError, PoleError
from bcjacobi.moments import lambda_matrix
from bcjacobi.weyl_debranges import (
    DeBrangesElement,
    _refined_solve,
    beta_sequences,
    debranges_inner,
    debranges_kernel,
    debranges_kernel_hankel,
    in_domain_D,
    joukowsky_z,
    weyl_resolvent,
    weyl_series,
)


def test_joukowsky_half():
    assert joukowsky_z(2.5) == pytest.approx(0.5, abs=1e-14)


def test_joukowsky_boundary():
    assert joukowsky_z(2.0) == pytest.approx(1.0, abs=1e-12)


def test_joukowsky_branch():
    z = joukowsky_z(3j)
    assert abs(z) < 1
    assert z.imag < 0


def test_joukowsky_inverse_identity():
    rng = np.random.default_rng(40)
    for _ in range(30):
        lam = complex(rng.uniform(-6, 6), rng.uniform(-4, 4))
        z = joukowsky_z(lam)
        assert abs(z + 1 / z - lam) <= 1e-12 * max(1, abs(lam))
        if lam.imag > 0:
            assert abs(z) <= 1 and z.imag < 0


def test_joukowsky_root_matches_a_60_digit_reference():
    """Within 4 eps of mpmath's small root, taken as 1 / (the large root), which does
    not cancel: log-uniform |lambda| in [1e-3, 1e300] at random arguments, draws
    just off the branch points +-2, +-2i, and the points where
    (lambda - sqrt(lambda^2 - 4)) / 2 was off by 1.1e-9 (1e4) to 0.49 (-1e8 + 1e8 i)
    or returned 0 (1e300)."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(41)
    far = 10.0 ** rng.uniform(-3, 300, 1500) * np.exp(2j * np.pi * rng.uniform(size=1500))
    near = rng.choice([2, -2, 2j, -2j], 500) + 10.0 ** rng.uniform(-12, 0, 500) * np.exp(
        2j * np.pi * rng.uniform(size=500))
    eps = np.finfo(float).eps
    with mpmath.workdps(60):
        for lam in [*far, *near[np.abs(near) > 2], 50, 1e4, 1e6, 1e8, 1e8j, -1e8 + 1e8j, 1e12, 1e300]:
            z, L = joukowsky_z(lam), mpmath.mpc(complex(lam))
            s = mpmath.sqrt(L * L - 4)
            ref = 1 / max((L - s) / 2, (L + s) / 2, key=abs)
            assert abs(mpmath.mpc(complex(z)) - ref) <= 4 * eps * abs(ref), lam
    assert weyl_resolvent(None, 2.5, kind="free") == -0.5  # m_0(5/2) stays exact
    assert weyl_resolvent(None, 1e8, kind="free") == pytest.approx(-1e-8, rel=4 * eps)


def test_joukowsky_root_on_the_disk():
    """For |lambda| <= 2 the root takes sqrt((lambda - 2)(lambda + 2)), which does not
    cancel near +-2: just off the branch points it is within 2 eps of a 60-digit
    reference, where sqrt(lambda^2 - 4) was 17.9 eps off (381 eps at
    1.9999999 + 1e-10i).  On the cut [-2, 2] it is within 2 eps (absolute) of the
    reference and keeps the branch of that formula: every zero keeps its sign and every
    value its half-plane, for a real lambda and for one with +0 or -0 imaginary part."""
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps

    def unfactored(lam):  # the root as it was, the reference for the branch on the cut
        lam = complex(lam)
        s = np.sqrt(lam * lam - 4.0 + 0j)
        z1, z2 = (lam - s) / 2.0, (lam + s) / 2.0
        return z1 if abs(z1) <= abs(z2) else z2

    with mpmath.workdps(60):
        for lam in (2 + 1e-9j, 2 - 1e-9j, -2 + 1e-9j, -2 - 1e-9j, 1.9999999 + 1e-10j, 1.5 + 2e-9j, 1e-9j):
            L = mpmath.mpc(lam)
            s = mpmath.sqrt(L * L - 4)
            ref = 1 / max((L - s) / 2, (L + s) / 2, key=abs)
            assert abs(mpmath.mpc(complex(joukowsky_z(lam))) - ref) <= 2 * eps * abs(ref), lam
        x = np.r_[-2.0, -0.0, 0.0, 2.0, np.random.default_rng(42).uniform(-2, 2, 3000)]
        for lam in (*x, *(complex(v, 0.0) for v in x), *(complex(v, -0.0) for v in x)):
            z, branch = joukowsky_z(lam), unfactored(lam)
            assert np.array_equal(np.signbit([z.real, z.imag]), np.signbit([branch.real, branch.imag])), lam
            L = mpmath.mpf(complex(lam).real)
            assert abs(mpmath.mpc(complex(z)) - (L - 1j * mpmath.sqrt(4 - L * L)) / 2) <= 2 * eps, lam


def test_resolvent_two_site():
    spec = JacobiSpec(a0=1.0, a=[1.0], b=[0.0, 0.0])
    for lam in (3.0, -2.5, 1.7j):
        m = weyl_resolvent(spec, lam)
        assert m == pytest.approx(-lam / (lam**2 - 1), rel=1e-12)


def test_resolvent_free():
    assert weyl_resolvent(None, 2.5, kind="free") == pytest.approx(-0.5, abs=1e-14)


def test_resolvent_single_site():
    spec = JacobiSpec(a0=1.0, a=[], b=[0.4])
    assert weyl_resolvent(spec, 2.0) == pytest.approx(1 / (0.4 - 2.0), rel=1e-13)


def test_resolvent_pole_error():
    spec = JacobiSpec(a0=1.0, a=[1.0], b=[0.0, 0.0])
    with pytest.raises(PoleError):
        weyl_resolvent(spec, 1.0)


def test_series_free_one_term():
    r = np.concatenate([[1.0], np.zeros(60)])
    ev = weyl_series(r, 2.5, tol=1e-12)
    assert ev.m_series == pytest.approx(-0.5, abs=1e-13)


def test_series_matches_resolvent():
    rng = np.random.default_rng(41)
    spec = random_spec(8, rng)
    r = response_vector(spec, 160, bc="dirichlet")
    for lam in (4j, 5.0 + 1.0j, -6.0 + 2.0j):
        ev = weyl_series(r, lam, tol=1e-11)
        assert abs(ev.m_series - weyl_resolvent(spec, lam)) <= 1e-8


@pytest.mark.parametrize("site", [5, 6])
@pytest.mark.parametrize("rho", [0.24, 0.3, 0.5, 0.7])
def test_series_does_not_stop_on_a_run_of_zeros(site, rho):
    """With one nonzero b_k the response reads r_0 = 1, then a run of zeros:
    the stop rule must not take the run for a vanishing tail."""
    b = np.zeros(40)
    b[site] = 1.0
    spec = JacobiSpec(a0=1.0, a=np.ones(39), b=b)
    r = response_vector(spec, 220, bc="dirichlet")
    assert np.all(r.r[1:11] == 0.0)
    z = rho * np.exp(4j)
    lam = z + 1 / z
    try:
        ev = weyl_series(r, lam, tol=1e-10, coeff_bound=1.0)
    except BCError as err:
        assert "too short" in str(err)
        return
    assert abs(ev.m_series - weyl_resolvent(spec, lam)) <= 1e-10


def test_series_rejects_unit_circle():
    r = np.zeros(10)
    r[0] = 1.0
    with pytest.raises(BCError):
        weyl_series(r, 1.0, tol=1e-8)  # lambda in [-2, 2]: |z| = 1


def test_series_insufficient_data():
    r = np.ones(5)
    with pytest.raises(BCError):
        weyl_series(r, 2.2, tol=1e-14)


def test_domain_D_flag():
    B = 2.0
    R = 3 * B + 1
    z_in = 0.5 / R * np.exp(-0.7j)
    lam_in = z_in + 1 / z_in
    assert in_domain_D(lam_in, B)
    assert not in_domain_D(2.5 + 0.1j, B)  # |z| way above 1/R
    assert not in_domain_D(lam_in.conjugate(), B)  # lower half-plane


def test_domain_D_flag_is_a_python_bool():
    # in the upper half-plane it was a numpy bool, which json cannot write
    for lam in (3.0 + 1.0j, 3.0 - 1.0j, 2.5 + 0.1j):
        assert type(in_domain_D(lam, 0.1)) is bool


@pytest.mark.parametrize("call", [
    lambda: in_domain_D(3.0 + 1.0j, -1 / 3),  # R = 3B + 1 = 0 ended in ZeroDivisionError
    lambda: in_domain_D(3.0 + 1.0j, -1.0),  # read silently as outside D
    lambda: weyl_series(np.eye(1, 40).ravel(), 3.0 + 1.0j, coeff_bound=-1),
], ids=["minus-one-third", "minus-one", "weyl_series"])
def test_a_negative_coefficient_bound_is_refused(call):
    with pytest.raises(InvalidInputError, match="B bounds"):
        call()


def test_kernel_free_identity_solve():
    from bcjacobi.core import chebyshev_values

    C = np.eye(5)
    z = 0.3
    j = debranges_kernel(C, z, 5)
    vals = chebyshev_values(5, z)[1:]
    assert np.allclose(j.coeffs, vals)
    lam = -0.8
    expect = np.sum(vals * chebyshev_values(5, lam)[1:])
    assert j(lam) == pytest.approx(expect, rel=1e-12)


def test_kernel_scalar_case():
    C = np.array([[2.0]])
    j = debranges_kernel(C, 0.4, 1)
    assert j(1.3) == pytest.approx(1.0 / 2.0, rel=1e-13)  # T_1 = 1 everywhere


def test_kernel_equals_phi_sum():
    rng = np.random.default_rng(42)
    for T in (3, 8, 15):
        spec = random_spec(T, rng, a_range=(0.85, 1.2), b_range=(-0.5, 0.5))
        r = response_vector(spec, 2 * T - 1)
        C_T = reverse_order(connecting_from_response(r, T))
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        j = debranges_kernel(C_T, z, T)
        for lam in rng.uniform(-2, 2, 4):
            direct = np.sum(np.conj(phi_eval(spec, z, T)) * phi_eval(spec, lam, T))
            assert abs(j(lam) - direct) <= 1e-9


def test_reproducing_property():
    rng = np.random.default_rng(43)
    for _ in range(25):
        T = int(rng.integers(2, 14))
        spec = random_spec(T, rng, a_range=(0.85, 1.2), b_range=(-0.5, 0.5))
        r = response_vector(spec, 2 * T - 1)
        C_T = reverse_order(connecting_from_response(r, T))
        z = 0.5 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        j = debranges_kernel(C_T, z, T)
        F = DeBrangesElement(rng.normal(size=T))
        assert abs(debranges_inner(C_T, j, F) - F(z)) <= 1e-10


def test_kernel_symmetry():
    # Hermitian symmetry J_z(lam) = conj(J_lam(z)) and the Schwarz reflection
    # J_z(lam) = conj(J_{z-bar}(lam-bar)) for the real-coefficient kernel
    rng = np.random.default_rng(44)
    T = 7
    spec = random_spec(T, rng, a_range=(0.85, 1.2), b_range=(-0.5, 0.5))
    r = response_vector(spec, 2 * T - 1)
    C_T = reverse_order(connecting_from_response(r, T))
    for _ in range(10):
        z = 0.5 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lam = 0.5 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        j_z = debranges_kernel(C_T, z, T)
        j_lam = debranges_kernel(C_T, lam, T)
        j_zbar = debranges_kernel(C_T, np.conj(z), T)
        assert abs(j_z(lam) - np.conj(j_lam(z))) <= 1e-10
        assert abs(j_z(lam) - np.conj(j_zbar(np.conj(lam)))) <= 1e-10


def test_inner_free_basis():
    C = np.eye(4)
    e1 = np.zeros(4)
    e1[0] = 1.0
    F = DeBrangesElement(e1)
    assert debranges_inner(C, F, F) == pytest.approx(1.0)


def test_inner_equals_measure_quadrature():
    rng = np.random.default_rng(45)
    T = 6
    spec = random_spec(T, rng)
    from bcjacobi.core import spectral_measure

    mu = spectral_measure(spec)
    r = response_vector(spec, 2 * T - 1, bc="dirichlet")
    C_T = reverse_order(connecting_from_response(r, T))
    for _ in range(5):
        F = DeBrangesElement(rng.normal(size=T))
        G = DeBrangesElement(rng.normal(size=T))
        quad = np.sum(mu.weights * np.conj(F(mu.lambdas)) * G(mu.lambdas))
        assert debranges_inner(C_T, F, G) == pytest.approx(quad, rel=1e-10, abs=1e-10)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        debranges_inner(np.eye(3), DeBrangesElement([1.0, 0, 0]), DeBrangesElement([1.0, 0]))


def test_hankel_kernel_route():
    # S_T f = conj(monomials), f = Lambda^t j, same kernel values
    rng = np.random.default_rng(46)
    T = 6
    spec = random_spec(T, rng, a_range=(0.85, 1.2), b_range=(-0.4, 0.4))
    from bcjacobi.core import spectral_measure

    mu = spectral_measure(spec)
    s = moments_of_measure(mu, 2 * T - 2)
    i = np.arange(T)
    S_T = s[i[:, None] + i[None, :]]  # classical Hankel s_{i+j-2}
    r = response_vector(spec, 2 * T - 1)
    C_T = reverse_order(connecting_from_response(r, T))
    z = 0.3 - 0.2j
    j = debranges_kernel(C_T, z, T)
    f = debranges_kernel_hankel(S_T, z, T)
    L = lambda_matrix(T).astype(float)
    assert np.allclose(f, L.T @ j.coeffs, rtol=1e-7, atol=1e-9)
    lam = 0.9
    assert np.polynomial.polynomial.polyval(lam, f) == pytest.approx(j(lam), rel=1e-8)


def test_kernels_reject_singular_matrix():
    with pytest.raises(BCError, match="C_T is singular"):
        debranges_kernel(np.zeros((3, 3)), 0.2j, 3)
    with pytest.raises(BCError, match="S_T is singular"):
        debranges_kernel_hankel(np.ones((3, 3)), 0.2j, 3)



@pytest.mark.parametrize("A, rhs", [
    (np.ones((3, 3)), np.ones(3)),  # real
    (np.ones((3, 3)), np.ones(3) * 1j),  # real A, complex rhs: the stacked [Re, Im] route
    (np.ones((3, 3)) * (1 + 1j), np.ones(3)),  # complex
])
def test_refined_solve_refuses_an_exactly_singular_matrix(A, rhs):
    with pytest.raises(BCError, match="A is singular"):
        _refined_solve(A, rhs, "A")


@pytest.mark.parametrize("action", ["error", "default", "ignore"])
def test_kernels_refuse_singular_matrix_under_any_warning_filter(action):
    # a warning of the factorization must neither replace the BCError (python -W error)
    # nor stand in for it (printed or ignored, the solve would go on with a zero pivot)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        with pytest.raises(BCError, match="C_T is singular"):
            debranges_kernel(np.zeros((3, 3)), 0.2j, 3)
        with pytest.raises(BCError, match="S_T is singular"):
            debranges_kernel_hankel(np.zeros((3, 3)), 0.2j, 3)
    assert seen == []


@settings(max_examples=60)
@given(
    st.integers(1, 12),
    st.lists(st.floats(0.95, 1.05), min_size=12, max_size=12),
    st.lists(st.floats(-0.1, 0.1), min_size=13, max_size=13),
    st.floats(-1.5, 1.5),
    st.floats(0.05, 1.5),
)
def test_real_kernel_solve_matches_complex_solve(T, a, b, re, im):
    # the real C_T is factored once, in real arithmetic, against the stacked [Re, Im]
    # right-hand side; a near-free block keeps C_T well conditioned (cond < 1e3)
    spec = JacobiSpec(a0=1.0, a=a[:T], b=b[: T + 1])
    C_T = reverse_order(connecting_from_response(response_vector(spec, 2 * T - 1), T))
    z = complex(re, im)
    rhs = np.conj(chebyshev_values(T, z)[1:])
    x = np.linalg.solve(C_T, rhs)
    x = x + np.linalg.solve(C_T, rhs - C_T @ x)
    j = debranges_kernel(C_T, z, T).coeffs
    assert np.max(np.abs(j - x)) <= 1e-12 * np.max(np.abs(x))

DEBRANGES_ENTRY_POINTS = {
    "debranges_kernel": lambda M: debranges_kernel(M, 0.2j, 2),
    "debranges_kernel_hankel": lambda M: debranges_kernel_hankel(M, 0.2j, 2),
    "debranges_inner": lambda M: debranges_inner(M, DeBrangesElement([1.0, 0.5]), DeBrangesElement([0.5j, 1.0])),
}


@pytest.mark.parametrize("entry", sorted(DEBRANGES_ENTRY_POINTS))
def test_debranges_entry_points_refuse_malformed_matrices(entry):
    # a NaN matrix used to give NaN coefficients silently, a string one numpy's UFuncTypeError
    call = DEBRANGES_ENTRY_POINTS[entry]
    call(np.array([[2.0, 0.5j], [0.5j, 1.0]]))  # complex matrices stay allowed
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError, match="_T must be finite"):
            call(np.array([[1.0, bad], [bad, 1.0]]))
    with pytest.raises(InvalidInputError, match="_T must be numbers"):
        call([["1", "a"], ["a", "1"]])


def test_debranges_element_refuses_malformed_coefficients():
    # a bare ValueError used to end the first evaluation
    with pytest.raises(InvalidInputError, match="coefficients must be numbers"):
        DeBrangesElement(["x", "y"])
    with pytest.raises(InvalidInputError, match="coefficients must be finite"):
        DeBrangesElement([1.0, np.nan])
    assert DeBrangesElement([1, 2j])(0.5) == 1 + 1j  # T_1 = 1, T_2 = lambda


def test_beta_sequences_free():
    r = response_vector(free_spec(20), 2 * 12 - 1)
    lo, hi = beta_sequences(r, 12)
    assert np.allclose(lo, 1.0, atol=1e-13)
    assert np.allclose(hi, 1.0, atol=1e-13)


def test_beta_sequences_scalar():
    r = np.array([1.4, 0.0, 0.5])
    lo, hi = beta_sequences(r, 1)
    assert lo[0] == pytest.approx(1.4 * 1.4)  # C_1 = r_0 * r_0 with the a_0 prefactor


def test_beta_sequences_bounded_spec():
    # near-free spec keeps the spectrum inside [-2, 2] so the depth-40
    # response stays O(N) and the extreme eigenvalues are meaningful
    rng = np.random.default_rng(47)
    spec = random_spec(45, rng, a_range=(0.95, 1.05), b_range=(-0.1, 0.1))
    r = response_vector(spec, 2 * 40 - 1)
    lo, hi = beta_sequences(r, 40)
    assert np.all(lo > 0)
    # polynomial-looking growth for a bounded spec (exponential would be 1e15+)
    assert hi.max() <= 1e3
