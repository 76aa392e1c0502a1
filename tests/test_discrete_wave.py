import numpy as np
import pytest

from bcjacobi.core import JacobiSpec, free_spec, random_spec, spectral_measure, chebyshev_values
from bcjacobi.discrete_wave import (
    connecting_from_response,
    control_matrix,
    delta_control,
    response_vector,
    reverse_order,
    solve_finite_dirichlet,
    solve_semi_infinite,
)
from bcjacobi.errors import SpecTooShortError


def naive_forward(spec, f, T, n_nodes, dirichlet_at=None):
    """Oracle: scalar-loop recurrence, written independently of the solver."""
    wall = dirichlet_at if dirichlet_at is not None else n_nodes + 1
    dt = complex if spec.mode == "complex" else float
    u = np.zeros((wall + 1, T + 1), dtype=dt)
    aa = [spec.a0] + list(spec.a)
    for t in range(T):
        u[0, t] = f[t] if t < len(f) else 0.0
        for n in range(1, wall):
            a_n = aa[n] if n < len(aa) else 0.0
            up = u[n + 1, t] if n + 1 <= wall else 0.0
            prev = u[n, t - 1] if t >= 1 else 0.0
            u[n, t + 1] = a_n * up + aa[n - 1] * u[n - 1, t] + spec.b[n - 1] * u[n, t] - prev
    return u


def test_free_delta_field():
    # traveling unit pulse: u[n][t] = 1 iff n = t
    wf = solve_semi_infinite(free_spec(6), delta_control(4), 4)
    for n in range(1, 6):
        for t in range(5):
            assert wf.u[n, t] == (1.0 if n == t else 0.0)


def test_zero_control_zero_field():
    spec = random_spec(7, np.random.default_rng(0))
    wf = solve_semi_infinite(spec, np.zeros(5), 5)
    assert np.all(wf.u[1:, :] == 0.0)


def test_three_recurrence_steps():
    spec = JacobiSpec(a0=1.0, a=[1.0, 1.0, 1.0], b=[0.0, 0.0, 0.0, 0.0])
    wf = solve_semi_infinite(spec, delta_control(3), 3)
    assert wf.u[1, 1] == 1.0
    assert wf.u[1, 2] == 0.0
    assert wf.u[1, 3] == 0.0


def test_semi_infinite_matches_naive_oracle():
    rng = np.random.default_rng(1)
    spec = random_spec(9, rng)
    f = rng.normal(size=8)
    wf = solve_semi_infinite(spec, f, 8)
    u_oracle = naive_forward(spec, f, 8, 8)
    assert np.allclose(wf.u[:9, :], u_oracle[:9, :], atol=1e-13)


def test_spec_too_short():
    with pytest.raises(SpecTooShortError):
        solve_semi_infinite(free_spec(3), delta_control(5), 5)


def test_finite_speed_and_front():
    rng = np.random.default_rng(2)
    spec = random_spec(8, rng)
    wf = solve_semi_infinite(spec, delta_control(7), 7)
    for n in range(1, 8):
        for t in range(n):
            assert wf.u[n, t] == 0.0
        front = np.prod(np.concatenate([[spec.a0], spec.a[: n - 1]]))
        assert wf.u[n, n] == pytest.approx(front, rel=1e-13)


def test_dirichlet_by_hand():
    spec = JacobiSpec(a0=1.0, a=[1.0], b=[0.0, 0.0])
    wf = solve_finite_dirichlet(spec, delta_control(4), 4)
    assert [wf.u[1, t] for t in (1, 2, 3, 4)] == [1.0, 0.0, 0.0, 0.0]


def test_dirichlet_agrees_with_semi_infinite_in_cone():
    rng = np.random.default_rng(3)
    spec = random_spec(10, rng)
    T = 6
    f = rng.normal(size=T)
    u = solve_semi_infinite(spec, f, T).u
    v = solve_finite_dirichlet(JacobiSpec(spec.a0, spec.a[:4], spec.b[:5]), f, T).u
    for n in range(1, 6):
        for t in range(n, 6):  # n <= t <= N = 5
            assert v[n, t] == pytest.approx(u[n, t], rel=1e-12, abs=1e-13)


def test_response_free():
    r = response_vector(free_spec(10), 5)
    assert np.array_equal(r.r, [1, 0, 0, 0, 0])


def test_response_r0_is_a0():
    spec = JacobiSpec(a0=2.0, a=[1.0], b=[0.0, 0.0])
    assert response_vector(spec, 1).r[0] == 2.0


def test_response_dirichlet_equals_chebyshev_integrals():
    spec = JacobiSpec(a0=1.0, a=[1.0], b=[0.0, 0.0])
    r = response_vector(spec, 4, bc="dirichlet")
    assert np.allclose(r.r, [1, 0, 0, 0], atol=1e-14)  # integrals of T_t against (+-1, 1/2)


def test_response_agreement_semi_vs_dirichlet():
    rng = np.random.default_rng(4)
    for n in (3, 5, 8):
        spec = random_spec(2 * n, rng)  # long block for the semi-infinite side
        block = JacobiSpec(spec.a0, spec.a[: n - 1], spec.b[:n])
        r_semi = response_vector(spec, 2 * n - 1).r
        r_dir = response_vector(block, 2 * n - 1, bc="dirichlet").r
        # agree for t <= 2N - 2
        assert np.allclose(r_semi[: 2 * n - 1], r_dir[: 2 * n - 1], rtol=1e-12, atol=1e-12)


def test_control_matrix_free():
    W = control_matrix(free_spec(3), 3)
    assert np.array_equal(W, np.eye(3))


def test_control_matrix_diagonal_is_front_products():
    rng = np.random.default_rng(5)
    spec = random_spec(6, rng)
    W = control_matrix(spec, 5)
    fronts = np.cumprod(np.concatenate([[spec.a0], spec.a[:4]]))
    assert np.allclose(np.diag(W), fronts, rtol=1e-13)


def test_control_matrix_single():
    spec = JacobiSpec(a0=1.5, a=[1.0], b=[0.0, 0.0])
    assert control_matrix(spec, 1)[0, 0] == 1.5


def test_gram_identity_real():
    rng = np.random.default_rng(6)
    for n in (4, 9, 15, 20):
        spec = random_spec(n + 1, rng, a0=float(rng.uniform(0.5, 2)))
        T = n
        W = control_matrix(spec, T)
        O = W @ np.eye(T)[::-1]  # operator on naturally ordered controls
        C = connecting_from_response(response_vector(spec, 2 * T - 1), T)
        scale = max(1.0, np.max(np.abs(C)))
        assert np.max(np.abs(C - O.T @ O)) <= 1e-10 * scale


def test_gram_identity_complex_plain_transpose():
    rng = np.random.default_rng(7)
    n = 7
    a = rng.uniform(0.5, 2, n - 1) + 1j * rng.uniform(-0.5, 0.5, n - 1)
    b = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    spec = JacobiSpec(a0=1.0 + 0.4j, a=a, b=b, mode="complex")
    T = n - 1
    W = control_matrix(spec, T)
    O = W @ np.eye(T)[::-1]
    C = connecting_from_response(response_vector(spec, 2 * T - 1), T)
    scale = max(1.0, np.max(np.abs(C)))
    # complex mode: C^T = (W^T)^t W^T with the plain transpose, and C is
    # complex symmetric (not Hermitian)
    assert np.max(np.abs(C - O.T @ O)) <= 1e-10 * scale
    assert np.max(np.abs(C - C.T)) == 0.0


def test_connecting_identity_for_free():
    r = response_vector(free_spec(12), 15)
    C = connecting_from_response(r, 8)
    assert np.array_equal(C, np.eye(8))


def test_connecting_printed_counterexample():
    C = connecting_from_response(np.array([1.0, 1, 0, 0, -1]), 3)
    assert np.array_equal(C, [[0, 1, 0], [1, 1, 1], [0, 1, 1]])


def test_connecting_symmetric():
    rng = np.random.default_rng(8)
    r = rng.normal(size=11)
    r[0] = abs(r[0]) + 0.1
    C = connecting_from_response(r, 6)
    assert np.array_equal(C, C.T)


def _connecting_reference(r, T):
    """Oracle: the entrywise double loop C_ij = r_0 sum_{k=0}^{T-max(i,j)} r_{|i-j|+2k}."""
    C = np.empty((T, T), dtype=r.dtype)
    for i in range(1, T + 1):
        for j in range(1, i + 1):
            ks = np.arange(T - i + 1)  # i >= j here
            C[i - 1, j - 1] = C[j - 1, i - 1] = np.sum(r[(i - j) + 2 * ks])
    return r[0] * C


@pytest.mark.parametrize("dtype", [float, complex])
def test_connecting_matches_entrywise_reference(dtype):
    rng = np.random.default_rng(11)
    for T in range(1, 41):
        for extra in (0, 3):  # entries beyond r_{2T-2} must be ignored
            r = rng.normal(size=2 * T - 1 + extra).astype(dtype)
            if dtype is complex:
                r += 1j * rng.normal(size=r.size)
            # each entry sums at most T terms, then takes the r_0 factor
            tol = 8 * T * np.finfo(float).eps * abs(r[0]) * np.max(np.abs(r))
            C = connecting_from_response(r, T)
            assert C.dtype == r.dtype
            assert np.max(np.abs(C - _connecting_reference(r, T))) <= tol


def test_connecting_spectral_representation():
    rng = np.random.default_rng(9)
    spec = random_spec(5, rng)
    mu = spectral_measure(spec)
    T = 7
    r = response_vector(spec, 2 * T - 1, bc="dirichlet")
    C = connecting_from_response(r, T)
    cheb = chebyshev_values(T, mu.lambdas)
    for l in range(T):
        for m in range(T):
            expect = np.sum(mu.weights * cheb[T - l] * cheb[T - m])
            assert C[l, m] == pytest.approx(expect, rel=1e-10, abs=1e-10)


def test_reverse_order():
    assert np.array_equal(reverse_order(np.eye(3)), np.eye(3))
    assert np.array_equal(reverse_order(np.array([[1.0, 2], [2, 5]])), [[5, 2], [2, 1]])
    C = connecting_from_response(np.array([1.0, 1, 0, 0, -1]), 3)
    assert np.array_equal(reverse_order(C), C[::-1, ::-1])


def test_reverse_order_rejects_nonsquare():
    with pytest.raises(ValueError):
        reverse_order(np.zeros((2, 3)))


def test_complex_sign_invariance():
    # negating any a_k leaves the response unchanged
    rng = np.random.default_rng(10)
    n = 6
    a = rng.uniform(0.5, 2, n - 1) + 1j * rng.uniform(-0.5, 0.5, n - 1)
    b = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    spec = JacobiSpec(a0=1.0, a=a, b=b, mode="complex")
    r_base = response_vector(spec, 2 * n - 1).r
    for k in range(n - 1):
        a_flip = a.copy()
        a_flip[k] = -a_flip[k]
        r_flip = response_vector(JacobiSpec(a0=1.0, a=a_flip, b=b, mode="complex"), 2 * n - 1).r
        assert np.allclose(r_base, r_flip, rtol=1e-12, atol=1e-12)


def test_control_matrix_agrees_with_dirichlet_states():
    # for T = N the semi-infinite and Dirichlet control operators coincide
    rng = np.random.default_rng(11)
    spec = random_spec(6, rng)
    T = 6
    W = control_matrix(spec, T)
    cols = []
    for s in range(T):
        f = np.zeros(T)
        f[s] = 1.0
        cols.append(solve_finite_dirichlet(spec, f, T).u[1 : T + 1, T])
    W_dirichlet = np.array(cols).T @ np.eye(T)[::-1]  # reorder to (f_{T-1}..f_0)
    assert np.allclose(W, W_dirichlet, rtol=1e-12, atol=1e-12)
