import numpy as np
import pytest

from bcjacobi.core import (
    SpectralMeasure,
    free_spec,
    moments_of_measure,
    random_spec,
    spectral_measure,
)
from bcjacobi.discrete_wave import connecting_from_response, reverse_order
from bcjacobi.errors import NotRealizableError
from bcjacobi.heat import heat_response
from bcjacobi.inverse_bc import invert_factorization
from bcjacobi.moments import (
    build_B,
    build_hankel_pair,
    indeterminacy_sequences,
    lambda_matrix,
    lambda_matrix_tilde,
    moments_to_response,
    response_to_moments,
    solvability,
    truncated_moment_naive,
    truncated_moment_spectral,
)

from ldl_oracle import _equilibrate


def poly_chebyshev_rows(n):
    """Oracle: monomial coefficient rows of T_t via explicit polynomial algebra."""
    rows = [np.zeros(n, dtype=object) for _ in range(n + 1)]
    rows[0][:] = 0
    if n >= 1:
        rows[1][0] = 1
    for t in range(1, n):
        shifted = np.roll(rows[t], 1)
        shifted[0] = 0
        rows[t + 1] = shifted - rows[t - 1]
    return np.array([rows[t][:n] for t in range(1, n + 1)], dtype=np.int64)


def test_lambda_matrix_first_rows():
    L = lambda_matrix(3)
    assert L[0].tolist() == [1, 0, 0]  # r_0 = s_0
    assert L[1].tolist() == [0, 1, 0]  # r_1 = s_1
    assert L[2].tolist() == [-1, 0, 1]  # r_2 = s_2 - s_0


def test_lambda_matrix_matches_polynomial_oracle():
    for n in (1, 5, 17, 30):
        assert np.array_equal(lambda_matrix(n), poly_chebyshev_rows(n))


def test_lambda_matrix_binomial_formula():
    # closed form with E_n^k = binom(n-1, k-1)
    from math import comb

    n = 12
    L = lambda_matrix(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i < j or (i + j) % 2 == 1:
                expect = 0
            else:
                m = (i + j) // 2
                expect = comb(m - 1, j - 1) * (-1) ** (m + j)
            assert L[i - 1, j - 1] == expect


def test_moment_response_examples():
    assert np.allclose(moments_to_response([1.0, 0, 1, 0]), [1, 0, 0, 0])
    # Dirac at 0: r_t = T_{t+1}(0) = 1, 0, -1, 0, 1, ...
    r = moments_to_response([1.0, 0, 0, 0, 0])
    assert np.allclose(r, [1, 0, -1, 0, 1])


def test_moment_response_roundtrip():
    rng = np.random.default_rng(20)
    s = rng.normal(size=14)
    s2 = response_to_moments(moments_to_response(s))
    assert np.allclose(s, s2, rtol=1e-12, atol=1e-12)


def test_hankel_pair_orderings():
    s = np.arange(8.0)
    pair = build_hankel_pair(s, 3)
    # reversed ordering: (S^N)_{ij} = s_{2N-i-j}
    assert pair.s0[0, 0] == s[4]
    assert pair.s0[2, 2] == s[0]
    assert pair.s1[0, 0] == s[5]
    classical = pair.flipped()
    assert classical.s0[0, 0] == s[0]
    assert classical.s0[2, 2] == s[4]
    # Hankel structure: constant anti-diagonals
    for i in range(3):
        for j in range(3):
            assert pair.s0[i, j] == s[4 - i - j]


def test_hankel_pair_matches_index_form():
    # oracle: the inline index form s_{2N-i-j} (+1 for the shifted matrix)
    rng = np.random.default_rng(33)
    for N in range(1, 12):
        s = rng.normal(size=2 * N + int(rng.integers(0, 3)))
        i = np.arange(1, N + 1)
        pair = build_hankel_pair(s, N)
        assert np.array_equal(pair.s0, s[2 * N - i[:, None] - i[None, :]])
        assert np.array_equal(pair.s1, s[2 * N - i[:, None] - i[None, :] + 1])


def test_build_B_scalar():
    # B^1 = (r_1) = s_1 via the moments map
    s = np.array([1.0, 0.37])
    r = moments_to_response(s)
    B = build_B(r, 1)
    assert B.shape == (1, 1)
    assert B[0, 0] == pytest.approx(0.37)


def test_build_B_free_two():
    r = np.array([1.0, 0, 0, 0])
    B = build_B(r, 2)
    assert np.allclose(B, [[0, 1], [1, 0]])


def test_build_B_symmetric_for_self_adjoint_data():
    rng = np.random.default_rng(21)
    for n in (2, 4, 7):
        mu = spectral_measure(random_spec(n, rng))
        s = moments_of_measure(mu, 2 * n - 1)
        B = build_B(moments_to_response(s), n)
        assert np.max(np.abs(B - B.T)) <= 1e-10 * max(1, np.max(np.abs(B)))


def test_ct_hankel_bridge():
    rng = np.random.default_rng(22)
    for n in (2, 5, 9):
        mu = spectral_measure(random_spec(n, rng))
        s = moments_of_measure(mu, 2 * n - 2)
        r = moments_to_response(s)
        C = connecting_from_response(r, n)
        Lt = lambda_matrix_tilde(n).astype(float)
        i = np.arange(1, n + 1)
        S0 = s[2 * n - i[:, None] - i[None, :]]
        assert np.max(np.abs(C - Lt @ S0 @ Lt.T)) <= 1e-9


def test_hankel_route_equivalence():
    # g = Lambda~^t f solves S1 g = lambda S0 g at the same eigenvalues
    from scipy.linalg import eigh

    rng = np.random.default_rng(23)
    n = 5
    mu = spectral_measure(random_spec(n, rng))
    s = moments_of_measure(mu, 2 * n - 1)
    r = moments_to_response(s)
    C = connecting_from_response(r, n)
    B = build_B(r, n)
    lam_c, F = eigh(0.5 * (B + B.T), C)
    pair = build_hankel_pair(s, n)
    lam_h, G = eigh(0.5 * (pair.s1 + pair.s1.T), pair.s0)
    assert np.allclose(lam_c, lam_h, rtol=1e-9, atol=1e-10)
    Lt = lambda_matrix_tilde(n).astype(float)
    for k in range(n):
        g = Lt.T @ F[:, k]
        resid = pair.s1 @ g - lam_c[k] * (pair.s0 @ g)
        assert np.max(np.abs(resid)) <= 1e-9


def test_truncated_spectral_two_atoms():
    mu = truncated_moment_spectral([1.0, 0.0, 1.0], 2)
    assert np.allclose(mu.lambdas, [-1, 1], atol=1e-12)
    assert np.allclose(mu.weights, [0.5, 0.5], atol=1e-12)


def test_truncated_spectral_single_atom():
    mu = truncated_moment_spectral([1.0, 0.7], 1)
    assert mu.atoms[0][0] == pytest.approx(0.7)
    assert mu.atoms[0][1] == pytest.approx(1.0)


def test_truncated_naive_examples():
    spec, mu = truncated_moment_naive([1.0, 0.0, 1.0], 2)
    assert np.allclose(mu.lambdas, [-1, 1], atol=1e-12)
    assert spec.a[0] == pytest.approx(1.0)
    spec, mu = truncated_moment_naive([1.0, 2.0, 4.0], 1)
    assert spec.b[0] == pytest.approx(2.0)
    assert mu.atoms[0][0] == pytest.approx(2.0)


def test_truncated_routes_agree():
    rng = np.random.default_rng(24)
    for n in (2, 4, 8, 12):
        mu = spectral_measure(random_spec(n, rng, a_range=(0.7, 1.4), b_range=(-0.5, 0.5)))
        s = moments_of_measure(mu, 2 * n - 1)
        mu_sp = truncated_moment_spectral(s, n)
        _, mu_nv = truncated_moment_naive(s, n)
        assert np.allclose(mu_sp.lambdas, mu_nv.lambdas, atol=1e-8)
        assert np.allclose(mu_sp.weights, mu_nv.weights, atol=1e-8)
        assert np.allclose(mu_sp.lambdas, mu.lambdas, atol=1e-8)
        assert np.allclose(mu_sp.weights, mu.weights, atol=1e-8)


def test_truncated_naive_last_diagonal_matches_longer_inversion():
    # b_N of the order-N problem is b_N of the order-(N+1) factorization,
    # whose partial sum S_N uses the same column of C_{N+1}
    rng = np.random.default_rng(25)
    for _ in range(12):
        n = int(rng.integers(1, 11))
        spec = random_spec(n + 1, rng)
        s = heat_response(spec, 2 * n + 1)
        rec, _ = truncated_moment_naive(s[: 2 * n], n)
        r = moments_to_response(s / s[0])
        ref = invert_factorization(r, n + 1).b[n - 1]
        Cs, _ = _equilibrate(reverse_order(connecting_from_response(r, n + 1)))
        tol = n * np.finfo(float).eps * np.linalg.cond(Cs) * max(1.0, abs(ref))
        assert abs(rec.b[-1] - ref) <= tol


def test_truncated_respects_mass():
    mu0 = SpectralMeasure(((-0.5, 1.0), (0.8, 2.0)))  # mass 3
    s = moments_of_measure(mu0, 3)
    mu = truncated_moment_spectral(s, 2)
    assert np.allclose(mu.weights, [1.0, 2.0], rtol=1e-10)


def test_truncated_rejects_indefinite():
    with pytest.raises(NotRealizableError):
        truncated_moment_spectral([1.0, 0.0, -1.0], 2)  # s_2 < 0 impossible


def test_truncated_naive_extension():
    # arbitrary extension appends coefficients before the eigensolve
    s = [1.0, 0.0, 1.0]
    spec, mu = truncated_moment_naive(s, 2, extension=[(1.0, 0.0)])
    assert spec.n == 3
    assert np.allclose(moments_of_measure(mu, 2), s, atol=1e-12)  # still solves the problem


def test_solvability_hamburger_pass_stieltjes_fail():
    s = moments_of_measure(SpectralMeasure(((-1.0, 0.5), (1.0, 0.5))), 8)
    rows_h = solvability(s, "hamburger", 3)
    assert all(row["solvable"] for row in rows_h)
    rows_s = solvability(s, "stieltjes", 2)
    assert not rows_s[1]["solvable"]  # S_1 has a negative eigenvalue at N = 2


def test_solvability_hausdorff():
    s = moments_of_measure(SpectralMeasure(((0.0, 0.5), (1.0, 0.5))), 10)
    rows = solvability(s, "hausdorff", 4)
    assert all(row["solvable"] for row in rows)  # atoms inside [0, 1]: never indefinite
    s_out = moments_of_measure(SpectralMeasure(((0.5, 0.5), (1.5, 0.5))), 10)
    rows_out = solvability(s_out, "hausdorff", 4)
    assert not all(row["solvable"] for row in rows_out)  # the 1.5 atom fails some N <= 5


def test_solvability_indefinite_input():
    rows = solvability([1.0, 0.0, -1.0], "hamburger", 2)
    assert not rows[1]["solvable"]


def test_indeterminacy_scalar_case():
    table = indeterminacy_sequences([1.0, 0.0, 1.0], 1)
    assert table["gamma_form"][0] == pytest.approx(1.0)  # Gamma_1 = (T_1(0)) = (1), form 1/s_0


def test_indeterminacy_derivative_values():
    # T_1'(0) = 0 and T_2'(0) = 1 enter Delta_N; check through the N = 2 form
    s = moments_of_measure(SpectralMeasure(((-1.0, 0.5), (1.0, 0.5))), 2)
    table = indeterminacy_sequences(s, 2)
    # Delta_2 = (T_2'(0), T_1'(0)) = (1, 0); C^2 = I for this measure
    assert table["delta_form"][1] == pytest.approx(1.0)


def test_indeterminacy_determinate_measure_grows():
    mu = SpectralMeasure(((-1.0, 0.5), (1.0, 0.5)))
    s = moments_of_measure(mu, 2 * 30 - 2)
    table = indeterminacy_sequences(s, 30)
    assert table["hamburger_trend"] == "growing"
    # the Gamma form is monotone nondecreasing where finite and exceeds any bound
    g = table["gamma_form"]
    assert np.nanmax(g[np.isfinite(g)]) > 1e3 or np.any(~np.isfinite(g))


def test_solvability_stieltjes_positive_measure():
    # strictly positive atoms: S0 and S1 both positive definite up to N = atoms
    mu = SpectralMeasure(((0.3, 0.4), (1.1, 0.35), (2.4, 0.25)))
    s = moments_of_measure(mu, 6)
    rows = solvability(s, "stieltjes", 3)
    assert all(row["solvable"] for row in rows)
    assert rows[0]["verdict_S0"] == "pass" and rows[0]["verdict_S1"] == "pass"
    assert rows[2]["verdict_S1"] == "pass"


def test_indeterminacy_stieltjes_quantities_finite():
    mu = SpectralMeasure(((0.3, 0.4), (1.1, 0.35), (2.4, 0.25)))
    s = moments_of_measure(mu, 2 * 3 - 2)
    table = indeterminacy_sequences(s, 3)
    assert np.all(np.isfinite(table["M"]))
    assert np.all(np.isfinite(table["L"][1:]))  # L_1 divides by (C^1)^{-1} Gamma_1 e1: fine too
    assert np.all(table["M"] > 0)
