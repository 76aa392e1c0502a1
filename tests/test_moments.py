import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcjacobi.core import (
    SpectralMeasure,
    free_spec,
    moments_of_measure,
    random_spec,
    spectral_measure,
)
from bcjacobi.discrete_wave import connecting_from_response, reverse_order
from bcjacobi.errors import InvalidInputError, NotRealizableError, SingularBlockError
from bcjacobi.heat import heat_response
from bcjacobi.inverse_bc import characterize, invert_factorization
from bcjacobi.moments import (
    HankelPair,
    _B_from_connecting,
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

from indeterminacy_oracle import dense_indeterminacy
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


def test_hankel_pair_round_trip():
    # flipping twice restores the reversed pair bit for bit, flag included
    pair = build_hankel_pair(np.random.default_rng(34).normal(size=9), 4)
    back = pair.flipped().flipped()
    assert pair.flipped().ordering == "classical" and back.ordering == "reversed"
    assert np.array_equal(back.s0, pair.s0) and np.array_equal(back.s1, pair.s1)


@pytest.mark.parametrize("args, kwargs, message", [
    ((np.eye(2), np.eye(2)), {"ordering": "classicl"}, "unknown ordering 'classicl'"),  # flipped() made it "reversed"
    (("x", None), {}, "s0 must be real numbers"),
    ((np.eye(2), None), {}, "s1 must be 2-D"),
    ((np.eye(2), [[1.0, np.nan], [0.0, 1.0]]), {}, "s1 must be finite"),
    ((np.eye(2), np.eye(2) * 1j), {}, "s1 must be real"),
    ((np.ones(2), np.ones(2)), {}, "s0 must be 2-D"),
    (([], []), {}, "square matrices of one shape"),
    ((np.ones((2, 3)), np.ones((2, 3))), {}, "square matrices of one shape"),
    ((np.eye(2), np.eye(3)), {}, "square matrices of one shape"),
], ids=["ordering", "string", "none", "nan", "complex", "1-D", "empty", "not-square", "shapes-differ"])
def test_hankel_pair_refuses_what_it_cannot_hold(args, kwargs, message):
    with pytest.raises(InvalidInputError, match=message):
        HankelPair(*args, **kwargs)


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


def test_truncated_spectral_matches_scipy_generalized_eigh():
    """The Cholesky reduction against scipy's eigh(B, C^N), which normalizes
    f^T C f = 1: atoms and weights agree within N eps cond(C^N), and the
    weights carry the mass s_0, which they do only under that normalization."""
    from scipy.linalg import eigh

    rng = np.random.default_rng(26)
    for n in (1, 2, 4, 8, 12):
        mu0 = spectral_measure(random_spec(n, rng, a_range=(0.7, 1.4), b_range=(-0.5, 0.5)))
        s = 3.0 * moments_of_measure(mu0, 2 * n - 1)
        r = moments_to_response(s / s[0])
        C = connecting_from_response(np.append(r, 0.0), n + 1)
        B = _B_from_connecting(C)
        lam, F = eigh(0.5 * (B + B.T), C[1:, 1:])
        mu = truncated_moment_spectral(s, n)
        tol = n * np.finfo(float).eps * np.linalg.cond(C[1:, 1:])
        assert np.max(np.abs(mu.lambdas - lam)) <= tol
        assert np.max(np.abs(mu.weights - s[0] * (r[n - 1 :: -1] @ F) ** 2)) <= tol * s[0]
        assert abs(np.sum(mu.weights) - s[0]) <= tol * s[0]


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


@pytest.mark.parametrize("s, N", [
    ([2.0, 0.0, -1.0, 0.0, 1.0], 3),  # s_2 < 0: C^T is not positive definite
    (moments_of_measure(SpectralMeasure(((-0.5, 1.0), (0.8, 2.0))), 5), 3),  # two atoms, C_3 singular
])
def test_truncated_naive_refuses_with_the_verdict_of_characterize(s, N):
    s = np.asarray(s)
    verdict = characterize(moments_to_response(s / s[0]), N)
    assert not verdict.admissible
    with pytest.raises(SingularBlockError) as exc:
        truncated_moment_naive(s, N)
    assert str(exc.value) == verdict.detail


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


@pytest.mark.parametrize("N_max", [0, 2.5, True])
def test_indeterminacy_refuses_a_size_that_is_not_a_positive_integer(N_max):
    # N_max = 0 used to return empty sequences, 2.5 to end in a slicing TypeError
    with pytest.raises(InvalidInputError, match="N_max must be an integer"):
        indeterminacy_sequences([1.0, 0.0, 1.0, 0.0, 1.0], N_max)


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


def test_indeterminacy_of_a_null_mass_determines_no_row():
    # s_0 = 0 makes every C^N zero: no row is determined, and nothing divides by zero
    table = indeterminacy_sequences([0.0, 1.0, 2.0], 2)
    assert table["sweep_depth"] == 0
    assert np.all(table["gamma_form"] == np.inf) and np.all(np.isnan(table["L"]))


def _draw_moments(atoms, N_max, seed):
    """s_0..s_{2N_max-2} of the spectral measure of random_spec(atoms, default_rng(seed))."""
    mu = spectral_measure(random_spec(atoms, np.random.default_rng(seed)))
    return moments_of_measure(mu, 2 * N_max - 2)


def _hankel_inverse_diagonal(s, N):
    """(H_N^{-1})_00 and (H_N^{-1})_11 of the classical Hankel H_N = (s_{i+j}), in 50-digit mpmath."""
    with mpmath.workdps(50):
        H = mpmath.matrix([[mpmath.mpf(float(s[i + j])) for j in range(N)] for i in range(N)])
        e = [mpmath.matrix([float(i == k) for i in range(N)]) for k in range(min(N, 2))]
        return [float(mpmath.lu_solve(H, ek)[k]) for k, ek in enumerate(e)]


@pytest.mark.parametrize("atoms, N_max", [(12, 6), (12, 10), (20, 8)])
def test_indeterminacy_forms_are_hankel_inverse_entries(atoms, N_max):
    # Gamma_N = (H_N^{-1})_00 / s_0 and Delta_N = (H_N^{-1})_11 / s_0: the forms
    # are the reproducing kernel of degree < N polynomials and its second derivative
    for seed in range(10):
        s = _draw_moments(atoms, N_max, seed)
        table = indeterminacy_sequences(s, N_max)
        assert table["sweep_depth"] == N_max
        for N in range(1, N_max + 1):
            ref = _hankel_inverse_diagonal(s, N)
            for got, want in zip((table["gamma_form"][N - 1], table["delta_form"][N - 1]), ref):
                assert abs(got - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("atoms, N_max", [(12, 6), (12, 10), (20, 8)])
def test_indeterminacy_matches_dense_oracle(atoms, N_max):
    # the dense route is itself up to 4e-10 off the 50-digit reference on these
    # draws, so the two routes are compared at 1e-8
    for seed in range(10):
        s = _draw_moments(atoms, N_max, seed)
        table = indeterminacy_sequences(s, N_max)
        for key, ref in zip(("gamma_form", "delta_form", "L"), dense_indeterminacy(s, N_max)):
            got = table[key]
            assert np.array_equal(np.isfinite(got), np.isfinite(ref))
            ok = np.isfinite(ref)
            assert np.all(np.abs(got[ok] - ref[ok]) <= 1e-8 * np.abs(ref[ok]))


@pytest.mark.parametrize("c", [0.2, 3.0])
@pytest.mark.parametrize("atoms, N_max", [(12, 6), (20, 8)])
def test_indeterminacy_scales_with_the_mass(atoms, N_max, c):
    # s -> c s scales the Hankel matrices by c: the forms go as 1/c^2 and L as c
    for seed in range(10):
        s = _draw_moments(atoms, N_max, seed)
        base, scaled = indeterminacy_sequences(s, N_max), indeterminacy_sequences(c * s, N_max)
        for key, factor in (("gamma_form", c**-2), ("delta_form", c**-2), ("L", c)):
            want = factor * base[key]
            assert np.all(np.abs(scaled[key] - want) <= 1e-9 * np.abs(want))


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


MOMENT_ENTRY_POINTS = {
    "moments_to_response": lambda s: moments_to_response(s),
    "build_hankel_pair": lambda s: build_hankel_pair(s, 2),
    "truncated_moment_spectral": lambda s: truncated_moment_spectral(s, 2),
    "truncated_moment_naive": lambda s: truncated_moment_naive(s, 2),
    "solvability": lambda s: solvability(s, "hamburger", 2),
    "indeterminacy_sequences": lambda s: indeterminacy_sequences(s, 2),
    # the two that take a response rather than moments
    "response_to_moments": lambda r: response_to_moments(r),
    "build_B": lambda r: build_B(r, 2),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", sorted(MOMENT_ENTRY_POINTS))
def test_moment_entry_points_refuse_non_finite(entry, bad):
    with pytest.raises(InvalidInputError, match="finite"):
        MOMENT_ENTRY_POINTS[entry]([1.0, 0.0, bad, 0.0])


@pytest.mark.parametrize("entry", sorted(MOMENT_ENTRY_POINTS))
def test_moment_entry_points_refuse_complex(entry):
    # a cast to float would drop the imaginary parts with only a warning
    for data in (np.array([1.0, 1j, 1.0, 0.0]), [1.0, 0.0, 1.0 + 0j, 0.0]):
        with pytest.raises(InvalidInputError, match="must be real"):
            MOMENT_ENTRY_POINTS[entry](data)


def build_B_reference(r, N):
    """B^N = E^* (V^{N+1})^* C^{N+1} E + C^N V^N from two connecting builds and a dense shift V^N."""
    r = r if r.size > 2 * N else np.append(r, 0.0)
    VN = np.zeros((N, N))
    VN[np.arange(1, N), np.arange(N - 1)] = 1.0
    return connecting_from_response(r, N + 1)[1:, :N] + connecting_from_response(r, N) @ VN


@settings(max_examples=60)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=41))
def test_nested_moment_blocks_are_slices_of_one_build(entries):
    x = np.array(entries)
    N_max = x.size // 2
    pair = build_hankel_pair(x, N_max)
    for N in range(1, N_max + 1):
        assert np.array_equal(build_B(x, N), build_B_reference(x, N))
        sub = build_hankel_pair(x, N)
        assert np.array_equal(sub.s0, pair.s0[-N:, -N:]) and np.array_equal(sub.s1, pair.s1[-N:, -N:])
