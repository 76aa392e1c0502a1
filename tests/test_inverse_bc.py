import logging
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcjacobi.core import JacobiSpec, chebyshev_values, free_spec, random_spec
from bcjacobi.discrete_wave import (
    ResponseVector,
    connecting_from_response,
    control_matrix,
    response_vector,
    reverse_order,
)
from bcjacobi.errors import InvalidInputError, NumericalFailureError, SingularBlockError
from bcjacobi.inverse_bc import (
    PIVOT_TOL,
    _chebyshev_sweep,
    characterize,
    invert_factorization,
    kappa_vector,
    nested_min_singular_values,
    response_matrix,
    roundtrip_report,
    schrodinger_check,
    schrodinger_even_entries,
    solve_krein,
)
from bcjacobi.weyl_debranges import beta_sequences

import ldl_oracle
import sweep_oracle
from ldl_oracle import _equilibrate, _ldl_pivots


def test_invert_free():
    rep = invert_factorization(np.array([1.0, 0, 0, 0, 0]), 3)
    assert np.allclose(rep.a, [1.0, 1.0])
    assert np.allclose(rep.b, [0.0, 0.0])
    assert rep.a0 == 1.0


def test_invert_two_site_roundtrip():
    spec = JacobiSpec(a0=1.0, a=[1.0], b=[0.0, 0.0])
    r = response_vector(spec, 3)
    rep = invert_factorization(r, 2)
    assert rep.a[0] == pytest.approx(1.0, abs=1e-14)
    assert rep.b[0] == pytest.approx(0.0, abs=1e-14)


def test_invert_refuses_singular_block():
    with pytest.raises(SingularBlockError):
        invert_factorization(np.array([1.0, 1, 0, 0, -1]), 3)


def test_invert_recovers_a0():
    spec = JacobiSpec(a0=1.7, a=[0.9, 1.2], b=[0.3, -0.4, 0.1])
    r = response_vector(spec, 5)
    rep = invert_factorization(r, 3)
    assert rep.a0 == pytest.approx(1.7, rel=1e-13)
    assert np.allclose(rep.a, spec.a[:2], rtol=1e-10)
    assert np.allclose(rep.b, spec.b[:2], rtol=1e-10, atol=1e-12)


def test_roundtrip_random_real():
    rng = np.random.default_rng(11)
    for _ in range(12):
        n = int(rng.integers(2, 13))
        spec = random_spec(n, rng)
        rep = roundtrip_report(spec, n)
        assert rep.coeff_error <= 1e-8
        assert rep.residual <= 1e-10


def test_roundtrip_free_exact():
    rep = roundtrip_report(free_spec(6), 6)
    assert rep.coeff_error == 0.0


def test_roundtrip_complex_recovers_a_squared():
    rng = np.random.default_rng(12)
    n = 8
    a = rng.uniform(0.5, 2, n - 1) + 1j * rng.uniform(-0.5, 0.5, n - 1)
    b = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    spec = JacobiSpec(a0=1.0 + 0.2j, a=a, b=b, mode="complex")
    rep = roundtrip_report(spec, n)
    assert rep.coeff_error <= 1e-8
    assert np.allclose(rep.a_sq, spec.a[: n - 1] ** 2, rtol=1e-8)
    # sign of a_k is unrecoverable: a holds principal roots, which can differ
    # from the true a_k, yet the residual is still tiny
    assert rep.residual <= 1e-10


def test_determinant_diagnostics_length():
    spec = random_spec(6, np.random.default_rng(13))
    r = response_vector(spec, 11)
    rep = invert_factorization(r, 6)
    assert rep.determinants.shape == (6,)


@pytest.mark.parametrize("a0", [2.0, 0.7 - 1.3j])
def test_determinants_are_the_leading_minors_for_any_a0(a0):
    # det C_k of the unnormalized data, r_0^(2k) times the minors of r / r_0
    rng = np.random.default_rng(3)
    spec = random_spec(6, rng, a0=2.0)
    if isinstance(a0, complex):
        spec = JacobiSpec(a0=a0, a=spec.a + 0.2j, b=spec.b - 0.1j, mode="complex")
    r = response_vector(spec, 9)
    C = reverse_order(connecting_from_response(r, 5))
    minors = [np.linalg.det(C[:k, :k]) for k in range(1, 6)]
    assert invert_factorization(r, 5).determinants == pytest.approx(minors, rel=1e-10)


def test_factorization_diagonal_identity():
    # q_{kk} prod_{j<k} a_j = 1 from the computed W inverse on a small instance
    rng = np.random.default_rng(14)
    spec = random_spec(6, rng)
    T = 5
    W = control_matrix(spec, T)  # triangular factor: the operator is W J_T
    Winv = np.linalg.inv(W)
    fronts = np.cumprod(np.concatenate([[spec.a0], spec.a[: T - 1]]))
    assert np.allclose(np.diag(Winv) * fronts, np.ones(T), rtol=1e-10)


def test_kappa_vector_is_reversed_chebyshev():
    lam = 0.73
    kap = kappa_vector(5, lam)
    from bcjacobi.core import chebyshev_values

    vals = chebyshev_values(5, lam)
    assert np.allclose(kap, vals[5:0:-1])
    # boundary data: kappa_{T-1} = 1, and the recurrence extends to kappa_T = 0
    assert kap[-1] == 1.0


def test_response_matrix_shifted_convolution():
    r = np.array([2.0, 3.0, 5.0, 7.0])
    M = response_matrix(r, 4)
    assert np.array_equal(np.diag(M), np.zeros(4))  # strictly lower
    f = np.array([1.0, 1.0, 0.0, 0.0])
    out = M @ f
    # component t: sum_{s<t} r_{t-1-s} f_s
    assert out[1] == 2.0
    assert out[2] == 3.0 + 2.0
    assert out[3] == 5.0 + 3.0


def test_krein_identity_free():
    # free system, alpha = 0, beta = 1, lambda = 0, T = 2: C = I so f = kappa
    C = np.eye(2)
    f = solve_krein(C, np.array([1.0, 0.0]), 0.0, 0.0, 1.0, 2)
    assert np.allclose(f, kappa_vector(2, 0.0))


def test_krein_zero_data():
    C = np.eye(3)
    f = solve_krein(C, np.array([1.0, 0, 0]), 1.3, 0.0, 0.0, 3)
    assert np.array_equal(f, np.zeros(3))


def test_krein_refuses_singular_c():
    # numpy's LinAlgError used to escape here
    with pytest.raises(SingularBlockError, match="C is singular"):
        solve_krein(np.zeros((2, 2)), [1.0, 0.0, 0.0], 0.5, 0.0, 1.0, 2)


def test_krein_refuses_non_finite_c():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError, match="C must be finite"):
            solve_krein(np.array([[1.0, bad], [0.0, 1.0]]), [1.0, 0.0, 0.0], 0.5, 0.0, 1.0, 2)


def test_krein_solves_control_problem():
    # W^T f^T = y^T(lambda) for random specs and several lambda
    rng = np.random.default_rng(15)
    for trial in range(4):
        T = int(rng.integers(3, 9))
        spec = random_spec(T + 1, rng)  # a0 = 1 per the normalization
        r = response_vector(spec, 2 * T - 1)
        C = connecting_from_response(r, T)
        W = control_matrix(spec, T)
        for lam in (-2.0, -1.0, 0.0, 1.0, 2.0):
            alpha, beta = rng.normal(), rng.normal()
            f = solve_krein(C, r, lam, alpha, beta, T)
            # y recurrence: y_0 = alpha, y_1 = beta
            aa = np.concatenate([[spec.a0], spec.a])
            y = np.zeros(T + 1)
            y[0], y[1] = alpha, beta
            for k in range(1, T):
                y[k + 1] = ((lam - spec.b[k - 1]) * y[k] - aa[k - 1] * y[k - 1]) / aa[k]
            state = W @ f[::-1]
            assert np.max(np.abs(state - y[1 : T + 1])) <= 1e-8


def test_characterize_free_admissible():
    r = response_vector(free_spec(8), 9)
    assert characterize(r, 5).admissible


def test_characterize_complex_counterexample():
    res = characterize(ResponseVector([1.0, 1, 0, 0, -1], mode="complex"), 3)
    assert not res.admissible


def test_characterize_indefinite():
    res = characterize(np.array([1.0, 10.0, 0.0]), 2)
    assert not res.admissible  # det of the 2x2 block is 1 - 100 < 0



def test_each_refusal_logs_one_debug_record(caplog):
    caplog.set_level(logging.DEBUG, logger="bcjacobi")
    res = characterize(np.array([1.0, 10.0, 0.0]), 2)
    with pytest.raises(SingularBlockError):
        invert_factorization(ResponseVector([1.0, 1, 0, 0, -1], mode="complex"), 3)
    assert characterize(response_vector(free_spec(8), 9), 5).admissible  # no record
    refused = [rec for rec in caplog.records if rec.name == "bcjacobi.inverse_bc"]
    assert [rec.levelno for rec in refused] == [logging.DEBUG] * 2
    assert refused[0].getMessage() == f"real response refused at T = 2: {res.detail}"
    assert refused[1].getMessage().startswith("complex response refused at T = 3: leading block C_")

def test_characterization_soundness():
    # every simulated response passes; every failing response makes the
    # inversion refuse (shared pivot machinery)
    rng = np.random.default_rng(16)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        spec = random_spec(n, rng)
        r = response_vector(spec, 2 * n - 1)
        assert characterize(r, n).admissible
    bad = np.array([1.0, 10.0, 0.0])
    assert not characterize(bad, 2).admissible
    with pytest.raises(SingularBlockError):
        invert_factorization(bad, 2)


def test_schrodinger_free_passes():
    r = response_vector(free_spec(8), 11)
    res = schrodinger_check(r, 6)
    assert res.passes
    assert np.allclose(res.determinants, 1.0, atol=1e-10)


def test_schrodinger_scalar_minor():
    # any r with r_0 = 1 has det C^1 = 1 automatically
    spec = JacobiSpec(a0=1.0, a=[1.0, 1.0], b=[1.0, 0.0, 0.0])
    r = response_vector(spec, 3)
    res = schrodinger_check(r, 1)
    assert res.passes


def test_schrodinger_refuses_short_response():
    with pytest.raises(InvalidInputError, match="2T-1"):
        schrodinger_check([], 1)
    with pytest.raises(InvalidInputError, match="2T-1"):
        schrodinger_check([1.0, 0.0], 2)


def test_schrodinger_detects_nonunit_a():
    rng = np.random.default_rng(17)
    spec = JacobiSpec(a0=1.0, a=[1.6, 0.7, 1.2], b=rng.uniform(-1, 1, 4))
    r = response_vector(spec, 7)
    assert not schrodinger_check(r, 4).passes


def test_schrodinger_compares_complex_minors():
    # det C^2 = a_1^2 = 1 + 0.5j; comparing real parts alone used to pass it
    spec = JacobiSpec(a0=1.0, a=[np.sqrt(1 + 0.5j)], b=[0.2, 0.0], mode="complex")
    res = schrodinger_check(response_vector(spec, 3), 2)
    assert not res.passes and res.detail == "det C^l deviates from 1"
    assert res.determinants[1] == pytest.approx(1 + 0.5j, abs=1e-12)


def test_schrodinger_even_entry_dependence():
    # build a Schroedinger response, strip the even entries, and reconstruct them
    rng = np.random.default_rng(18)
    n = 6
    spec = JacobiSpec(a0=1.0, a=np.ones(n - 1), b=rng.uniform(-1, 1, n))
    T = n
    r = response_vector(spec, 2 * T - 1).r
    rebuilt = schrodinger_even_entries(r[1::2], T)
    assert np.allclose(rebuilt, r, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("odd, message", [
    ([1j, 0.5], "odd entries must be real"),
    (["a", 0.5], "odd entries must be real numbers"),
    ([np.nan, 0.5], "odd entries must be finite"),
])
def test_schrodinger_even_entries_refuses_malformed_odd_entries(odd, message):
    # a float cast used to end in a bare TypeError or ValueError
    with pytest.raises(InvalidInputError, match=message):
        schrodinger_even_entries(odd, 3)


def test_schrodinger_even_entries_names_a_singular_block():
    # r_3 = 1e8 makes r_4 ~ 1e16, and C_3, of determinant 1 in exact arithmetic, is
    # singular in floats; numpy's LinAlgError escaped
    with pytest.raises(SingularBlockError, match="nested block C_3 is singular"):
        schrodinger_even_entries([1.0, 1e8, 1.0], 4)


@pytest.mark.parametrize("action", ["error", "default", "ignore"])
def test_schrodinger_even_entries_refuses_an_overflowed_entry_under_any_warning_filter(action):
    # r_2 = 1 + r_1^2 - r_0 overflows: it was refused as a non-finite response by the next build
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        with pytest.raises(NumericalFailureError, match="implied entry r_2 overflows the float range"):
            schrodinger_even_entries([1e200] * 3, 4)
    assert seen == []


def test_perturbed_response_fails_characterization():
    # a 1e-2 relative perturbation of genuine data is detectable: the
    # connecting matrix loses positive definiteness at depth
    rng = np.random.default_rng(19)
    spec = random_spec(12, rng)
    r = response_vector(spec, 23).r
    scale = np.max(np.abs(r))
    r_pert = r + 1e-2 * scale * rng.normal(size=r.size)
    res = characterize(r_pert, 12)
    assert not res.admissible


def test_characterize_agrees_with_inversion():
    # both verdicts run one pivot sweep on r / r_0; when characterize scaled
    # C(r) by 1/r_0 instead, 8 of these 800 cases disagreed (e.g. seed 41 at
    # T = 24 admitted but refused, seed 147 at T = 22 refused but inverted)
    for T in (22, 24):
        for seed in range(400):
            rng = np.random.default_rng(seed)
            a0 = rng.uniform(0.3, 3.0)
            spec = random_spec(T, rng, a0=a0)
            r = response_vector(spec, 2 * T - 1)
            try:
                invert_factorization(r, T)
                inverts = True
            except SingularBlockError:
                inverts = False
            assert characterize(r, T).admissible == inverts, (seed, T)


def _assert_one_decision(r, T):
    """invert_factorization refuses exactly where characterize is inadmissible, with its detail."""
    verdict = characterize(r, T)
    try:
        invert_factorization(r, T)
    except SingularBlockError as exc:
        assert not verdict.admissible and str(exc) == verdict.detail, (T, verdict.detail)
    else:
        assert verdict.admissible, (T, verdict.detail)
    return verdict


def test_inversion_refuses_with_the_verdict_of_characterize():
    # the family of test_characterize_agrees_with_inversion, now with the message
    refused = 0
    for T in (22, 24):
        for seed in range(400):
            rng = np.random.default_rng(seed)
            spec = random_spec(T, rng, a0=rng.uniform(0.3, 3.0))
            refused += not _assert_one_decision(response_vector(spec, 2 * T - 1), T).admissible
    assert 0 < refused < 800


def test_complex_responses_are_judged_in_complex_mode():
    # characterize used to default to real mode and call these inadmissible
    rng = np.random.default_rng(27)
    for _ in range(10):
        n = int(rng.integers(2, 14))
        r = response_vector(_complex_spec(n, rng), 2 * n - 1)
        verdict = _assert_one_decision(r, n)
        assert verdict.admissible and verdict.mode == "complex"
        assert characterize(r.r, n).mode == "complex"  # raw complex entries too


@pytest.mark.parametrize("r, T, detail", [
    (ResponseVector([-1.0, 0.0, 1.0]), 2, "r_0 = a_0 is not positive"),
    (ResponseVector([0.0, 1.0, 0.0], mode="complex"), 2, "r_0 = a_0 vanishes"),
    (ResponseVector([1.0, 10.0, 0.0]), 2, "C^T is not positive definite"),
    (ResponseVector([1.0, 10.0, 0.0], mode="complex"), 2, "all nested blocks are isomorphisms"),
    (ResponseVector([1.0, 1, 0, 0, -1]), 3, "leading block C_2 is not invertible"),
    (ResponseVector([1.0, 1, 0, 0, -1], mode="complex"), 3, "leading block C_2 is not invertible"),
])
def test_one_decision_on_hand_made_data(r, T, detail):
    verdict = _assert_one_decision(r, T)
    assert verdict.detail.startswith(detail)
    if r.r[0] == 1 and not verdict.admissible:  # past its own r_0 = 1 test, the verdict decides
        checked = schrodinger_check(r, T)
        assert not checked.passes and checked.detail == verdict.detail


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_characterize_refuses_non_finite_entries(bad):
    res = characterize(np.array([1.0, bad, 1.0]), 2)
    assert not res.admissible and "not invertible" in res.detail


@pytest.mark.parametrize("action", ["error", "default", "ignore"])
@pytest.mark.parametrize("r, block", [
    ([1.0, 1e80, 1e169, -1e241, 1e231], 3),  # was admitted, "C^T positive definite", pivot +inf
    ([1.0, 1e200, 1e300, 1e300, 1e300], 2),
    ([1.0, 0.0, 1e200, 0.0, 1e300], 3),
])
def test_an_overflowed_pivot_is_refused_under_any_warning_filter(r, block, action):
    # a pivot of +-inf passed the test |pivot| > tol; numpy's overflow warning must
    # neither end the call (python -W error) nor be all that is said of it
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        verdict = characterize(r, 3)
        with pytest.raises(SingularBlockError) as refused:
            invert_factorization(r, 3)
    assert seen == []
    assert not verdict.admissible and str(refused.value) == verdict.detail
    assert verdict.detail.startswith(f"leading block C_{block} overflowed the float range")


_HUGE = st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]),
                                          st.floats(-300.0, 300.0)))


@settings(max_examples=300)
@given(st.integers(1, 6).flatmap(lambda T: st.tuples(st.just(T), st.lists(_HUGE, min_size=2 * T - 1,
                                                                           max_size=2 * T - 1))))
def test_verdict_and_inversion_agree_on_entries_up_to_1e300(case):
    """characterize admits no pivot that is not finite; the inversion raises its
    SingularBlockError, with its detail, exactly where it is inadmissible, and
    on admissible data nothing but the re-simulation's NumericalFailureError."""
    T, r = case
    verdict = characterize(r, T)
    if not verdict.admissible:
        with pytest.raises(SingularBlockError) as refused:
            invert_factorization(r, T)
        assert str(refused.value) == verdict.detail
        return
    assert np.isfinite(verdict.diagnostics["scaled_pivots"]).all()
    try:
        invert_factorization(r, T)
    except NumericalFailureError as exc:
        assert "overflows the float range" in str(exc)


def test_invert_horizon_one():
    spec = JacobiSpec(a0=2.5, a=[1.0], b=[0.3, 0.0])
    r = response_vector(spec, 1)
    rep = invert_factorization(r, 1)
    assert rep.a0 == 2.5
    assert rep.a.size == 0 and rep.b.size == 0
    assert rep.residual == 0.0


def test_characterize_complex_valid_response():
    rng = np.random.default_rng(20)
    n = 6
    a = rng.uniform(0.5, 2, n - 1) + 1j * rng.uniform(-0.5, 0.5, n - 1)
    b = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    spec = JacobiSpec(a0=1.0 + 0.1j, a=a, b=b, mode="complex")
    r = response_vector(spec, 2 * n - 1)
    assert characterize(r, n).admissible


def _complex_spec(n, rng):
    a = rng.uniform(0.5, 2, n - 1) + 1j * rng.uniform(-0.5, 0.5, n - 1)
    b = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    return JacobiSpec(a0=1.0 + 0.2j, a=a, b=b, mode="complex")


def _b_reference(r, T):
    """Oracle: S_k = last component of C_k^{-1} c_k by two triangular solves per k.

    Returns b and the condition number of the equilibrated C_T, which bounds
    how far two backward-stable routes to S_k may differ.
    """
    C = reverse_order(connecting_from_response(r / r[0], T))
    Cs, D = _equilibrate(C)
    L, ds = _ldl_pivots(Cs)
    S = np.zeros(T, dtype=C.dtype)
    for k in range(1, T):
        x = np.linalg.solve(L[:k, :k], D[:k] * C[:k, k])
        x = np.linalg.solve(L[:k, :k].T, x / ds[:k])
        S[k] = D[k - 1] * x[-1]
    return np.diff(np.concatenate([[0.0], S[1:]])), np.linalg.cond(Cs)


@pytest.mark.parametrize("mode", ["real", "complex"])
def test_partial_sums_match_triangular_solve_reference(mode):
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 14))
        spec = random_spec(n, rng) if mode == "real" else _complex_spec(n, rng)
        r = response_vector(spec, 2 * n - 1).r
        rep = invert_factorization(r, n)
        b_ref, cond = _b_reference(r, n)
        tol = n * np.finfo(float).eps * cond * max(1.0, np.max(np.abs(b_ref), initial=0.0))
        assert np.max(np.abs(rep.b - b_ref), initial=0.0) <= tol


def _assert_sweep_matches_ldl_oracle(r, n):
    """ds, a_k^2 = d_k / d_{k-1} and b of the sweep against the LDL^t oracle,
    within n eps cond of the equilibrated C_n."""
    eps = np.finfo(float).eps
    b, d, ds, _ = _chebyshev_sweep(r, n)
    Cs, D = _equilibrate(reverse_order(connecting_from_response(r / r[0], n)))
    _, ds_ref = _ldl_pivots(Cs)
    a_sq_ref = (ds_ref[1:] / ds_ref[:-1]) * (D[:-1] / D[1:]) ** 2
    b_ref, cond = _b_reference(r, n)
    for got, ref in ((ds, ds_ref), (d[1:] / d[:-1], a_sq_ref), (b, b_ref)):
        tol = n * eps * cond * max(1.0, np.max(np.abs(ref), initial=0.0))
        assert np.max(np.abs(got - ref), initial=0.0) <= tol


@pytest.mark.parametrize("mode", ["real", "complex"])
def test_chebyshev_sweep_matches_ldl_oracle(mode):
    rng = np.random.default_rng(26)
    for _ in range(10):
        n = int(rng.integers(2, 14))
        spec = random_spec(n, rng) if mode == "real" else _complex_spec(n, rng)
        _assert_sweep_matches_ldl_oracle(response_vector(spec, 2 * n - 1).r, n)


@settings(max_examples=60)
@given(st.integers(2, 13).flatmap(lambda n: st.tuples(  # the ranges of random_spec
    st.lists(st.floats(0.5, 2.0), min_size=n - 1, max_size=n - 1),
    st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))))
def test_chebyshev_sweep_matches_ldl_oracle_on_drawn_blocks(ab):
    spec = JacobiSpec(a0=1.0, a=ab[0], b=ab[1])
    _assert_sweep_matches_ldl_oracle(response_vector(spec, 2 * spec.n - 1).r, spec.n)


@settings(max_examples=100)
@given(st.integers(2, 12).flatmap(lambda T: st.tuples(st.just(T), st.lists(
    st.tuples(st.floats(-2.0, 2.0), st.floats(0.05, 1.0)), min_size=1, max_size=T - 1,
    unique_by=lambda atom: atom[0]))))
def test_sweep_cut_at_its_depth_equals_a_sweep_to_that_depth(draw):
    # a measure with fewer atoms than T makes some nested block singular;
    # the sweep stops there, and what it returns is what a sweep to that depth returns
    T, atoms = draw
    lam, w = np.array(atoms).T
    r = chebyshev_values(2 * T - 1, lam)[1:] @ w  # r_t = sum_j w_j pi_t(lambda_j)
    b, d, ds, _ = _chebyshev_sweep(r, T)
    depth = d.size
    b_ref, d_ref, ds_ref, refusal = _chebyshev_sweep(r, depth)
    assert refusal is None
    assert np.array_equal(b, b_ref) and np.array_equal(d, d_ref) and np.array_equal(ds, ds_ref)


@st.composite
def sweep_inputs(draw, max_T=16):
    """A horizon T and 2T - 1 or 2T response entries of a measure with 1..T + 1 atoms,
    real or with complex weights; fewer than T atoms make a nested block singular."""
    T = draw(st.integers(1, max_T))
    k = draw(st.integers(1, T + 1))
    floats = lambda lo, hi: np.array(draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k)))
    lam, w = floats(-2.0, 2.0), floats(0.05, 1.0)
    if draw(st.booleans()):
        w = w * np.exp(1j * floats(-np.pi, np.pi))
    r = chebyshev_values(2 * T - 1 + draw(st.integers(0, 1)), lam)[1:] @ w
    return T, r


@settings(max_examples=300)
@given(sweep_inputs())
def test_sweep_matches_whole_row_oracle_bit_for_bit(case):
    # the rotating-row sweep against the whole-row sweep it replaced, refusals included
    T, r = case
    b, d, ds, refusal = _chebyshev_sweep(r, T)
    b_ref, d_ref, ds_ref, refusal_ref = sweep_oracle.chebyshev_sweep(r, T)
    for got, ref in ((b, b_ref), (d, d_ref), (ds, ds_ref)):
        assert got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()
    assert refusal == refusal_ref


def test_characterize_keeps_at_most_two_connecting_sized_arrays():
    # the refusal scale reads the connecting matrix reversed in place and scales one
    # triangle copy in place; three T x T arrays were alive when it was copied reversed
    T = 1600
    r = response_vector(free_spec(T), 2 * T - 1)
    tracemalloc.start()
    try:
        verdict = characterize(r, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.admissible and peak < 2.5 * 8 * T * T


def _oracle_admits(r, T):
    """Real-mode verdict of the LDL^t oracle on the equilibrated C_T of r / r_0."""
    Cs, _ = _equilibrate(reverse_order(connecting_from_response(r / r[0], T)))
    try:
        _, ds = _ldl_pivots(Cs)
    except SingularBlockError:
        return False
    return bool(np.all(ds > 0))


def test_sweep_verdicts_match_ldl_oracle_away_from_threshold(monkeypatch):
    # the family of test_characterize_agrees_with_inversion; the two routes
    # round differently, so a verdict may flip only where the oracle's own
    # verdict changes when its threshold is halved or doubled
    for T in (22, 24):
        for seed in range(400):
            rng = np.random.default_rng(seed)
            spec = random_spec(T, rng, a0=rng.uniform(0.3, 3.0))
            r = response_vector(spec, 2 * T - 1).r
            if characterize(r, T).admissible == _oracle_admits(r, T):
                continue
            near = []
            for factor in (0.5, 2.0):
                monkeypatch.setattr(ldl_oracle, "PIVOT_TOL", factor * PIVOT_TOL)
                near.append(_oracle_admits(r, T))
            monkeypatch.undo()
            assert near[0] != near[1], (seed, T)


@pytest.mark.parametrize("mode", ["real", "complex"])
def test_min_singular_values_match_svd_reference(mode):
    rng = np.random.default_rng(22)
    cases = []
    for _ in range(6):
        n = int(rng.integers(2, 14))
        spec = random_spec(n, rng) if mode == "real" else _complex_spec(n, rng)
        cases.append((response_vector(spec, 2 * n - 1).r, n))
    # indefinite data: the smallest singular value comes from a negative eigenvalue
    bad = rng.normal(size=15).astype(float if mode == "real" else complex)
    bad[0] = 1.0
    cases.append((bad, 8))
    for r, T in cases:
        C = reverse_order(connecting_from_response(r, T))
        sigmas = nested_min_singular_values(r, T)
        assert len(sigmas) == T
        for k in range(1, T + 1):
            sv = np.linalg.svd(C[:k, :k], compute_uv=False)
            assert abs(sigmas[k - 1] - sv[-1]) <= 8 * k * np.finfo(float).eps * sv[0]


@pytest.mark.parametrize("mode", ["real", "complex"])
def test_characterize_pivots_equal_inversion_pivots(mode):
    rng = np.random.default_rng(23)
    for _ in range(6):
        n = int(rng.integers(1, 14))
        spec = random_spec(n, rng) if mode == "real" else _complex_spec(n, rng)
        r = response_vector(spec, 2 * n - 1)
        diag = characterize(r, n).diagnostics
        ds = invert_factorization(r, n).scaled_pivots
        assert np.array_equal(diag["scaled_pivots"], ds)
        assert diag["min_scaled_pivot"] == np.min(np.abs(ds)) > 0


_OVERFLOWING = [1e308, 1.0, 1e308, 1.0, 1e308]


@pytest.mark.parametrize("action", ["error", "default", "ignore"])
@pytest.mark.parametrize("read", [
    lambda: nested_min_singular_values(_OVERFLOWING, 3),  # was LinAlgError: eigenvalues did not converge
    lambda: nested_min_singular_values(np.array(_OVERFLOWING, dtype=complex), 3),  # was NaN
    lambda: beta_sequences(_OVERFLOWING, 3),
], ids=["real", "complex", "beta_sequences"])
def test_an_overflowed_connecting_matrix_is_refused_under_any_warning_filter(read, action):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        with pytest.raises(NumericalFailureError, match="connecting matrix C_3 overflows the float range"):
            read()
    assert seen == []


def test_characterize_runs_no_eigensolver(monkeypatch):
    # the verdict and its diagnostics come from the O(T^3) pivot sweep alone;
    # the O(T^4) nested eigen sweep lives in nested_min_singular_values
    spec = random_spec(40, np.random.default_rng(24), a_range=(0.9, 1.1), b_range=(-0.1, 0.1))
    r = response_vector(spec, 79)

    def refuse(*args, **kwargs):
        raise AssertionError("characterize ran a dense eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    res = characterize(r, 40)
    assert res.admissible and res.diagnostics["scaled_pivots"].shape == (40,)
    with pytest.raises(AssertionError, match="eigensolve"):
        nested_min_singular_values(r, 40)
