import tracemalloc

import connecting_oracle
import numpy as np
import pytest
import stepper_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcjacobi.core import JacobiSpec, free_spec, random_spec, spectral_measure, chebyshev_values
from bcjacobi.discrete_wave import (
    ResponseVector,
    _connecting,
    connecting_from_response,
    control_matrix,
    delta_control,
    response_vector,
    reverse_order,
    solve_finite_dirichlet,
    solve_semi_infinite,
)
from bcjacobi.errors import InvalidInputError, NumericalFailureError, SpecTooShortError
from bcjacobi.heat import heat_connecting, heat_control_matrix, heat_response, solve_heat
from bcjacobi.inverse_bc import (
    invert_factorization,
    nested_min_singular_values,
    response_matrix,
    schrodinger_check,
    solve_krein,
)
from bcjacobi.weyl_debranges import beta_sequences, weyl_series


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


def test_semi_infinite_field_needs_a_block_of_size_T():
    # the front reaches node T at time T and a_T only multiplies the zero wall, so
    # a block of size T carries the field; the impulse stays float for complex blocks
    rng = np.random.default_rng(4)
    for T in (1, 2, 3, 7, 12):
        spec = random_spec(T, rng, a0=float(rng.uniform(0.5, 2.0)))
        cplx = JacobiSpec(spec.a0 + 0.5j, spec.a - 0.25j, spec.b + 0.5j, mode="complex")
        delta = delta_control(T)
        assert delta.dtype == float
        for block in (spec, cplx):
            u = solve_semi_infinite(block, delta, T).u
            assert np.array_equal(u[1 : T + 1, 1:], control_matrix(block, T))
    with pytest.raises(SpecTooShortError, match="needs block size >= 4"):
        solve_semi_infinite(free_spec(3), delta_control(4), 4)


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


@pytest.mark.parametrize("T", [0, -1])
def test_response_vector_rejects_horizon_below_one(T):
    for bc in ("semi_infinite", "dirichlet"):
        with pytest.raises(InvalidInputError, match="T >= 1"):
            response_vector(free_spec(4), T, bc=bc)


def test_overflowing_field_is_named_without_numpy_warnings():
    # a valid block whose field passes the float range before t = 599
    block = JacobiSpec(a0=1.0, a=np.full(299, 2.0), b=np.ones(300))
    for respond in (response_vector, heat_response):
        with pytest.raises(NumericalFailureError, match="overflows the float range"):
            respond(block, 599)


@pytest.mark.parametrize("order", [2, 1])
def test_node1_overflow_names_the_fields_first_step(order):
    # the front meets b_n = 1e200 at the deepest node and overflows there two steps
    # later, too deep for node 1 to see by time T: the response still refuses, and
    # names the first step at which the oracle's full field is non-finite
    T = 21
    depth = (T + 1) // 2
    b = np.zeros(depth)
    b[-1] = 1e200
    block = JacobiSpec(a0=1.0, a=np.ones(depth - 1), b=b)
    u = stepper_oracle.step_field(block, delta_control(T), T, depth, order)
    t = int(np.argmin(np.all(np.isfinite(u), axis=0)))
    assert 0 < t < T and np.isfinite(u[1]).all()
    respond = response_vector if order == 2 else heat_response
    with pytest.raises(NumericalFailureError, match=f"at t = {t} of T = {T}$"):
        respond(block, T)


def test_node1_responses_keep_three_time_rows():
    # node 1's response steps three rotating time rows, not the whole field
    # (T + 1) x ((T + 1) // 2 + 2): 64 MB for a wave response of length 4001
    for respond, block, T in ((response_vector, free_spec(2001), 4001), (heat_response, free_spec(501), 1001)):
        tracemalloc.start()
        try:
            respond(block, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, (respond.__name__, peak)


def test_dirichlet_response_keeps_three_time_rows():
    # the Dirichlet response steps the whole block on three rotating time rows, not
    # the (T + 1) x (N + 2) field: 2.6 MB for N = 400 at length 799
    block = free_spec(400)
    tracemalloc.start()
    try:
        response_vector(block, 799, bc="dirichlet")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


def test_dirichlet_response_is_node1_of_the_dirichlet_field():
    # byte for byte, signed zeros included: blocks with all-zero b (exact zeros in the
    # response), with negative b and with b of either sign
    rng = np.random.default_rng(6)
    zeros = 0
    for k in range(600):
        N, T = int(rng.integers(1, 13)), int(rng.integers(1, 41))
        b = (np.zeros(N), -rng.uniform(0.0, 2.0, N), rng.uniform(-2.0, 2.0, N))[k % 3]
        spec = JacobiSpec(a0=rng.uniform(0.5, 2.0), a=rng.uniform(0.5, 2.0, N - 1), b=b)
        r = response_vector(spec, T, bc="dirichlet").r
        u = solve_finite_dirichlet(spec, delta_control(T), T).u
        assert r.dtype == u.dtype and r.tobytes() == u[1, 1:].tobytes(), (k, N, T)
        zeros += int(np.sum(r == 0))
    assert zeros > 1000


@pytest.mark.parametrize("solve", [solve_semi_infinite, solve_finite_dirichlet])
def test_forward_solvers_refuse_malformed_controls(solve):
    for f, match in (([1.0, np.nan], "finite"), (["1", "a"], "numbers")):
        with pytest.raises(InvalidInputError, match=match):
            solve(free_spec(3), f, 2)


RESPONSE_ENTRY_POINTS = {
    "ResponseVector": lambda r: ResponseVector(r, mode="complex"),
    "invert_factorization": lambda r: invert_factorization(r, 2),
    "connecting_from_response": lambda r: connecting_from_response(r, 2),
    "heat_connecting": lambda r: heat_connecting(r, 2),
    "response_matrix": lambda r: response_matrix(r, 2),
    "solve_krein": lambda r: solve_krein(np.eye(2), r, 0.5, 0.0, 1.0, 2),
    "schrodinger_check": lambda r: schrodinger_check(r, 2),
    "nested_min_singular_values": lambda r: nested_min_singular_values(r, 2),
    "beta_sequences": lambda r: beta_sequences(r, 2),
    "weyl_series": lambda r: weyl_series(r, 3.0),
}


# complex-symmetric blocks are not Hermitian: their eigenvalues need not be real
REAL_ONLY = {"beta_sequences"}


@pytest.mark.parametrize("entry", sorted(RESPONSE_ENTRY_POINTS))
def test_response_entry_points_refuse_malformed_entries(entry):
    call = RESPONSE_ENTRY_POINTS[entry]
    good = np.r_[1.0, 0.5j, 0.25, np.zeros(37)]  # long enough for the series at lambda = 3
    if entry in REAL_ONLY:
        with pytest.raises(InvalidInputError, match="response must be real"):
            call(good)
        good = good.real
    call(good)  # complex data stays allowed elsewhere
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError, match="response must be finite"):
            call(np.r_[1.0, bad, good[2:]])
    for bad in (["1", "a", "0"], [1.0, object(), 0.5]):
        with pytest.raises(InvalidInputError, match="response must be (real )?numbers"):
            call(bad)


def test_real_response_vector_refuses_complex_entries():
    # a cast to float would drop the imaginary parts with only a warning
    with pytest.raises(InvalidInputError, match="response must be real"):
        ResponseVector(np.array([1, 1j, 0]), mode="real")


@settings(max_examples=60)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=39), st.booleans())
def test_nested_blocks_are_slices_of_one_build(entries, cplx):
    r = np.array(entries) * (1 + 0.5j if cplx else 1.0)
    N_max = (r.size + 1) // 2
    C, R = connecting_from_response(r, N_max), response_matrix(r, N_max)
    for N in range(1, N_max + 1):
        assert np.array_equal(connecting_from_response(r, N), C[-N:, -N:])
        assert np.array_equal(response_matrix(r, N), R[:N, :N])
    ref = np.zeros((N_max, N_max), dtype=r.dtype)  # the row loop the gather replaced
    for t in range(1, N_max):
        ref[t, :t] = r[t - 1 :: -1]
    assert np.array_equal(R, ref)


@st.composite
def blocks(draw, max_T=24):
    """A horizon T and a real block of size T + 1 with a0, a_k in [1/4, 4] and b_k in [-4, 4]."""
    T = draw(st.integers(1, max_T))
    coeffs = lambda lo, hi, n: draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))
    return T, JacobiSpec(a0=draw(st.floats(0.25, 4.0)), a=coeffs(0.25, 4.0, T), b=coeffs(-4.0, 4.0, T + 1))


@settings(max_examples=60)
@given(blocks())
def test_gram_identities_hold_to_rounding(block):
    # C^T = (W^T)^t W^T with W acting on (f_0, ..., f_{T-1}), and its heat
    # analogue S^T = (V^T)^t V^T (a_0 = 1); random draws stay under 0.7 T eps
    T, spec = block
    tol = 8 * T * np.finfo(float).eps
    W = control_matrix(spec, T)[:, ::-1]
    C = connecting_from_response(response_vector(spec, 2 * T - 1), T)
    assert np.max(np.abs(C - W.T @ W)) <= tol * np.max(np.abs(C))
    spec1 = JacobiSpec(a0=1.0, a=spec.a, b=spec.b)
    V = heat_control_matrix(spec1, T)
    S = heat_connecting(heat_response(spec1, 2 * T - 1), T)
    assert np.max(np.abs(S - V.T @ V)) <= tol * np.max(np.abs(S))


ENTRY = st.floats(-1e3, 1e3) | st.sampled_from([np.inf, -np.inf, np.nan, 1.7e308, -1.7e308])


@st.composite
def responses(draw, max_T=60, entry=ENTRY):
    """A horizon T and 2T-1 to 2T+2 real or complex entries drawn from `entry`,
    by default some of them +-inf, NaN or near the float limit."""
    T = draw(st.integers(1, max_T))
    n = 2 * T - 1 + draw(st.integers(0, 3))  # entries past r_{2T-2} must be ignored
    part = lambda: draw(st.lists(entry, min_size=n, max_size=n))
    if not draw(st.booleans()):
        return T, np.array(part())
    r = np.empty(n, dtype=complex)
    r.real, r.imag = part(), part()
    return T, r


def _with_specials(rng, n) -> np.ndarray:
    """n complex entries, one in eight of their parts +-inf or NaN."""
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    r.real[rng.integers(0, n, n // 8)] = rng.choice([np.inf, -np.inf, np.nan], n // 8)
    r.imag[rng.integers(0, n, n // 8)] = rng.choice([np.inf, -np.inf, np.nan], n // 8)
    return r


def _flags_raised(build, r, T) -> bool:
    with np.errstate(all="raise"):
        try:
            build(r, T)
        except FloatingPointError:
            return True
    return False


@settings(max_examples=150)
@given(responses())
@example((2, np.array([1.0, -np.inf, 0.0, np.inf])))  # -inf + inf only if r_3 joined a sum
@example((3, np.array([np.nan, 0.0, np.inf, 0.0, -np.inf])))  # inf - inf only if r_4 ran on past diagonal 2's end
@example((400, np.random.default_rng(400).standard_normal(799)))
@example((257, _with_specials(np.random.default_rng(257), 513)))
def test_connecting_matches_diagonal_oracle(case):
    T, r = case
    with np.errstate(all="ignore"):  # inf - inf, 0 * inf and overflow are part of the draw
        C, ref = _connecting(r, T)[::-1, ::-1], connecting_oracle.connecting(r, T)
    assert C.dtype == r.dtype
    assert np.array_equal(C, ref, equal_nan=True)
    # sums past a diagonal's end (and entries past r_{2T-2}) raise no floating-point flag of their own
    assert _flags_raised(_connecting, r, T) == _flags_raised(connecting_oracle.connecting, r, T)


@settings(max_examples=150)
@given(responses(entry=st.floats(-1e3, 1e3)))
@example((400, np.random.default_rng(401).standard_normal(799) * (1 + 1j)))
def test_public_connecting_is_the_diagonal_oracle_bit_for_bit(case):
    # C^T is returned as the reversed view of the C_T that `_connecting` builds
    T, r = case
    C, ref = connecting_from_response(r, T), connecting_oracle.connecting(r, T)
    assert C.dtype == ref.dtype == r.dtype
    assert np.ascontiguousarray(C).tobytes() == ref.tobytes()


@st.composite
def driven_blocks(draw, max_T=24):
    """A horizon T, a real or complex block of size T + 1 and a control of length T of its mode."""
    T = draw(st.integers(1, max_T))
    vals = lambda lo, hi, n: np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
    a0, a, b, f = draw(st.floats(0.25, 4.0)), vals(0.25, 4.0, T), vals(-4.0, 4.0, T + 1), vals(-1.0, 1.0, T)
    if not draw(st.booleans()):
        return T, JacobiSpec(a0=a0, a=a, b=b), f
    im = lambda n: 1j * vals(-1.0, 1.0, n)
    return T, JacobiSpec(a0=a0 + im(1)[0], a=a + im(T), b=b + im(T + 1), mode="complex"), f + im(T)


@settings(max_examples=80)
@given(driven_blocks())
def test_wave_fields_match_column_stepper(case):
    # every public output of the stepper, in both modes, equals the node-major oracle bit for bit
    T, spec, f = case
    oracle = stepper_oracle.step_field
    same = lambda x, y: x.dtype == y.dtype and np.array_equal(x, y)
    delta = delta_control(T)
    assert same(solve_semi_infinite(spec, f, T).u, oracle(spec, f, T, T))
    assert same(solve_finite_dirichlet(spec, f, T).u, oracle(spec, f, T, spec.n))
    for t in (T, 2 * T + 1):
        r = oracle(spec, delta_control(t), t, (t + 1) // 2)[1, 1 : t + 1]
        assert same(response_vector(spec, t).r, r)
    assert same(control_matrix(spec, T), np.triu(oracle(spec, delta, T, T)[1 : T + 1, 1 : T + 1]))
    if spec.mode == "complex":
        return
    r = oracle(spec, delta_control(2 * T), 2 * T, spec.n)[1, 1:]
    assert same(response_vector(spec, 2 * T, bc="dirichlet").r, r)
    # order 1: the heat system
    v = oracle(spec, f, T, T, order=1)
    assert same(solve_heat(spec, f, T).v, v)
    v = oracle(spec, delta, T, T, order=1)
    assert same(heat_control_matrix(spec, T), v[1 : T + 1, T:0:-1])
    s = oracle(spec, delta_control(2 * T + 1), 2 * T + 1, T + 1, order=1)[1, 1:]
    assert same(heat_response(spec, 2 * T + 1), s)
