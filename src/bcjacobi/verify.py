"""Acceptance checks: every criterion pinned at its stated tolerance.

Each check is a function returning a CheckResult; `run_checks` executes a
filtered subset.  The pytest acceptance module and the CLI `verify`
subcommand both drive this engine, so a green test run and a green
`bcjacobi verify` are the same statement.

A check states each of its figures once, as `_bounded(value, bound[, low])`,
and `_result` reads the verdict, the detail line and the metrics off those
figures.  An exact test is a deviation held to 0, and a strict bound is the
next float inside it (`np.nextafter`), so every figure is a closed interval.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import continuous_time as ct
from . import graph_wave as gw
from .core import (
    JacobiSpec,
    SpectralMeasure,
    _coeff_gap,
    chebyshev_values,
    eig_spectral_data,
    free_spec,
    moments_of_measure,
    phi_eval,
    random_spec,
    spectral_measure,
)
from .discrete_wave import (
    _nested_blocks,
    connecting_from_response,
    control_matrix,
    response_vector,
    solve_semi_infinite,
)
from .errors import SingularBlockError
from .heat import heat_connecting, heat_control_matrix, heat_response
from .inverse_bc import invert_factorization, roundtrip_report
from .moments import (
    _reversed_hankel,
    lambda_matrix_tilde,
    moments_to_response,
    response_to_moments,
    truncated_moment_naive,
    truncated_moment_spectral,
)
from .toda import recursion_residual, toda_moments, toda_qr_flow, toda_solve
from .weyl_debranges import (
    DeBrangesElement,
    debranges_inner,
    debranges_kernel,
    weyl_resolvent,
    weyl_series,
)

__all__ = ["CheckResult", "ALL_CHECKS", "run_checks"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float
    metrics: dict = field(default_factory=dict)


def _bounded(value: float, bound: float, low: float | None = None) -> dict:
    """A figure held to value <= bound (and low <= value when `low` is given),
    with its margin bound / value (None for an exact 0)."""
    value, bound = float(value), float(bound)
    figure = {"value": value, "bound": bound, "margin": bound / value if value else None}
    if low is not None:
        figure["low"] = float(low)
    return figure


def _worst(*values) -> float:
    """The largest of the values, NaN if any is NaN: a running worst that a NaN
    figure cannot skip (Python's `max` keeps its first argument when a later one
    is NaN)."""
    return math.nan if any(map(math.isnan, values)) else float(max(values))


def _scaled_gap(x: np.ndarray, y: np.ndarray) -> float:
    """max |x - y| relative to the scale of x's entries, max(1, max |x|)."""
    return float(np.max(np.abs(x - y))) / max(1.0, float(np.max(np.abs(x))))


def _result(name: str, t0: float, **figures) -> CheckResult:
    """The check passes iff every figure lies within its bounds (NaN never does);
    the detail lists each figure's name and value."""
    passed = all(f.get("low", -np.inf) <= f["value"] <= f["bound"] for f in figures.values())
    detail = ", ".join(f"{key.replace('_', ' ')} {f['value']:.2e}" for key, f in figures.items())
    return CheckResult(name, passed, detail, time.perf_counter() - t0, figures)


def check_free_identity() -> CheckResult:
    """Criterion 1: free response is the delta and C^N = I to 1e-12, N <= 50."""
    t0 = time.perf_counter()
    worst_r, worst_c = 0.0, 0.0
    for N in (1, 2, 7, 25, 50):
        spec = free_spec(N)
        r = response_vector(spec, 2 * N - 1).r
        expect = np.zeros(2 * N - 1)
        expect[0] = 1.0
        worst_r = _worst(worst_r, float(np.max(np.abs(r - expect))))
        C = connecting_from_response(r, N)
        worst_c = _worst(worst_c, float(np.max(np.abs(C - np.eye(N)))))
    return _result(
        "free-identity", t0, response_err=_bounded(worst_r, 1e-12), connecting_err=_bounded(worst_c, 1e-12),
    )


def check_discrete_roundtrip() -> CheckResult:
    """Criterion 2: 100 random well-conditioned specs (a in [0.5,2],
    b in [-1,1], N <= 20) invert to 1e-8 relative, under 10 s.

    Well-conditioned is decided from the data alone: the scaled LDL pivots of
    the equilibrated connecting matrix, read off the round trip's own sweep,
    must stay above 1e-4, and a refused inversion is not admitted.  The
    filter is forced by the data, not the algorithm: exact differentiation of
    the forward map shows that for the worst draws of this family at N = 20,
    one ulp of relative response noise already moves the deep coefficients
    by ~1e-3, so no float64 implementation can reach 1e-8 there (about half
    the draws pass the filter).
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240)
    worst = 0.0
    count = tried = 0
    while count < 100 and tried < 2000:
        tried += 1
        N = int(rng.integers(2, 21))
        spec = random_spec(N, rng)
        try:
            rep = roundtrip_report(spec, N)
        except SingularBlockError:
            continue
        if rep.min_scaled_pivot < 1e-4:
            continue
        worst = _worst(worst, rep.coeff_error)
        count += 1
    elapsed = time.perf_counter() - t0
    return _result(
        "discrete-roundtrip", t0, worst=_bounded(worst, 1e-8),
        admitted_shortfall=_bounded(abs(100 - count), 0), elapsed=_bounded(elapsed, np.nextafter(10.0, 0)),
    )


def check_gram_identities() -> CheckResult:
    """Criterion 3: C^T = (W^T)^t W^T and S^T = (V^T)^t V^T to 1e-10 * scale."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for T in (3, 8, 14, 20):
        spec = random_spec(T + 1, rng, a0=float(rng.uniform(0.5, 2.0)))
        W = control_matrix(spec, T)
        O = W[:, ::-1].copy()
        C = connecting_from_response(response_vector(spec, 2 * T - 1), T)
        worst = _worst(worst, _scaled_gap(C, O.T @ O))
        spec1 = JacobiSpec(a0=1.0, a=spec.a, b=spec.b)  # heat section fixes a0 = 1
        V = heat_control_matrix(spec1, T)
        S = heat_connecting(heat_response(spec1, 2 * T - 1), T)
        worst = _worst(worst, _scaled_gap(S, V.T @ V))
    return _result("gram-identities", t0, worst=_bounded(worst, 1e-10))


def check_spectral_representations() -> CheckResult:
    """Criterion 4: r_{t-1} = sum w_k T_t(lambda_k) and the C^T entries via the
    measure, to 1e-10 relative to entry scale, N <= 15 (the entries themselves
    grow exponentially in T once the spectrum leaves [-2, 2])."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for N in (2, 6, 11, 15):
        spec = random_spec(N, rng)
        mu = spectral_measure(spec)
        lam, w = mu.lambdas, mu.weights
        T = 2 * N + 3
        r = response_vector(spec, 2 * T - 1, bc="dirichlet").r
        cheb = chebyshev_values(2 * T - 1, lam)  # cheb[t] holds T_t at the atoms
        worst = _worst(worst, _scaled_gap(r, cheb[1 : 2 * T] @ w))
        C = connecting_from_response(r, T)
        rows = cheb[T:0:-1]  # rows[l] = T_{T-l} at the atoms, l = 0..T-1
        worst = _worst(worst, _scaled_gap(C, rows @ (w[:, None] * rows.T)))
    return _result("spectral-representations", t0, worst=_bounded(worst, 1e-10))


def check_moment_bridge() -> CheckResult:
    """Criterion 5: Lambda round trip exact to rounding, C^N = Lambda~ S0
    Lambda~^t (1e-9), truncated problem recovers known measures via both
    routes (1e-8, N <= 15).

    The test measures are spectra of random blocks whose coefficient spread
    shrinks with N: the intrinsic conditioning of 2N float64 moments grows
    like 1e8 at N = 15, so only near-free measures carry enough information
    in their rounded moments to meet an absolute 1e-8 there; wider families
    are exercised at the N where their conditioning permits it.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    worst_rt, worst_bridge, worst_meas = 0.0, 0.0, 0.0
    families = {
        2: ((0.5, 2.0), (-1.0, 1.0)),
        5: ((0.5, 2.0), (-1.0, 1.0)),
        9: ((0.6, 1.6), (-0.8, 0.8)),
        15: ((0.95, 1.05), (-0.08, 0.08)),
    }
    for N, (a_range, b_range) in families.items():
        mu = spectral_measure(random_spec(N, rng, a_range=a_range, b_range=b_range))
        lam, w = mu.lambdas, mu.weights
        s = moments_of_measure(mu, 2 * N - 1)
        r = moments_to_response(s)
        scale_s = np.maximum(np.abs(s), 1.0)
        worst_rt = _worst(worst_rt, float(np.max(np.abs(response_to_moments(r) - s) / scale_s)))
        C = connecting_from_response(r, N)
        # the identity is exact; verify it in extended precision so the
        # verification arithmetic does not dominate the 1e-9 budget
        Lt = lambda_matrix_tilde(N).astype(np.longdouble)
        S0 = _reversed_hankel(s, N).astype(np.longdouble)
        prod = (Lt @ S0 @ Lt.T).astype(float)
        worst_bridge = _worst(worst_bridge, float(np.max(np.abs(C - prod))))
        mu_sp = truncated_moment_spectral(s, N)
        _, mu_nv = truncated_moment_naive(s, N)
        for m_rec in (mu_sp, mu_nv):
            worst_meas = _worst(
                worst_meas,
                float(np.max(np.abs(m_rec.lambdas - lam))),
                float(np.max(np.abs(m_rec.weights - w))),
            )
    return _result(
        "moment-bridge", t0, roundtrip=_bounded(worst_rt, 1e-10), bridge=_bounded(worst_bridge, 1e-9),
        measures=_bounded(worst_meas, 1e-8),
    )


def check_complex_counterexample() -> CheckResult:
    """Criterion 6: r = (1,1,0,0,-1) gives the printed C_T, singular C_{T-1},
    and the inversion refuses (exact integers)."""
    t0 = time.perf_counter()
    r = np.array([1.0, 1.0, 0.0, 0.0, -1.0])
    C = connecting_from_response(r, 3)
    printed = np.array([[0.0, 1, 0], [1, 1, 1], [0, 1, 1]])
    # det J C J = det C: the minors need no reversal
    det_2 = np.linalg.det(connecting_from_response(r, 2))
    det_3 = np.linalg.det(C)
    try:
        invert_factorization(r, 3)
        accepted = True
    except SingularBlockError:
        accepted = False
    return _result(
        "complex-counterexample", t0, printed_matrix=_bounded(np.max(np.abs(C - printed)), 0),
        det_C2=_bounded(abs(det_2), 0), det_C3=_bounded(abs(det_3), np.inf, low=np.nextafter(0.5, 1)),
        inversion_accepted=_bounded(accepted, 0),
    )


def check_toda() -> CheckResult:
    """Criterion 7: N=2 closed form to 1e-10; the QR-flow oracle `toda_qr_flow`
    (no spectral data) matches to 1e-6 for N <= 8, |t| <= 2, and the paper's
    Moser-moment route within the same 1e-6; eigenvalues and trace (of both
    flows) conserved to 1e-8; recursion O(h^2)."""
    t0 = time.perf_counter()
    worst_closed = 0.0
    for t in (0.0, 0.3, 1.0, 2.0, -1.5):
        st = toda_solve(free_spec(2), t)
        worst_closed = _worst(
            worst_closed,
            abs(st.spec.a[0] - 1.0 / np.cosh(2 * t)),
            abs(st.spec.b[0] - np.tanh(2 * t)),
            abs(st.spec.b[1] + np.tanh(2 * t)),
        )
    rng = np.random.default_rng(17)
    worst_oracle = worst_moment = worst_eig = worst_trace = worst_res = 0.0
    # compact spectra: the Moser weights collapse like exp(-2 spread |t|),
    # which is the conditioning of the time-t inverse step
    specs = [random_spec(N, rng, a_range=(0.3, 0.8), b_range=(-0.5, 0.5)) for N in (2, 4, 6, 8)]
    times = (-2.0, -0.6, 0.5, 2.0)
    for spec0 in specs:
        mu0 = spectral_measure(spec0)
        eig0 = mu0.lambdas
        for t in times:
            st, oracle = toda_solve(spec0, t), toda_qr_flow(spec0, t)
            worst_oracle = _worst(worst_oracle, _coeff_gap(st.spec, oracle))
            moment_spec, _ = truncated_moment_naive(toda_moments(mu0, t, 2 * spec0.n - 1), spec0.n)
            worst_moment = _worst(worst_moment, _coeff_gap(st.spec, moment_spec))
            eig_t = eig_spectral_data(st.spec).eigenvalues
            worst_eig = _worst(worst_eig, float(np.max(np.abs(eig_t - eig0))))
            worst_trace = _worst(worst_trace, abs(np.sum(st.spec.b) - np.sum(spec0.b)),
                                 abs(np.sum(oracle.b) - np.sum(spec0.b)))
        worst_res = _worst(worst_res, recursion_residual(mu0, 0.4, 2 * spec0.n - 2, 1e-4))
    return _result(
        "toda", t0, closed_form=_bounded(worst_closed, 1e-10), oracle=_bounded(worst_oracle, 1e-6),
        moment_route=_bounded(worst_moment, 1e-6), eigenvalues=_bounded(worst_eig, 1e-8),
        trace=_bounded(worst_trace, 1e-8), recursion=_bounded(worst_res, 1e-6),
    )


def check_weyl() -> CheckResult:
    """Criterion 8: m_0(5/2) = -1/2 exactly; series vs resolvent <= 1e-7 at
    20 lambda in D for specs with coefficient bound B <= 2."""
    t0 = time.perf_counter()
    m0_error = abs(weyl_resolvent(None, 2.5, kind="free") + 0.5)
    rng = np.random.default_rng(23)
    B = 2.0
    R = 3 * B + 1
    worst = 0.0
    outside_D = 0
    for _ in range(20):
        N = int(rng.integers(3, 12))
        spec = random_spec(N, rng, a_range=(0.5, 2.0), b_range=(-2.0, 2.0))
        rho = rng.uniform(0.02, 0.9 / R)
        theta = rng.uniform(np.pi, 2 * np.pi)
        z = rho * np.exp(1j * theta)
        lam = z + 1.0 / z
        r = response_vector(spec, 220, bc="dirichlet")
        ev = weyl_series(r, lam, coeff_bound=B)
        outside_D += not ev.in_domain_D
        worst = _worst(worst, abs(ev.m_series - weyl_resolvent(spec, lam)))
    return _result(
        "weyl", t0, m0_error=_bounded(m0_error, 0), outside_D=_bounded(outside_D, 0), worst=_bounded(worst, 1e-7),
    )


def check_debranges() -> CheckResult:
    """Criterion 9: reproducing property to 1e-10 over 100 random (z, F);
    kernel equals sum phi-bar phi to 1e-9, T <= 15."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(29)
    worst_rep, worst_ker = 0.0, 0.0
    for _ in range(100):
        T = int(rng.integers(2, 16))
        # moderate coefficient spread and |z| <= 0.5: the absolute 1e-10
        # demand leaves no room for the exponential growth of phi_n(z) away
        # from the spectrum or for wide connecting-matrix gradings
        spec = random_spec(T, rng, a_range=(0.85, 1.2), b_range=(-0.5, 0.5))
        r = response_vector(spec, 2 * T - 1)
        C_T = _nested_blocks(r, T)
        z = 0.5 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        j = debranges_kernel(C_T, z, T)
        F = DeBrangesElement(rng.normal(size=T))
        worst_rep = _worst(worst_rep, abs(debranges_inner(C_T, j, F) - F(z)))
        phi_z_conj = np.conj(phi_eval(spec, z, T))
        for lam_val in rng.uniform(-2, 2, 3):
            direct = np.sum(phi_z_conj * phi_eval(spec, lam_val, T))
            worst_ker = _worst(worst_ker, abs(j(lam_val) - direct))
    return _result("debranges", t0, reproducing=_bounded(worst_rep, 1e-10), kernel=_bounded(worst_ker, 1e-9))


def check_continuous_time() -> CheckResult:
    """Criterion 10: dynamic/spectral kernels agree with error ratio 4 +/- 0.5
    on grid halving; recovery round-trip <= 1e-3 at M = 800 for N <= 6."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    spec = random_spec(3, rng)
    errs = []
    for M in (100, 200):
        grid = ct.TimeGrid(1.0, M)
        r = ct.response_function(spec, grid.doubled())
        errs.append(float(np.max(np.abs(
            ct.connecting_dynamic(r, grid) - ct.connecting_spectral(spec, grid)
        ))))
    ratio = errs[0] / errs[1]
    worst_rec = 0.0
    for N in (2, 4, 6):
        spec, rec = ct._recovery_experiment(N, rng)
        worst_rec = _worst(worst_rec, _coeff_gap(rec, spec))
    return _result("continuous-time", t0, ratio=_bounded(ratio, 4.5, low=3.5), recovery=_bounded(worst_rec, 1e-3))


def check_string_trends() -> CheckResult:
    """Criterion 11: delta-approximation pairings improve monotonically over
    N in {25, 50, 100, 200} for a unit Gaussian test function: each error at
    N > 25 is held to just under the error at the previous N."""
    t0 = time.perf_counter()
    psi, dpsi = ct.psi_preset("gauss")
    figures, last = {}, {}
    for N in (25, 50, 100, 200):
        errors = dict(zip(("raw", "corrected", "field"), ct._pairing_errors(N, psi, dpsi)[1::2]))
        for kind, err in errors.items():
            if kind in last:
                figures[f"{kind}_{N}"] = _bounded(err, np.nextafter(last[kind], -np.inf))
        last = errors
    return _result("string-trends", t0, **figures)


def check_graph_wave() -> CheckResult:
    """Criterion 12: path graph equals the free Jacobi field exactly; 3-star
    scattering is 2/3 transmitted and -1/3 reflected; post-control energy is
    constant to 1e-12 on the path, and plateau-to-plateau on the star."""
    t0 = time.perf_counter()
    # path graph vs free semi-infinite field (graph time t = lattice time t-1)
    T, n_seg = 9, 12
    ctl = np.zeros(T + 1)
    ctl[1] = 1.0
    fld, log = gw.simulate(gw.GraphSpec.path(n_seg), {"in": ctl}, T)
    wf = solve_semi_infinite(free_spec(T + 1), np.eye(T)[0], T)
    worst_path = 0.0
    for t in range(1, T + 1):
        for n in range(0, min(n_seg + 1, T + 2)):
            worst_path = _worst(worst_path, abs(fld.u[0][n, t] - wf.u[n, t - 1]))
    e_tot = log[:, 3]  # rows are t = 1..T
    # 3-star: arms of 6 segments; center = slot n_seg of every edge
    arm = 6
    T_star = 2 * arm
    ctl = np.zeros(T_star + 1)
    ctl[1] = 1.0
    fld3, log3 = gw.simulate(gw.GraphSpec.star(3, arm), {"b0": ctl}, T_star)
    # vertex fires at t = arm + 1; one step later the pulses sit at slot arm-1
    t_see = arm + 2
    trans = fld3.u[1][arm - 1, t_see]
    refl = fld3.u[0][arm - 1, t_see]
    e3 = log3[:, 3]  # rows are t = 1..T_star
    pre = e3[1 : arm - 1]          # t = 2 .. arm-1 (before the vertex transient)
    post = e3[arm + 2 : T_star]    # t = arm+3 .. T_star (after it, before boundary hits)
    return _result(
        "graph-wave", t0, path=_bounded(worst_path, 0),
        path_energy=_bounded(np.max(np.abs(e_tot[1:] - e_tot[1])), 1e-12),
        transmitted=_bounded(abs(trans - 2.0 / 3.0), 1e-12), reflected=_bounded(abs(refl + 1.0 / 3.0), 1e-12),
        plateau_before=_bounded(np.max(np.abs(pre - pre[0])), 1e-12),
        plateau_after=_bounded(np.max(np.abs(post - pre[0])), 1e-12),
    )


ALL_CHECKS = [
    check_free_identity,
    check_discrete_roundtrip,
    check_gram_identities,
    check_spectral_representations,
    check_moment_bridge,
    check_complex_counterexample,
    check_toda,
    check_weyl,
    check_debranges,
    check_continuous_time,
    check_string_trends,
    check_graph_wave,
]


def run_checks(name_filter: str | None = None) -> list[CheckResult]:
    """Run all acceptance checks whose name contains the filter substring."""
    results = []
    for fn in ALL_CHECKS:
        name = fn.__name__.removeprefix("check_").replace("_", "-")
        if name_filter and name_filter not in name:
            continue
        results.append(fn())
    return results
