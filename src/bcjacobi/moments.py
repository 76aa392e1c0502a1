"""Classical moment problems via boundary-control machinery.

Moments s_k and response entries r_t are linked by the integer triangular
map r = Lambda s whose rows are the monomial coefficients of the polynomials
T_t.  Hankel matrices, the truncated moment problem (two independent routes)
and Hamburger/Stieltjes/Hausdorff solvability diagnostics live here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .core import JacobiSpec, SpectralMeasure, chebyshev_values, spectral_measure
from .discrete_wave import connecting_from_response, _as_response
from .errors import InvalidInputError, NotRealizableError, SingularBlockError
from .inverse_bc import _chebyshev_sweep, response_matrix

__all__ = [
    "HankelPair",
    "lambda_matrix",
    "lambda_matrix_tilde",
    "moments_to_response",
    "response_to_moments",
    "build_hankel_pair",
    "build_B",
    "truncated_moment_spectral",
    "truncated_moment_naive",
    "solvability",
    "indeterminacy_sequences",
]


@dataclass(frozen=True)
class HankelPair:
    """Hankel matrices S0 = S^N and S1 = S^N_1 with an explicit ordering flag.

    ordering 'reversed' puts the highest moment top-left, (S^N)_{ij} =
    s_{2N-i-j+m}, matching the connecting-matrix index order; 'classical' is
    S_N = J_N S^N J_N with (S_N)_{ij} = s_{i+j-2+m}.  Both are stored with
    the flag so a silent transposition cannot slip through.
    """

    s0: np.ndarray
    s1: np.ndarray
    ordering: str = "reversed"

    def flipped(self) -> "HankelPair":
        J = slice(None, None, -1)
        other = "classical" if self.ordering == "reversed" else "reversed"
        return HankelPair(self.s0[J, J].copy(), self.s1[J, J].copy(), other)


def lambda_matrix(n: int) -> np.ndarray:
    """Integer lower-triangular matrix with r = Lambda_n s.

    Row t holds the monomial coefficients of T_t, built by the recurrence
    T_{t+1} = lambda T_t - T_{t-1}.  Entries fit int64 for n <= 60.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if n > 60:
        raise InvalidInputError("integer entries overflow int64 beyond n = 60")
    L = np.zeros((n, n), dtype=np.int64)
    L[0, 0] = 1
    if n > 1:
        L[1, 1] = 1
    for t in range(2, n):
        L[t, 1:] = L[t - 1, :-1]
        L[t, :] -= L[t - 2, :]
    return L


def lambda_matrix_tilde(n: int) -> np.ndarray:
    """Reversed-ordering variant Lambda~_n = J_n Lambda_n J_n."""
    return lambda_matrix(n)[::-1, ::-1].copy()


def moments_to_response(s) -> np.ndarray:
    """r = Lambda s.

    The row sums cancel catastrophically (terms of size binom * |lambda|^k
    collapse to |T_t| <= t when the support stays in [-2, 2]), so the exact
    integer matrix is applied in extended precision before rounding back.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.size == 0:
        raise InvalidInputError("empty moment sequence")
    L = lambda_matrix(s.size).astype(np.longdouble)
    return (L @ s.astype(np.longdouble)).astype(float)


def response_to_moments(r) -> np.ndarray:
    """s = Lambda^{-1} r by unit-triangular forward substitution.

    Extended precision for the same cancellation reason as the forward map.
    """
    r = _as_response(r).astype(float)
    if r.size == 0:
        raise InvalidInputError("empty response")
    n = r.size
    L = lambda_matrix(n).astype(np.longdouble)
    s = np.zeros(n, dtype=np.longdouble)
    rw = r.astype(np.longdouble)
    for t in range(n):
        s[t] = (rw[t] - L[t, :t] @ s[:t]) / L[t, t]
    return s.astype(float)


def _reversed_hankel(s: np.ndarray, N: int) -> np.ndarray:
    """N x N Hankel matrix with entries s_{2N-i-j}, i, j = 1..N (needs 2N-1 entries)."""
    i = np.arange(1, N + 1)
    return s[2 * N - i[:, None] - i[None, :]]


def build_hankel_pair(s, N: int, ordering: str = "reversed") -> HankelPair:
    """Hankel matrices S^N_0 (needs 2N-1 moments) and S^N_1 (needs 2N)."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.size < 2 * N:
        raise InvalidInputError(f"need 2N = {2 * N} moments for the shifted Hankel")
    pair = HankelPair(_reversed_hankel(s, N), _reversed_hankel(s[1:], N), "reversed")
    return pair if ordering == "reversed" else pair.flipped()


def build_B(r, N: int) -> np.ndarray:
    """Matrix B^N = E^* (V^{N+1})^* C^{N+1} E + C^N V^N of the variational problem.

    Built from one response vector; entries of C^{N+1} beyond index 2N - 1 are
    annihilated by the shift/embedding trimming, so a response of length 2N
    suffices (a zero pad is inserted when r_{2N} is absent).
    """
    r = _as_response(r).astype(float)
    if r.size < 2 * N:
        raise InvalidInputError(f"need at least 2N = {2 * N} response entries")
    if r.size < 2 * N + 1:
        r = np.concatenate([r, [0.0]])  # dropped by the trimming below
    CN = connecting_from_response(r, N)
    CN1 = connecting_from_response(r, N + 1)
    # first term: rows 2..N+1, cols 1..N of C^{N+1}
    first = CN1[1 : N + 1, 0:N]
    VN = np.zeros((N, N))
    VN[np.arange(1, N), np.arange(0, N - 1)] = 1.0
    return first + CN @ VN


def truncated_moment_spectral(s, N: int) -> SpectralMeasure:
    """Measure of the order-N truncated problem via a generalized eigenproblem.

    Solves B^N f = lambda C^N f, normalizes (C^N f, f) = 1, and reads the
    weights off the response operator: alpha_k = (R f_k)_N, weight = alpha_k^2.
    Needs moments s_0..s_{2N-1}; if only 2N - 1 are given, s_{2N-1} = 0 is
    assumed, which selects one member of the solution family.  The input is
    normalized by s_0 and the weights are scaled back at the end.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.size < 2 * N - 1:
        raise InvalidInputError(f"need at least 2N-1 = {2 * N - 1} moments")
    if s[0] <= 0:
        raise NotRealizableError("s_0 must be positive")
    mass = s[0]
    s = s / mass
    if s.size < 2 * N:
        s = np.concatenate([s, [0.0]])
    r = moments_to_response(s[: 2 * N])
    CN = connecting_from_response(r, N)
    B = build_B(r, N)
    B = 0.5 * (B + B.T)  # symmetric up to rounding for realizable data
    try:
        lam, F = eigh(B, CN)  # scipy normalizes f^T C f = 1
    except np.linalg.LinAlgError:
        raise NotRealizableError("moments not realizable: C^N is not positive definite")
    # alpha_k = (R f_k)_N = sum_s r_{N-1-s} f_s
    alpha = r[N - 1 :: -1] @ F
    weights = mass * alpha**2
    gaps = np.diff(lam)
    if N > 1 and np.any(gaps < 1e-8 * (lam[-1] - lam[0] + 1e-300)):
        warnings.warn("clustered eigenvalues: weights are ill-conditioned", stacklevel=2)
    if np.any(weights <= 0):
        raise NotRealizableError("degenerate weight in the truncated problem")
    return SpectralMeasure(tuple(zip(lam, weights)))


def truncated_moment_naive(s, N: int, extension=None):
    """Measure of the order-N truncated problem through matrix recovery.

    s -> r -> modified Chebyshev sweep -> A^N -> eigensolve -> measure.  The
    last diagonal entry b_N is read off s_{2N-1} when available (paths
    touching b_N first appear in that moment) and taken as 0 otherwise.
    `extension` may supply extra (a_k, b_k) pairs appended before the
    eigensolve, realizing the arbitrary-extension step of the procedure.

    Returns (spec, measure); the measure weights carry the total mass s_0.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.size < 2 * N - 1:
        raise InvalidInputError(f"need at least 2N-1 = {2 * N - 1} moments")
    if s[0] <= 0:
        raise NotRealizableError("s_0 must be positive")
    mass = s[0]
    sn = s / mass
    b_rec, d, _ = _chebyshev_sweep(moments_to_response(sn[: 2 * N]), N)
    if np.any(d <= 0):
        raise SingularBlockError("C_T is not positive definite: data is not a response vector")
    a_full = np.sqrt(d[1:] / d[:-1])
    b_full = np.concatenate([b_rec, np.zeros(N - b_rec.size)])
    if extension is not None:
        ext_a = np.atleast_1d(np.asarray([p[0] for p in extension], dtype=float))
        ext_b = np.atleast_1d(np.asarray([p[1] for p in extension], dtype=float))
        a_full = np.concatenate([a_full, ext_a])
        b_full = np.concatenate([b_full, ext_b])
    spec = JacobiSpec(a0=1.0, a=a_full, b=b_full)
    mu = spectral_measure(spec)
    return spec, SpectralMeasure(tuple(zip(mu.lambdas, mass * mu.weights)))


def _nested_verdicts(mats, tol: float):
    """Per-N verdicts {pass, degenerate, fail} from smallest eigenvalues."""
    out = []
    for M in mats:
        emin = float(np.linalg.eigvalsh(M)[0]) if M.size else float("nan")
        scale = max(1.0, float(np.max(np.abs(M))))
        if emin > tol * scale:
            verdict = "pass"
        elif emin >= -tol * scale:
            verdict = "degenerate"
        else:
            verdict = "fail"
        out.append((emin, verdict))
    return out


def solvability(s, kind: str, N_max: int, tol: float = 1e-10) -> list[dict]:
    """Per-N solvability verdicts for the classical moment problems.

    hamburger: S^N_0 positive definite; stieltjes: S^N_0 and S^N_1 positive
    definite; hausdorff: S^N_0 >= S^N_1 > 0.  'degenerate' marks a singular
    but not indefinite matrix (finitely supported measures reach this state
    once N exceeds the number of atoms); 'fail' requires a genuinely negative
    eigenvalue.
    """
    if kind not in ("hamburger", "stieltjes", "hausdorff"):
        raise InvalidInputError(f"unknown kind {kind!r}")
    s = np.atleast_1d(np.asarray(s, dtype=float))
    need = 2 * N_max - 1 if kind == "hamburger" else 2 * N_max
    if s.size < need:
        raise InvalidInputError(f"need {need} moments for N_max = {N_max}")
    rows = []
    for N in range(1, N_max + 1):
        if kind == "hamburger":
            checks = {"S0": _reversed_hankel(s, N)}
        else:
            pair = build_hankel_pair(s, N)
            checks = {"S0": pair.s0, "S1": pair.s1}
            if kind == "hausdorff":
                checks["S0-S1"] = pair.s0 - pair.s1
        row = {"N": N}
        ok = True
        for name, (emin, verdict) in zip(checks, _nested_verdicts(checks.values(), tol)):
            row[f"min_eig_{name}"] = emin
            row[f"verdict_{name}"] = verdict
            if verdict == "fail":
                ok = False
        row["solvable"] = ok
        rows.append(row)
    return rows


def _trend_label(values: np.ndarray) -> str:
    """Heuristic {bounded-looking, growing} from the last 5 values.

    Any non-finite value in the tail means the form already blew past float
    range, which is growth by definition.
    """
    v = np.asarray(values, dtype=float)
    tail = v[-5:]
    if tail.size < 2 or np.any(~np.isfinite(tail)):
        return "growing"
    lo = np.min(np.abs(tail))
    hi = np.max(np.abs(tail))
    if lo == 0:
        return "bounded-looking"
    return "bounded-looking" if (hi - lo) / lo < 1e-3 else "growing"


def indeterminacy_sequences(s, N_max: int) -> dict:
    """Raw indeterminacy diagnostics per N, plus heuristic trend labels.

    Gamma_N = (T_N(0), ..., T_1(0)) and Delta_N = (T_N'(0), ..., T_1'(0));
    the returned forms are ((C^N)^{-1} Gamma_N, Gamma_N), the same with
    Delta_N, and the Stieltjes quantities M_N (= the Gamma form) and L_N.
    The theorems involve N -> infinity limits that finite computation cannot
    decide; the labels are explicitly heuristic.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.size < 2 * N_max - 1:
        raise InvalidInputError(f"need 2N_max-1 = {2 * N_max - 1} moments")
    r = moments_to_response(s[: 2 * N_max - 1])
    # T_t(0), and T_t'(0) by differentiating the recurrence at lambda = 0
    tvals = chebyshev_values(N_max, 0.0)
    dvals = np.zeros(N_max + 1)
    for t in range(1, N_max):
        dvals[t + 1] = tvals[t] - dvals[t - 1]
    gamma_form = np.full(N_max, np.nan)
    delta_form = np.full(N_max, np.nan)
    l_seq = np.full(N_max, np.nan)
    for N in range(1, N_max + 1):
        CN = connecting_from_response(r, N) if r.size >= 2 * N - 1 else None
        gam = tvals[N:0:-1]
        dlt = dvals[N:0:-1]
        try:
            x = np.linalg.solve(CN, gam)
            gamma_form[N - 1] = float(gam @ x)
            delta_form[N - 1] = float(dlt @ np.linalg.solve(CN, dlt))
            # L_N = ((C^N)^{-1} (R^N)^* Gamma_N, e1) / ((C^N)^{-1} Gamma_N, e1);
            # R^N is the response operator whose adjoint enters the Krein
            # equation (Gamma_N is kappa^N(0)).
            R = response_matrix(r, N)
            num = np.linalg.solve(CN, R.T @ gam)[0]
            den = x[0]
            l_seq[N - 1] = num / den if den != 0 else np.nan
        except np.linalg.LinAlgError:
            gamma_form[N - 1] = np.inf
            delta_form[N - 1] = np.inf
            l_seq[N - 1] = np.nan
    return {
        "N": np.arange(1, N_max + 1),
        "gamma_form": gamma_form,
        "delta_form": delta_form,
        "M": gamma_form,
        "L": l_seq,
        "hamburger_trend": (
            "bounded-looking"
            if _trend_label(gamma_form) == "bounded-looking"
            and _trend_label(delta_form) == "bounded-looking"
            else "growing"
        ),
        "stieltjes_trend": (
            "bounded-looking"
            if _trend_label(gamma_form) == "bounded-looking"
            and _trend_label(l_seq) == "bounded-looking"
            else "growing"
        ),
    }
