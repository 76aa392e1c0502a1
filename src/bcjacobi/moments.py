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

from .core import (
    JacobiSpec, SpectralMeasure, _as_finite, _at_zero, _hankel, _require_finite, _require_size, _tolerance,
    spectral_measure,
)
from .discrete_wave import connecting_from_response, _as_response
from .errors import InvalidInputError, NotRealizableError, SingularBlockError
from .inverse_bc import _admit, _chebyshev_sweep

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
    the flag so a silent transposition cannot slip through: any other flag,
    and matrices that are not two finite real square ones of one shape, are
    refused.
    """

    s0: np.ndarray
    s1: np.ndarray
    ordering: str = "reversed"

    def __post_init__(self):
        if self.ordering not in ("reversed", "classical"):
            raise InvalidInputError(f"unknown ordering {self.ordering!r}")
        for name in ("s0", "s1"):
            object.__setattr__(self, name, _as_finite(getattr(self, name), name, ndim=2))
        if self.s0.ndim != 2 or self.s0.shape != self.s1.shape or self.s0.shape[0] != self.s0.shape[1]:
            raise InvalidInputError(f"need two square matrices of one shape, got {self.s0.shape} and {self.s1.shape}")

    def flipped(self) -> "HankelPair":
        J = slice(None, None, -1)
        other = "classical" if self.ordering == "reversed" else "reversed"
        return HankelPair(self.s0[J, J].copy(), self.s1[J, J].copy(), other)


def lambda_matrix(n: int) -> np.ndarray:
    """Integer lower-triangular matrix with r = Lambda_n s.

    Row t holds the monomial coefficients of T_t, built by the recurrence
    T_{t+1} = lambda T_t - T_{t-1}.  Entries fit int64 for n <= 60.
    """
    _require_size("n", n)
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
    integer matrix is applied in extended precision before rounding back.  An
    r past the float range raises `NumericalFailureError` under any warning
    filter.
    """
    s = _as_finite(s, "moments")
    if s.size == 0:
        raise InvalidInputError("empty moment sequence")
    L = lambda_matrix(s.size).astype(np.longdouble)
    with np.errstate(over="ignore"):  # an overflow is refused, not warned
        return _require_finite((L @ s.astype(np.longdouble)).astype(float), "the response vector Lambda s")


def response_to_moments(r) -> np.ndarray:
    """s = Lambda^{-1} r by unit-triangular forward substitution.

    Extended precision for the same cancellation reason as the forward map.
    An s past the float range raises `NumericalFailureError` under any
    warning filter.
    """
    r = _as_response(r, real=True)
    if r.size == 0:
        raise InvalidInputError("empty response")
    n = r.size
    L = lambda_matrix(n).astype(np.longdouble)
    s = np.zeros(n, dtype=np.longdouble)
    rw = r.astype(np.longdouble)
    for t in range(n):
        s[t] = (rw[t] - L[t, :t] @ s[:t]) / L[t, t]
    with np.errstate(over="ignore"):  # an overflow is refused, not warned
        return _require_finite(s.astype(float), "the moment vector Lambda^-1 r")


def _reversed_hankel(s: np.ndarray, N: int) -> np.ndarray:
    """N x N Hankel matrix with entries s_{2N-i-j}, i, j = 1..N (needs 2N-1 entries);
    the matrix for n <= N is its trailing n x n block."""
    return _hankel(s[2 * N - 2 :: -1], N, N).copy()


def build_hankel_pair(s, N: int) -> HankelPair:
    """Hankel matrices S^N_0 (needs 2N-1 moments) and S^N_1 (needs 2N), in the
    reversed ordering; `.flipped()` gives the classical pair."""
    _require_size("N", N)
    s = _as_finite(s, "moments")
    if s.size < 2 * N:
        raise InvalidInputError(f"need 2N = {2 * N} moments for the shifted Hankel")
    return HankelPair(_reversed_hankel(s, N), _reversed_hankel(s[1:], N))


def build_B(r, N: int) -> np.ndarray:
    """Matrix B^N = E^* (V^{N+1})^* C^{N+1} E + C^N V^N of the variational problem.

    Built from one response vector; entries of C^{N+1} beyond index 2N - 1 are
    annihilated by the shift/embedding trimming, so a response of length 2N
    suffices (a zero pad is inserted when r_{2N} is absent).  A C^{N+1} or a
    B^N past the float range raises `NumericalFailureError` under any warning
    filter.
    """
    _require_size("N", N)
    r = _as_response(r, real=True)
    if r.size < 2 * N:
        raise InvalidInputError(f"need at least 2N = {2 * N} response entries")
    C = connecting_from_response(r if r.size > 2 * N else np.append(r, 0.0), N + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused, not warned
        return _require_finite(_B_from_connecting(C), f"B^{N}")


def _B_from_connecting(C: np.ndarray) -> np.ndarray:
    """B^N from C = C^{N+1}: rows 2..N+1, columns 1..N of C, plus C^N V^N,
    which is C^N = C[1:, 1:] shifted one column left (V^N is the shift)."""
    B = C[1:, :-1].copy()
    B[:, :-1] += C[1:, 2:]
    return B


def _unit_mass_moments(s, N: int) -> tuple:
    """(s / s_0, s_0) for the order-N truncated problem, which needs 2N - 1
    finite moments with s_0 > 0."""
    _require_size("N", N)
    s = _as_finite(s, "moments")
    if s.size < 2 * N - 1:
        raise InvalidInputError(f"need at least 2N-1 = {2 * N - 1} moments")
    if s[0] <= 0:
        raise NotRealizableError("s_0 must be positive")
    return s / s[0], s[0]


def truncated_moment_spectral(s, N: int) -> SpectralMeasure:
    """Measure of the order-N truncated problem via a generalized eigenproblem.

    Solves B^N f = lambda C^N f, normalizes (C^N f, f) = 1, and reads the
    weights off the response operator: alpha_k = (R f_k)_N, weight = alpha_k^2.
    Needs moments s_0..s_{2N-1}; if only 2N - 1 are given, s_{2N-1} = 0 is
    assumed, which selects one member of the solution family.  The input is
    normalized by s_0 and the weights are scaled back at the end.
    """
    s, mass = _unit_mass_moments(s, N)
    if s.size < 2 * N:
        s = np.concatenate([s, [0.0]])
    r = moments_to_response(s[: 2 * N])
    C = connecting_from_response(np.append(r, 0.0), N + 1)  # r_{2N} is dropped with C[0, 0]
    CN = C[1:, 1:]
    B = _B_from_connecting(C)
    B = 0.5 * (B + B.T)  # symmetric up to rounding for realizable data
    try:
        L = np.linalg.cholesky(CN)
    except np.linalg.LinAlgError:
        raise NotRealizableError("moments not realizable: C^N is not positive definite") from None
    # B f = lambda C f with C = L L^T is the symmetric L^-1 B L^-T g = lambda g,
    # and f = L^-T g has f^T C f = g^T g = 1
    lam, G = np.linalg.eigh(np.linalg.solve(L, np.linalg.solve(L, B).T))
    F = np.linalg.solve(L.T, G)
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

    s -> r -> modified Chebyshev sweep -> A^N -> eigensolve -> measure, refused
    (`SingularBlockError`) with the detail of `characterize` where that finds
    r = Lambda (s / s_0) inadmissible.  The last diagonal entry b_N is read off
    s_{2N-1} when available (paths touching b_N first appear in that moment)
    and taken as 0 otherwise.  `extension` may supply extra (a_k, b_k) pairs
    appended before the eigensolve, the arbitrary-extension step.

    Returns (spec, measure); the measure weights carry the total mass s_0.
    """
    sn, mass = _unit_mass_moments(s, N)
    verdict, b_rec, d = _admit(moments_to_response(sn[: 2 * N]), N)
    if not verdict.admissible:
        raise SingularBlockError(verdict.detail)
    a_full = np.sqrt(d[1:] / d[:-1])
    b_full = np.concatenate([b_rec, np.zeros(N - b_rec.size)])
    if extension is not None:
        ext = _as_finite(extension, "extension", ndim=2)
        if ext.shape != (0,) and ext.shape[1] != 2:  # (0,) is an empty list of pairs
            raise InvalidInputError(f"extension must be (a_k, b_k) pairs, got shape {ext.shape}")
        ext_a, ext_b = ext.reshape(-1, 2).T
        a_full = np.concatenate([a_full, ext_a])
        b_full = np.concatenate([b_full, ext_b])
    spec = JacobiSpec(a0=1.0, a=a_full, b=b_full)
    mu = spectral_measure(spec)
    return spec, SpectralMeasure(tuple(zip(mu.lambdas, mass * mu.weights)))


def _verdict(M: np.ndarray, tol: float) -> tuple:
    """Smallest eigenvalue of a symmetric matrix and its verdict {pass, degenerate, fail}."""
    emin = float(_require_finite(np.linalg.eigvalsh(M)[0], "the smallest Hankel eigenvalue"))
    scale = max(1.0, float(np.max(np.abs(M))))
    if emin > tol * scale:
        return emin, "pass"
    return emin, "degenerate" if emin >= -tol * scale else "fail"


def solvability(s, kind: str, N_max: int, tol: float = 1e-10) -> list[dict]:
    """Per-N solvability verdicts for the classical moment problems.

    hamburger: S^N_0 positive definite; stieltjes: S^N_0 and S^N_1 positive
    definite; hausdorff: S^N_0 >= S^N_1 > 0.  'degenerate' marks a singular
    but not indefinite matrix (finitely supported measures reach this state
    once N exceeds the number of atoms); 'fail' requires a genuinely negative
    eigenvalue.  Each matrix is built once at N_max; S^N is its trailing
    N x N block.  An S^N_0 - S^N_1 or a smallest eigenvalue past the float
    range raises `NumericalFailureError` under any warning filter.
    """
    if kind not in ("hamburger", "stieltjes", "hausdorff"):
        raise InvalidInputError(f"unknown kind {kind!r}")
    _require_size("N_max", N_max)
    tol = _tolerance(tol)
    s = _as_finite(s, "moments")
    need = 2 * N_max - 1 if kind == "hamburger" else 2 * N_max
    if s.size < need:
        raise InvalidInputError(f"need {need} moments for N_max = {N_max}")
    mats = {"S0": _reversed_hankel(s, N_max)}
    if kind != "hamburger":
        mats["S1"] = _reversed_hankel(s[1:], N_max)
        if kind == "hausdorff":
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused, not warned
                mats["S0-S1"] = _require_finite(mats["S0"] - mats["S1"], "S^N_0 - S^N_1")
    rows = []
    for N in range(1, N_max + 1):
        row = {"N": N}
        for name, M in mats.items():
            row[f"min_eig_{name}"], row[f"verdict_{name}"] = _verdict(M[-N:, -N:], tol)
        row["solvable"] = all(row[f"verdict_{name}"] != "fail" for name in mats)
        rows.append(row)
    return rows


def _trend_label(*sequences) -> str:
    """Heuristic {bounded-looking, growing}: bounded-looking iff the last 5
    values of every sequence agree in modulus to 1e-3 (or one of them is 0).

    Any non-finite value in a tail means the form already blew past float
    range, which is growth by definition.
    """
    for values in sequences:
        tail = np.asarray(values, dtype=float)[-5:]
        if tail.size < 2 or np.any(~np.isfinite(tail)):
            return "growing"
        lo = np.min(np.abs(tail))
        hi = np.max(np.abs(tail))
        if lo != 0 and not (hi - lo) / lo < 1e-3:
            return "growing"
    return "bounded-looking"


def indeterminacy_sequences(s, N_max: int) -> dict:
    """Raw indeterminacy diagnostics per N, plus heuristic trend labels.

    Gamma_N = (T_N(0), ..., T_1(0)) and Delta_N = (T_N'(0), ..., T_1'(0));
    the returned forms are ((C^N)^{-1} Gamma_N, Gamma_N), the same with
    Delta_N, and the Stieltjes quantities M_N (= the Gamma form) and L_N.
    The theorems involve N -> infinity limits that finite computation cannot
    decide; the labels are explicitly heuristic.

    The forms are Christoffel-Darboux sums (Akhiezer 1965; Simon 1998) on the
    one modified Chebyshev sweep of r = Lambda s.  With d_k its pivots, p_k the
    monic orthogonal and q_k the second-kind polynomials of s / s_0: Gamma
    form_N = sum_{k<N} p_k(0)^2 / (s_0^2 d_k), the Delta form the same with
    p_k'(0), and L_N = s_0 q_{N-1}(0) / p_{N-1}(0) (NaN where p_{N-1}(0) = 0).
    The sweep stops at the first singular nested block; `sweep_depth` counts
    the rows it determines, and the rows past it read +inf, +inf and NaN.
    """
    _require_size("N_max", N_max)
    s = _as_finite(s, "moments")
    if s.size < 2 * N_max - 1:
        raise InvalidInputError(f"need 2N_max-1 = {2 * N_max - 1} moments")
    r = moments_to_response(s[: 2 * N_max - 1])
    # C^N scales with r_0 = s_0, so at s_0 = 0 no nested block is invertible
    b, d = (r[:0], r[:0]) if s[0] == 0 else _chebyshev_sweep(r, N_max)[:2]
    depth = d.size
    p, dp, q, e = _at_zero(b, d[1:] / d[:-1], depth)
    forms = np.full((2, N_max), np.inf)
    forms[:, :depth] = np.cumsum(np.ldexp(np.array([p, dp]) ** 2 / (s[0] ** 2 * d), 2 * e), axis=1)
    gamma_form, delta_form = forms
    l_seq = np.full(N_max, np.nan)
    nz = np.flatnonzero(p)
    l_seq[nz] = s[0] * q[nz] / p[nz]
    return {
        "N": np.arange(1, N_max + 1),
        "gamma_form": gamma_form,
        "delta_form": delta_form,
        "M": gamma_form,
        "L": l_seq,
        "sweep_depth": depth,
        "hamburger_trend": _trend_label(gamma_form, delta_form),
        "stieltjes_trend": _trend_label(gamma_form, l_seq),
    }
