"""Inverse solvers: coefficients of a Jacobi block from a response vector.

The canonical route is the factorization method: build the reversed
connecting matrix C_T = J C^T J, then

    a_k = sqrt(det C_{k+1} det C_{k-1}) / det C_k,
    b_k = det C_{k+1,k}/det C_k - det C_{k,k-1}/det C_{k-1},

where C_{k+1,k} replaces the last column of C_k by column k+1 entries.  The
response entries are modified moments of the spectral measure, so one
modified Chebyshev sweep returns every one of these ratios in O(T^2)
without factoring C; raw determinants are only reported as diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import JacobiSpec, chebyshev_values
from .discrete_wave import (
    ResponseVector,
    _as_response,
    _require_horizon,
    connecting_from_response,
    response_vector,
    reverse_order,
)
from .errors import InvalidInputError, SingularBlockError

__all__ = [
    "InversionReport",
    "CharacterizationResult",
    "SchrodingerResult",
    "invert_factorization",
    "solve_krein",
    "kappa_vector",
    "response_matrix",
    "characterize",
    "nested_min_singular_values",
    "schrodinger_check",
    "schrodinger_even_entries",
    "roundtrip_report",
]

# Numerical-zero threshold for LDL pivots, relative to the leading-block norm.
# The pivots of a connecting matrix are the squared control-front products
# (prod a_j)^2 and legitimately span many decades, so the threshold must sit
# at rounding level: a pivot below ~100 eps of its block scale carries no
# reliable digits.
PIVOT_TOL = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class InversionReport:
    """Result of a factorization inversion.

    In complex mode only a_k^2 is determined by the data (the response is even
    in every a_k); `a` then holds principal square roots, which reproduce the
    same response.  `determinants` lists det C_1..det C_T of the reversed
    connecting matrix.  `residual` is the max relative error of the
    re-simulated response against the input.  `scaled_pivots` are the LDL^t
    pivots of the diagonally equilibrated reversed connecting matrix of
    r / r_0 (read off the modified Chebyshev sweep, C is never factored), the
    conditioning profile of the data: a pivot near zero marks a nested block
    close to singular.
    """

    a0: complex
    a: np.ndarray
    b: np.ndarray
    determinants: np.ndarray
    residual: float
    mode: str = "real"
    a_sq: np.ndarray | None = None
    coeff_error: float | None = None
    scaled_pivots: np.ndarray | None = None

    @property
    def min_scaled_pivot(self) -> float:
        return float(np.min(np.abs(self.scaled_pivots)))

    @property
    def recovered(self) -> JacobiSpec:
        """Recovered block, padded with b_T = 0.

        The pad is the minimal extension: responses r_0..r_{2T-2} do not
        depend on b_T, so the padded block reproduces the inverted data.
        """
        return JacobiSpec(
            a0=self.a0,
            a=self.a,
            b=np.concatenate([self.b, [0.0]]),
            mode=self.mode,
        )


def _chebyshev_sweep(r: np.ndarray, T: int):
    """Modified Chebyshev algorithm on the modified moments m = r / r_0.

    The entries m_t = sum_k w_k pi_t(lambda_k) are moments of the spectral
    measure in the basis pi_{t+1} = lambda pi_t - pi_{t-1}, and the reversed
    connecting matrix C_T of m is their Gram matrix.  The recurrence
    (Sack & Donovan 1972; Gautschi 1982)

        s_{k,l} = s_{k-1,l+1} - b_k s_{k-1,l} - a_{k-1}^2 s_{k-2,l} + s_{k-1,l-1}

    gives the LDL^t pivots d_k = s_{k,k} = det C_{k+1} / det C_k of C_T,
    a_k^2 = d_k / d_{k-1} and b_{k+1} = s_{k,k+1}/d_k - s_{k-1,k}/d_{k-1} in
    O(T^2), without factoring C.  It runs on the rows t_{k,l} = s_{k,l} / d_k
    (so t_{k,k} = 1), whose recurrence t_{k-1,l+1} - b_k t_{k-1,l} - t_{k-2,l}
    + t_{k-1,l-1} = a_k^2 t_{k,l} needs no pivot ratio, and
    b_{k+1} = t_{k,k+1} - t_{k-1,k} is a plain difference.  Uses m_0..m_{2T-1}:
    2T-1 entries give b_1..b_{T-1}, a 2T-th gives b_T as well.  Returns
    (b, d, ds) with ds_k = d_k / |(C_T)_kk|, the pivots of the diagonally
    equilibrated C_T.

    Visits the nested blocks C_1, ..., C_T in order and raises
    SingularBlockError at the first pivot with |ds_k| under PIVOT_TOL times
    the leading-block norm of the equilibrated C_T; every pivot-based verdict
    and every determinant ratio runs through here, so two callers given the
    same r cannot disagree.
    """
    _require_horizon(r, T)
    m = r[: 2 * T] / r[0]
    n = m.size
    # O(T^2) assembly for the refusal scale: the running column maxima of D C_T D
    C = reverse_order(connecting_from_response(m, T))
    diag = np.abs(np.diag(C)).astype(float)
    diag[diag == 0] = 1.0
    D = 1.0 / np.sqrt(diag)
    tol = PIVOT_TOL * np.maximum.accumulate(np.max(np.abs(D[:, None] * np.triu(C) * D), axis=0))
    d = np.empty(T, dtype=m.dtype)
    b = np.empty(min(T, n // 2), dtype=m.dtype)
    prev, u = np.zeros_like(m), m  # t_{k-1} and s_k / d_{k-1}, with t_{-1} = 0 and d_{-1} = 1
    for k in range(T):
        d[k] = u[k] * d[k - 1] if k else u[0]
        if not abs(d[k] / diag[k]) > tol[k]:  # a NaN pivot refuses too
            raise SingularBlockError(
                f"leading block C_{k + 1} is not invertible "
                f"(pivot {d[k] / diag[k]:.3e}, tolerance {tol[k]:.3e})"
            )
        cur = u / u[k]
        if k < b.size:
            b[k] = cur[k + 1] - prev[k]
        if k + 1 < T:
            lo, hi = k + 1, n - k - 1
            u = np.zeros_like(m)
            u[lo:hi] = cur[lo + 1 : hi + 1] - b[k] * cur[lo:hi] - prev[lo:hi] + cur[lo - 1 : hi - 1]
            prev = cur
    return b, d, d / diag


def _leading_eigvalsh(C: np.ndarray) -> list:
    """eigvalsh(C[:k, :k]) for k = 1..T, ascending within each block.

    One dense eigensolve per block, O(T^4) in total: the spectrum of a leading
    block does not follow from that of the block before it.
    """
    return [np.linalg.eigvalsh(C[:k, :k]) for k in range(1, C.shape[0] + 1)]


def invert_factorization(r, T: int) -> InversionReport:
    """Recover a_0, a_1..a_{T-1}, b_1..b_{T-1} from r_0..r_{2T-2}.

    The data is normalized by a_0 = r_0 first (responses scale linearly in
    a_0).  Real mode takes the positive root for a_k and additionally checks
    positive definiteness; complex mode determines a_k^2 only.
    """
    r = r if isinstance(r, ResponseVector) else ResponseVector(
        np.atleast_1d(np.asarray(r)),
        mode="complex" if np.iscomplexobj(np.asarray(r)) else "real",
    )
    rv = r.r
    if rv.size < 2 * T - 1:
        raise InvalidInputError(f"need at least 2T-1 = {2 * T - 1} response entries")
    mode = r.mode
    a0 = rv[0]
    if a0 == 0:
        raise SingularBlockError("r_0 = a_0 vanishes")
    if mode == "real" and a0 < 0:
        raise SingularBlockError("r_0 = a_0 must be positive in real mode")
    used = rv[: 2 * T - 1]
    b_rec, d, ds = _chebyshev_sweep(used, T)
    if mode == "real" and np.any(ds.real <= 0):
        raise SingularBlockError("C_T is not positive definite: data is not a response vector")
    with np.errstate(over="ignore"):
        dets = np.cumprod(d)
    a_sq = d[1:] / d[:-1]
    a_rec = np.sqrt(a_sq)  # principal root; the positive one in real mode
    if mode == "real":
        a0, a_rec, b_rec, dets, ds = a0.real, a_rec.real, b_rec.real, dets.real, ds.real
    rep = InversionReport(
        a0=a0, a=a_rec, b=b_rec, determinants=dets, residual=0.0, mode=mode,
        a_sq=a_sq if mode == "complex" else None, scaled_pivots=ds,
    )
    resim = response_vector(rep.recovered, 2 * T - 1, bc="semi_infinite").r
    residual = float(np.max(np.abs(resim - used)) / max(np.max(np.abs(used)), 1e-300))
    return replace(rep, residual=residual)


def kappa_vector(T: int, lam) -> np.ndarray:
    """Solution of kappa_{t+1} + kappa_{t-1} = lambda kappa_t with
    kappa_T = 0, kappa_{T-1} = 1, returned as (kappa_0, ..., kappa_{T-1}).

    Equivalently kappa_t = T_{T-t}(lambda).
    """
    vals = chebyshev_values(T, lam)
    return vals[T:0:-1].copy()


def response_matrix(r, T: int) -> np.ndarray:
    """Matrix of the response operator R^T f = r * f_{.-1} on F^T.

    Component t of the output is u_{1,t} = sum_{s<t} r_{t-1-s} f_s, so the
    matrix is strictly lower triangular Toeplitz.
    """
    r = _as_response(r)
    if r.size < T - 1:
        raise InvalidInputError("response too short for the requested horizon")
    M = np.zeros((T, T), dtype=r.dtype)
    for t in range(1, T):
        M[t, :t] = r[t - 1 :: -1]
    return M


def solve_krein(C: np.ndarray, r, lam, alpha, beta, T: int) -> np.ndarray:
    """Solve the Krein-type equation C^T f = beta conj(kappa) - alpha (R^T)* conj(kappa).

    The resulting control drives the system to the state conj(y^T(lambda))
    where y solves the three-term recurrence with y_0 = alpha, y_1 = beta
    (under the a_0 = 1 normalization).
    """
    C = np.asarray(C)
    if C.shape != (T, T):
        raise InvalidInputError("C must be the T x T connecting matrix")
    kap = np.conj(kappa_vector(T, lam))
    R = response_matrix(r, T)
    rhs = beta * kap - alpha * (R.conj().T @ kap)
    return np.linalg.solve(C, rhs)


@dataclass(frozen=True)
class CharacterizationResult:
    admissible: bool
    mode: str
    detail: str
    diagnostics: dict = field(default_factory=dict)


def characterize(r, T: int, mode: str = "real") -> CharacterizationResult:
    """Decide whether r_0..r_{2T-2} is a response vector of some system.

    Real mode: C^T positive definite.  Complex mode: every nested block
    C^{T-k}, k = 0..T-1, invertible.  The verdict is the modified Chebyshev
    sweep of `invert_factorization` on the same normalized data r / r_0 (its
    pivots d_k = det C_{k+1} / det C_k visit exactly the nested blocks), so a
    response that passes here never makes the inversion refuse and vice
    versa.  One O(T^2) sweep decides.  When the sweep runs to the end, its
    pivots are the diagnostics: `scaled_pivots` (equal to the inversion's)
    and their smallest modulus `min_scaled_pivot`.  The smallest singular
    values of the nested blocks are a separate O(T^4) call,
    `nested_min_singular_values`.
    """
    r = _as_response(r)
    _require_horizon(r, T)
    if mode == "real":
        if np.iscomplexobj(r) and np.any(r.imag != 0):
            return CharacterizationResult(False, mode, "complex entries in real mode")
        if r[0].real <= 0:
            return CharacterizationResult(False, mode, "r_0 = a_0 is not positive")
        rn = r.real / r[0].real
    elif mode == "complex":
        if r[0] == 0:
            return CharacterizationResult(False, mode, "r_0 = a_0 vanishes")
        rn = r.astype(complex) / r[0]
    else:
        raise InvalidInputError(f"unknown mode {mode!r}")
    try:
        _, _, ds = _chebyshev_sweep(rn, T)
    except SingularBlockError as exc:
        return CharacterizationResult(False, mode, str(exc))
    diag = {"scaled_pivots": ds, "min_scaled_pivot": float(np.min(np.abs(ds)))}
    if mode == "complex":
        return CharacterizationResult(True, mode, "all nested blocks are isomorphisms", diag)
    if np.any(ds.real <= 0):
        return CharacterizationResult(False, mode, "C^T is not positive definite", diag)
    return CharacterizationResult(True, mode, "C^T positive definite", diag)


def nested_min_singular_values(r, T: int) -> np.ndarray:
    """Smallest singular value of each nested block C_1..C_T of the reversed,
    unnormalized connecting matrix built from r.

    O(T^4): one dense eigensolve per nested block, since the smallest
    singular value of a block does not follow from that of the block before
    it.  A real block is symmetric, so its smallest singular value is its
    smallest |eigenvalue| (`eigvalsh`); a complex block is complex-symmetric
    but not Hermitian, so it takes the singular values themselves (`svd`).
    """
    C = reverse_order(connecting_from_response(r, T))
    if np.iscomplexobj(C):
        return np.array([np.linalg.svd(C[:k, :k], compute_uv=False)[-1] for k in range(1, T + 1)])
    return np.array([np.min(np.abs(ev)) for ev in _leading_eigvalsh(C)])


@dataclass(frozen=True)
class SchrodingerResult:
    passes: bool
    determinants: np.ndarray
    detail: str


def schrodinger_check(r, T: int, tol: float = 1e-8) -> SchrodingerResult:
    """Check det C^l = 1, l = 1..T: the discrete Schroedinger (a_k = 1) case."""
    r = _as_response(r)
    if abs(r[0] - 1.0) > tol:
        return SchrodingerResult(False, np.zeros(0), "r_0 != 1")
    try:
        _, d, ds = _chebyshev_sweep(r, T)
    except SingularBlockError:
        return SchrodingerResult(False, np.zeros(0), "a leading block is singular")
    # the sweep's pivots are those of C(r / r_0) = C(r) / r_0^2
    dets = np.cumprod(r[0] ** 2 * d).real
    ok = bool(np.all(np.abs(dets - 1.0) <= tol)) and bool(np.all(ds.real > 0))
    detail = "all leading minors equal 1" if ok else "det C^l deviates from 1"
    return SchrodingerResult(ok, dets, detail)


def schrodinger_even_entries(odd_entries, T: int) -> np.ndarray:
    """Even response entries implied by det C^{m+1} = 1 given the odd ones.

    r_{2m} appears only in the corner of C_{m+1} (reversed ordering), so
    det C^{m+1} = 1 is linear in it: r_{2m} = 1 + c^t C_m^{-1} c - sum_{k<m} r_{2k}.
    Returns the full response (r_0, ..., r_{2T-2}) with r_0 = 1.
    """
    odd = np.atleast_1d(np.asarray(odd_entries, dtype=float))
    if odd.size < T - 1:
        raise InvalidInputError(f"need T-1 = {T - 1} odd entries")
    r = np.zeros(2 * T - 1)
    r[0] = 1.0
    r[1::2] = odd[: T - 1]
    for m in range(1, T):
        C = reverse_order(connecting_from_response(r, m + 1))
        c = C[:m, m]
        corner_known = np.sum(r[0 : 2 * m : 2])  # r_0 + r_2 + ... + r_{2m-2}
        x = np.linalg.solve(C[:m, :m], c)
        r[2 * m] = 1.0 + float(c @ x) - corner_known
    return r


def roundtrip_report(spec: JacobiSpec, T: int) -> InversionReport:
    """Simulate, invert, re-simulate; attach the max relative coefficient error.

    Compares the recoverable coefficients a_1..a_{T-1} and b_1..b_{T-1}
    (complex mode compares a_k^2, the quantity the data determines).
    """
    r = response_vector(spec, 2 * T - 1, bc="semi_infinite")
    rep = invert_factorization(r, T)
    a_true = spec.a[: T - 1]
    b_true = spec.b[: T - 1]
    if spec.mode == "complex":
        a_err = np.abs(rep.a_sq - a_true**2) / np.maximum(np.abs(a_true) ** 2, 1e-300)
    else:
        a_err = np.abs(rep.a - a_true) / np.maximum(np.abs(a_true), 1e-300)
    b_err = np.abs(rep.b - b_true) / np.maximum(np.abs(b_true), 1.0)
    a0_err = abs(rep.a0 - spec.a0) / abs(spec.a0)
    coeff_error = float(max(a_err.max(initial=0.0), b_err.max(initial=0.0), a0_err))
    return replace(rep, coeff_error=coeff_error)
