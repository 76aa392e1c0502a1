"""Inverse solvers: coefficients of a Jacobi block from a response vector.

The canonical route is the factorization method: build the reversed
connecting matrix C_T = J C^T J, then

    a_k = sqrt(det C_{k+1} det C_{k-1}) / det C_k,
    b_k = det C_{k+1,k}/det C_k - det C_{k,k-1}/det C_{k-1},

where C_{k+1,k} replaces the last column of C_k by column k+1 entries.  All
ratios come from unpivoted LDL^t pivots and the subdiagonal of the unit
factor; raw determinants are only reported as diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import JacobiSpec, chebyshev_values
from .discrete_wave import (
    ResponseVector,
    _as_response,
    connecting_from_response,
    response_vector,
    reverse_order,
)
from .errors import SingularBlockError

__all__ = [
    "InversionReport",
    "CharacterizationResult",
    "SchrodingerResult",
    "invert_factorization",
    "solve_krein",
    "kappa_vector",
    "response_matrix",
    "characterize",
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
    re-simulated response against the input.
    """

    a0: complex
    a: np.ndarray
    b: np.ndarray
    determinants: np.ndarray
    residual: float
    mode: str = "real"
    a_sq: np.ndarray | None = None
    coeff_error: float | None = None

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


def _equilibrate(C: np.ndarray):
    """Symmetric diagonal scaling Cs = D C D with unit-ish diagonal.

    Connecting matrices are heavily graded: their pivots are squared control
    fronts (prod_j a_j)^2 and span many decades, which destroys the relative
    accuracy of determinant ratios computed on the raw matrix.  The grading
    sits almost entirely in the diagonal, so scaling it out first makes the
    pivots O(1); determinant ratios transform back by the known D factors.
    """
    diag = np.abs(np.diag(C)).astype(float)
    diag[diag == 0] = 1.0
    D = 1.0 / np.sqrt(diag)
    return D[:, None] * C * D[None, :], D


def _ldl_pivots(C: np.ndarray):
    """Unpivoted LDL^t (plain transpose) of a (complex) symmetric matrix.

    Returns (L, d).  Raises SingularBlockError when a pivot falls under the
    tolerance, relative to the leading-block norm; the failing index is the
    first non-invertible leading block.
    """
    n = C.shape[0]
    L = np.eye(n, dtype=C.dtype)
    d = np.zeros(n, dtype=C.dtype)
    block_max = 0.0
    for k in range(n):
        block_max = max(block_max, float(np.max(np.abs(C[: k + 1, k]))))
        d[k] = C[k, k] - np.sum(L[k, :k] ** 2 * d[:k])
        if abs(d[k]) <= PIVOT_TOL * block_max:
            raise SingularBlockError(
                f"leading block C_{k + 1} is not invertible "
                f"(pivot {d[k]:.3e}, tolerance {PIVOT_TOL * block_max:.3e})"
            )
        L[k + 1 :, k] = (C[k + 1 :, k] - L[k + 1 :, :k] @ (L[k, :k] * d[:k])) / d[k]
    return L, d


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
        raise ValueError(f"need at least 2T-1 = {2 * T - 1} response entries")
    mode = r.mode
    a0 = rv[0]
    if a0 == 0:
        raise SingularBlockError("r_0 = a_0 vanishes")
    if mode == "real" and a0 < 0:
        raise SingularBlockError("r_0 = a_0 must be positive in real mode")
    rn = rv / a0
    C = reverse_order(connecting_from_response(rn, T))
    Cs, D = _equilibrate(C)
    L, ds = _ldl_pivots(Cs)
    if mode == "real" and np.any(ds.real <= 0):
        raise SingularBlockError("C_T is not positive definite: data is not a response vector")
    # true pivots d_k = ds_k / D_k^2; ratios and determinants carry the D factors
    with np.errstate(over="ignore"):
        dets = np.cumprod(ds / D**2)
    a_sq = (ds[1:] / ds[:-1]) * (D[:-1] / D[1:]) ** 2
    a_rec = np.sqrt(a_sq)  # principal root; the positive one in real mode
    # partial sums S_k = sum_{j<=k} b_j = last entry of C_k^{-1} C[:k, k]
    # = diag(D[:k]) L_k^{-t} L[k, :k]^t / D[k]; L_k^{-t} is unit upper triangular,
    # so S_k = D[k-1] L[k, k-1] / D[k]
    S = D[:-1] / D[1:] * np.diagonal(L, -1)
    b_rec = np.diff(S, prepend=0.0)
    if mode == "real":
        a0, a_rec, b_rec, dets = a0.real, a_rec.real, b_rec.real, dets.real
    rep = InversionReport(
        a0=a0, a=a_rec, b=b_rec, determinants=dets, residual=0.0, mode=mode,
        a_sq=a_sq if mode == "complex" else None,
    )
    used = rv[: 2 * T - 1]
    resim = response_vector(rep.recovered, 2 * T - 1, bc="semi_infinite").r
    residual = float(np.max(np.abs(resim - used)) / max(np.max(np.abs(used)), 1e-300))
    return InversionReport(
        a0=a0, a=a_rec, b=b_rec, determinants=dets, residual=residual, mode=mode,
        a_sq=a_sq if mode == "complex" else None,
    )


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
        raise ValueError("response too short for the requested horizon")
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
        raise ValueError("C must be the T x T connecting matrix")
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
    C^{T-k}, k = 0..T-1, invertible.  Both verdicts run through the same
    pivot machinery as `invert_factorization` (an LDL^t sweep of the reversed
    matrix visits exactly the nested blocks), so a response that passes here
    never makes the inversion refuse and vice versa.  Smallest singular
    values of the nested blocks are attached as diagnostics.  A real block is
    symmetric, so its smallest singular value is its smallest |eigenvalue|
    (`eigvalsh`); a complex block is complex-symmetric but not Hermitian, so
    it takes the singular values themselves (`svd`).
    """
    r = _as_response(r)
    if r.size < 2 * T - 1:
        raise ValueError(f"need at least 2T-1 = {2 * T - 1} response entries")
    C = reverse_order(connecting_from_response(r, T))
    if np.iscomplexobj(C):
        sigmas = [float(np.linalg.svd(C[:k, :k], compute_uv=False)[-1]) for k in range(1, T + 1)]
    else:
        sigmas = [float(np.min(np.abs(np.linalg.eigvalsh(C[:k, :k])))) for k in range(1, T + 1)]
    diag = {"min_singular_values": sigmas}
    if mode == "real":
        if np.iscomplexobj(r) and np.any(r.imag != 0):
            return CharacterizationResult(False, mode, "complex entries in real mode", diag)
        if r[0].real <= 0:
            return CharacterizationResult(False, mode, "r_0 = a_0 is not positive", diag)
        try:
            Cs, _ = _equilibrate(C.real / r[0].real)
            _, ds = _ldl_pivots(Cs)
        except SingularBlockError as exc:
            return CharacterizationResult(False, mode, str(exc), diag)
        if np.any(ds.real <= 0):
            return CharacterizationResult(False, mode, "C^T is not positive definite", diag)
        return CharacterizationResult(True, mode, "C^T positive definite", diag)
    if mode != "complex":
        raise ValueError(f"unknown mode {mode!r}")
    if r[0] == 0:
        return CharacterizationResult(False, mode, "r_0 = a_0 vanishes", diag)
    try:
        Cs, _ = _equilibrate(C.astype(complex) / r[0])
        _ldl_pivots(Cs)
    except SingularBlockError as exc:
        return CharacterizationResult(False, mode, str(exc), diag)
    return CharacterizationResult(True, mode, "all nested blocks are isomorphisms", diag)


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
    C = reverse_order(connecting_from_response(r, T))
    Cs, D = _equilibrate(C)
    try:
        _, ds = _ldl_pivots(Cs)
    except SingularBlockError:
        return SchrodingerResult(False, np.zeros(0), "a leading block is singular")
    dets = np.cumprod(ds / D**2).real
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
        raise ValueError(f"need T-1 = {T - 1} odd entries")
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
    if spec.n < T:
        raise ValueError("spec block must have size >= T")
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
    return InversionReport(
        a0=rep.a0, a=rep.a, b=rep.b, determinants=rep.determinants,
        residual=rep.residual, mode=rep.mode, a_sq=rep.a_sq, coeff_error=coeff_error,
    )
