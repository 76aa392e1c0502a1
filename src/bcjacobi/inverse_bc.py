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

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    JacobiSpec, _as_finite, _as_lambda, _as_numbers, _hankel, _require_size, _tolerance, chebyshev_values,
)
from .discrete_wave import (
    ResponseVector,
    _as_response,
    _connecting,
    _require_horizon,
    connecting_from_response,
    response_vector,
    reverse_order,
)
from .errors import InvalidInputError, SingularBlockError

_log = logging.getLogger(__name__)

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
    same response.  `determinants` lists the leading minors det C_1..det C_T
    of the reversed connecting matrix C(r) of the unnormalized data, for any
    r_0 = a_0 (each is r_0^(2k) times the minor of C(r / r_0)).  `residual`
    is the max relative error of the re-simulated response against the input.  `scaled_pivots` are the LDL^t
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


@dataclass(frozen=True)
class CharacterizationResult:
    admissible: bool
    mode: str
    detail: str
    diagnostics: dict = field(default_factory=dict)


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
    (b, d, ds, refusal) with ds_k = d_k / |(C_T)_kk|, the pivots of the
    diagonally equilibrated C_T.

    Visits the nested blocks C_1, ..., C_T in order and stops at the first
    pivot with |ds_k| under PIVOT_TOL times the leading-block norm of the
    equilibrated C_T: b, d and ds are then cut at the depth reached, exactly
    what a sweep to that depth returns, and `refusal` names the block (it is
    None when the sweep gets through).  `_admit` runs it for every verdict;
    only `moments.indeterminacy_sequences`, which cuts rather than refuses,
    calls it directly.  The caller checks the horizon.

    The rows run on three preallocated arrays that rotate, and step k touches
    only the live entries k..n-k-1 of u_k, the rest being zero; every entry
    is computed in the order of the one-expression row update, so b, d, ds and
    the refusal are those of a sweep over whole rows bit for bit.
    """
    m = r[: 2 * T] / r[0]
    n = m.size
    diag, tol = _pivot_scale(m, T)
    d = np.empty(T, dtype=m.dtype)
    b = np.empty(min(T, n // 2), dtype=m.dtype)
    # t_{k-1}, u_k = s_k / d_{k-1} (divided in place into t_k) and u_{k+1}, with
    # t_{-1} = 0 and d_{-1} = 1; u_k is live on k..n-k-1 and zero outside
    prev, cur, nxt = np.zeros((3, n), dtype=m.dtype)
    cur[:] = m
    for k in range(T):
        d[k] = cur[k] * d[k - 1] if k else cur[0]
        if not abs(d[k] / diag[k]) > tol[k]:  # a NaN pivot refuses too
            refusal = (
                f"leading block C_{k + 1} is not invertible "
                f"(pivot {d[k] / diag[k]:.3e}, tolerance {tol[k]:.3e})"
            )
            return b[: min(k, b.size)], d[:k], d[:k] / diag[:k], refusal
        live = cur[k : n - k]
        np.divide(live, live[0], out=live)
        if k < b.size:
            b[k] = cur[k + 1] - prev[k]
        if k + 1 < T:
            lo, hi = k + 1, n - k - 1
            out = nxt[lo:hi]
            np.multiply(b[k], cur[lo:hi], out=out)
            np.subtract(cur[lo + 1 : hi + 1], out, out=out)
            out -= prev[lo:hi]
            out += cur[lo - 1 : hi - 1]
            prev, cur, nxt = cur, nxt, prev
    return b, d, d / diag, None


def _pivot_scale(m: np.ndarray, T: int):
    """|(C_T)_kk| (1 where it vanishes) and the refusal tolerances, PIVOT_TOL times
    the running column maxima of the triangle of D C_T D, D = diag^(-1/2), for
    the reversed connecting matrix C_T of m.

    One O(T^2) assembly (the row recurrence of `_connecting`), read reversed in
    place, one triangle copy scaled in place: at most two T x T arrays are alive.
    The diagonal is read off J C_T J and reversed after, since numpy's complex
    modulus rounds differently on a negative stride.
    """
    JCJ = _connecting(m, T)
    diag = np.abs(np.diag(JCJ))[::-1].astype(float)
    diag[diag == 0] = 1.0
    D = 1.0 / np.sqrt(diag)
    S = np.triu(JCJ[::-1, ::-1])
    del JCJ
    S *= D[:, None]
    S *= D
    S = np.abs(S, out=None if np.iscomplexobj(S) else S)
    return diag, PIVOT_TOL * np.maximum.accumulate(np.max(S, axis=0))


def _leading_minors(r0, d: np.ndarray) -> np.ndarray:
    """det C_1..det C_k of the reversed connecting matrix of r from the sweep's
    pivots d, which are those of C(r / r_0) = C(r) / r_0^2."""
    with np.errstate(over="ignore"):
        return np.cumprod(r0**2 * d)


def _leading_eigvalsh(C: np.ndarray) -> list:
    """eigvalsh(C[:k, :k]) for k = 1..T, ascending within each block.

    One dense eigensolve per block, O(T^4) in total: the spectrum of a leading
    block does not follow from that of the block before it.
    """
    return [np.linalg.eigvalsh(C[:k, :k]) for k in range(1, C.shape[0] + 1)]


def _admit(r: np.ndarray, T: int):
    """The one admissibility decision of the discrete inverse, on coerced entries.

    Complex entries are judged in complex mode (r_0 != 0, every nested block
    invertible), real ones in real mode (r_0 > 0, C^T positive definite): the
    horizon, r_0, the sweep on r (which divides by r_0 itself), its refusal
    and in real mode the sign of its pivots, in that order.  Returns
    (verdict, b, d), the sweep's b and pivots d (None if r_0 refuses).
    """
    _require_horizon(r, T)
    mode = "complex" if np.iscomplexobj(r) else "real"
    b = d = None
    if mode == "real" and r[0] <= 0:
        verdict = CharacterizationResult(False, mode, "r_0 = a_0 is not positive")
    elif r[0] == 0:
        verdict = CharacterizationResult(False, mode, "r_0 = a_0 vanishes")
    else:
        b, d, ds, refusal = _chebyshev_sweep(r, T)
        if refusal is not None:
            verdict = CharacterizationResult(False, mode, refusal)
        else:
            diag = {"scaled_pivots": ds, "min_scaled_pivot": float(np.min(np.abs(ds)))}
            if mode == "complex":
                verdict = CharacterizationResult(True, mode, "all nested blocks are isomorphisms", diag)
            elif np.any(ds <= 0):
                verdict = CharacterizationResult(False, mode, "C^T is not positive definite", diag)
            else:
                verdict = CharacterizationResult(True, mode, "C^T positive definite", diag)
    if not verdict.admissible:
        _log.debug("%s response refused at T = %d: %s", mode, T, verdict.detail)
    return verdict, b, d


def invert_factorization(r, T: int) -> InversionReport:
    """Recover a_0, a_1..a_{T-1}, b_1..b_{T-1} from r_0..r_{2T-2}.

    The mode is a `ResponseVector`'s own, else complex for complex entries.
    Raises `SingularBlockError` exactly where `characterize` is inadmissible,
    with its detail.  The data is normalized by a_0 = r_0 (responses scale
    linearly in a_0); real mode takes a_k > 0, complex mode determines a_k^2.
    """
    if not isinstance(r, ResponseVector):
        r = ResponseVector(r, mode="complex" if np.iscomplexobj(r) else "real")
    _require_horizon(r.r, T)
    used = r.r[: 2 * T - 1]
    verdict, b_rec, d = _admit(used, T)
    if not verdict.admissible:
        raise SingularBlockError(verdict.detail)
    a_sq = d[1:] / d[:-1]
    rep = InversionReport(
        a0=used[0], a=np.sqrt(a_sq), b=b_rec, determinants=_leading_minors(used[0], d), residual=0.0,
        mode=r.mode, a_sq=a_sq if r.mode == "complex" else None,
        scaled_pivots=verdict.diagnostics["scaled_pivots"],
    )
    resim = response_vector(rep.recovered, 2 * T - 1, bc="semi_infinite").r
    residual = float(np.max(np.abs(resim - used)) / max(np.max(np.abs(used)), 1e-300))
    return replace(rep, residual=residual)


def kappa_vector(T: int, lam) -> np.ndarray:
    """Solution of kappa_{t+1} + kappa_{t-1} = lambda kappa_t with
    kappa_T = 0, kappa_{T-1} = 1, returned as (kappa_0, ..., kappa_{T-1}).

    Equivalently kappa_t = T_{T-t}(lambda).
    """
    _require_size("T", T)
    vals = chebyshev_values(T, lam)
    return vals[T:0:-1].copy()


def response_matrix(r, T: int) -> np.ndarray:
    """Matrix of the response operator R^T f = r * f_{.-1} on F^T.

    Component t of the output is u_{1,t} = sum_{s<t} r_{t-1-s} f_s, so the
    matrix is strictly lower triangular Toeplitz, the column-reversed Hankel
    matrix of T zeros and r_0..r_{T-2}; R^N is its leading block, N <= T.
    """
    _require_size("T", T)
    r = _as_response(r)
    if r.size < T - 1:
        raise InvalidInputError("response too short for the requested horizon")
    return _hankel(np.concatenate([np.zeros(T, r.dtype), r[: T - 1]]), T, T)[:, ::-1].copy()


def solve_krein(C: np.ndarray, r, lam, alpha, beta, T: int) -> np.ndarray:
    """Solve the Krein-type equation C^T f = beta conj(kappa) - alpha (R^T)* conj(kappa).

    The resulting control drives the system to the state conj(y^T(lambda))
    where y solves the three-term recurrence with y_0 = alpha, y_1 = beta
    (under the a_0 = 1 normalization).  A singular C raises `SingularBlockError`.
    """
    C = _as_finite(C, "C", real=False, ndim=2)
    alpha, beta = (_as_lambda(x, scalar=True, what=name) for x, name in ((alpha, "alpha"), (beta, "beta")))
    if C.shape != (T, T):
        raise InvalidInputError("C must be the T x T connecting matrix")
    kap = np.conj(kappa_vector(T, lam))
    R = response_matrix(r, T)
    rhs = beta * kap - alpha * (R.conj().T @ kap)
    try:
        return np.linalg.solve(C, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError("C is singular") from exc


def characterize(r, T: int) -> CharacterizationResult:
    """Decide whether r_0..r_{2T-2} is a response vector of some system.

    The mode is the data's, as in `invert_factorization`: real mode asks for
    C^T positive definite, complex mode for every nested block C^{T-k}
    invertible.  The verdict is `_admit`'s, so the inversion raises exactly
    where this is inadmissible, with this detail.  One O(T^2) sweep decides;
    when it runs to the end its pivots are the diagnostics, `scaled_pivots`
    (the inversion's) and their smallest modulus `min_scaled_pivot`.  A
    non-finite entry is a singular block, so it is inadmissible.  The nested
    blocks' smallest singular values are `nested_min_singular_values`, O(T^4).
    """
    return _admit(_as_numbers(r.r if isinstance(r, ResponseVector) else r, "response", real=False), T)[0]


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
    """Check det C^l = 1, l = 1..T: the discrete Schroedinger (a_k = 1) case.

    Fails on r_0 != 1 first, then with the detail of an inadmissible verdict.
    """
    r = _as_response(r)
    tol = _tolerance(tol)
    verdict, _, d = _admit(r, T)
    if abs(r[0] - 1.0) > tol:
        return SchrodingerResult(False, np.zeros(0), "r_0 != 1")
    if not verdict.admissible:
        return SchrodingerResult(False, np.zeros(0), verdict.detail)
    dets = _leading_minors(r[0], d)
    ok = bool(np.all(np.abs(dets - 1.0) <= tol))
    detail = "all leading minors equal 1" if ok else "det C^l deviates from 1"
    return SchrodingerResult(ok, dets, detail)


def schrodinger_even_entries(odd_entries, T: int) -> np.ndarray:
    """Even response entries implied by det C^{m+1} = 1 given the odd ones.

    r_{2m} appears only in the corner of C_{m+1} (reversed ordering), so
    det C^{m+1} = 1 is linear in it: r_{2m} = 1 + c^t C_m^{-1} c - sum_{k<m} r_{2k}.
    Returns the full response (r_0, ..., r_{2T-2}) with r_0 = 1.
    """
    _require_size("T", T)
    odd = _as_finite(odd_entries, "odd entries")
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
