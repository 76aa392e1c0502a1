"""Weyl m-functions and finite de Branges reproducing kernels.

The m-function is computed two ways: from spectral data as a resolvent sum,
and from a response vector as a power series in the Joukowsky variable
z = (lambda - sqrt(lambda^2 - 4))/2.  De Branges elements are polynomials in
the Chebyshev basis, normed by the reversed connecting matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    JacobiSpec, _as_finite, _as_lambda, _finite_scalar, _require_type, _tolerance, chebyshev_values,
    eig_spectral_data,
)
from .discrete_wave import _as_response, connecting_from_response, reverse_order
from .errors import BCError, InvalidInputError, PoleError
from .inverse_bc import _leading_eigvalsh

__all__ = [
    "WeylEvaluation",
    "DeBrangesElement",
    "joukowsky_z",
    "in_domain_D",
    "weyl_resolvent",
    "weyl_series",
    "debranges_kernel",
    "debranges_kernel_hankel",
    "debranges_inner",
    "beta_sequences",
]

@dataclass(frozen=True)
class WeylEvaluation:
    """One m-function evaluation: resolvent and/or series values."""

    lam: complex
    z: complex
    m_resolvent: complex | None
    m_series: complex | None
    truncation: int | None
    in_domain_D: bool | None


@dataclass(frozen=True)
class DeBrangesElement:
    """Polynomial F(lambda) = sum_k f_k T_k(lambda), k = 1..T."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_finite(self.coeffs, "coefficients", real=False))

    @property
    def T(self) -> int:
        return self.coeffs.size

    def __call__(self, lam):
        vals = chebyshev_values(self.T, lam)
        return np.tensordot(self.coeffs, vals[1:], axes=(0, 0))


def joukowsky_z(lam) -> complex:
    """Small root of z + 1/z = lambda.

    The branch is fixed so that z lies in the closed unit disk, and in the
    lower half disk when lambda is in the upper half-plane; z + 1/z
    reproduces lambda to machine precision.
    """
    lam = complex(_as_lambda(lam, scalar=True))
    s = np.sqrt(lam * lam - 4.0 + 0j)
    z1 = (lam - s) / 2.0
    z2 = (lam + s) / 2.0
    return z1 if abs(z1) <= abs(z2) else z2


def in_domain_D(lam, B: float) -> bool:
    """Membership in the convergence region D for coefficient bound B.

    With R = 3B + 1, D is the part of the upper half-plane outside the
    Joukowsky image of the circle |z| = 1/R (an ellipse with semi-axes
    R + 1/R and R - 1/R); equivalently |z(lambda)| < 1/R and Im lambda > 0.
    """
    lam = complex(_as_lambda(lam, scalar=True))
    R = 3.0 * _finite_scalar(B, "B") + 1.0
    return lam.imag > 0 and abs(joukowsky_z(lam)) < 1.0 / R


def weyl_resolvent(spec: JacobiSpec | None, lam, kind: str = "finite") -> complex:
    """m(lambda) = ((A - lambda)^{-1} e_1, e_1).

    finite: sum_k w_k / (lambda_k - lambda) from the block's spectral data;
    free: m_0(lambda) = -z, and spec may be None.
    """
    lam = complex(_as_lambda(lam, scalar=True))
    if kind == "free":
        return -joukowsky_z(lam)
    if kind != "finite":
        raise InvalidInputError(f"unknown kind {kind!r}")
    data = eig_spectral_data(spec)
    w = 1.0 / data.omegas
    gap = np.min(np.abs(data.eigenvalues - lam))
    scale = max(1.0, float(np.max(np.abs(data.eigenvalues))))
    if gap <= 1e-12 * scale:
        raise PoleError(f"lambda = {lam} is (numerically) an eigenvalue")
    return complex(np.sum(w / (data.eigenvalues - lam)))


def weyl_series(r, lam, tol: float = 1e-10, coeff_bound: float | None = None) -> WeylEvaluation:
    """m(lambda) = -sum_t z^{t+1} r_t with adaptive truncation.

    The extra factor of z against the flat power series is forced by the
    Chebyshev generating function: 1/(x - lambda) = -z / (1 - x z + z^2), so
    the sum reproduces the resolvent (the free system r = (1, 0, ...) then
    gives exactly m_0 = -z).  Terms are added until the geometric tail bound
    |z|^{t+2}/(1-|z|) * max_{s<=t} |r_s| falls under tol; the running max of
    the entries so far stands in for the unknown coefficient bound, so a run
    of zeros after r_0 does not end the sum.
    Raises when |z| >= 1 (no convergence) or when the data runs out first.
    The domain flag is only computed when the generating spec's coefficient
    bound is supplied.
    """
    rv = _as_response(r)
    lam = complex(_as_lambda(lam, scalar=True))
    tol = _tolerance(tol)
    z = joukowsky_z(lam)
    az = abs(z)
    if az >= 1.0:
        raise BCError(f"|z| = {az:.6f} >= 1: the series cannot converge at lambda = {lam}")
    flag = in_domain_D(lam, coeff_bound) if coeff_bound is not None else None
    seen = np.maximum(np.maximum.accumulate(np.abs(rv)), 1e-300)
    total = 0.0 + 0.0j
    zt = z
    for t in range(rv.size):
        total += zt * rv[t]
        zt *= z
        if abs(zt) / (1.0 - az) * seen[t] < tol:
            return WeylEvaluation(
                lam=lam, z=z, m_resolvent=None, m_series=-total,
                truncation=t + 1, in_domain_D=flag,
            )
    raise BCError(
        f"response of length {rv.size} is too short to reach tolerance {tol} at lambda = {lam}"
    )


def _refined_solve(A: np.ndarray, rhs: np.ndarray, name: str) -> np.ndarray:
    """Solve A x = rhs plus one step of iterative refinement, two LU solves.

    The refinement keeps the residual at rounding level for moderately
    ill-conditioned A.  A real A with a complex right-hand side is solved on
    the stacked [Re, Im] columns, so A is factored in real arithmetic.  An
    exactly singular A raises BCError naming the matrix.
    """
    split = not np.iscomplexobj(A) and np.iscomplexobj(rhs)
    B = np.column_stack([rhs.real, rhs.imag]) if split else rhs
    try:
        X = np.linalg.solve(A, B)
        X = X + np.linalg.solve(A, B - A @ X)
    except np.linalg.LinAlgError as exc:  # numpy's only word on a zero pivot
        raise BCError(f"{name} is singular") from exc
    return X[:, 0] + 1j * X[:, 1] if split else X


def debranges_kernel(C_T: np.ndarray, z, T: int) -> DeBrangesElement:
    """Reproducing-kernel coefficients: solve C_T j = (T_1(z),...,T_T(z))^*.

    One step of iterative refinement keeps the residual at rounding level, so
    the reproducing property holds to near machine precision even for
    moderately ill-conditioned C_T.  The kernel function is
    J_z(lambda) = sum_k T_k(lambda) j_k.
    """
    C_T = _as_finite(C_T, "C_T", real=False, ndim=2)
    if C_T.shape != (T, T):
        raise InvalidInputError("C_T must be T x T")
    rhs = np.conj(chebyshev_values(T, complex(_as_lambda(z, scalar=True)))[1:])
    return DeBrangesElement(coeffs=_refined_solve(C_T, rhs, "C_T"))


def debranges_kernel_hankel(S_T: np.ndarray, z, T: int) -> np.ndarray:
    """Monomial-basis kernel: solve S_T f = (1, z, ..., z^{T-1})^*.

    S_T is the classical Hankel matrix; the solution relates to the Chebyshev
    form by f = Lambda_T^t j, and J_z(lambda) = sum_k f_k lambda^k.
    """
    S_T = _as_finite(S_T, "S_T", real=False, ndim=2)
    if S_T.shape != (T, T):
        raise InvalidInputError("S_T must be T x T")
    zc = np.conj(complex(_as_lambda(z, scalar=True)))
    return _refined_solve(S_T, zc ** np.arange(T), "S_T")


def debranges_inner(C_T: np.ndarray, F: DeBrangesElement, G: DeBrangesElement):
    """[F, G] = (C_T f, g), conjugate-linear in the first slot.

    Equals the quadrature sum w_k conj(F(lambda_k)) G(lambda_k) against the
    associated spectral measure.
    """
    C_T = _as_finite(C_T, "C_T", real=False, ndim=2)
    _require_type(F, DeBrangesElement, "F")
    _require_type(G, DeBrangesElement, "G")
    if F.T != G.T or C_T.shape != (F.T, F.T):
        raise InvalidInputError("dimension mismatch")
    return np.vdot(C_T @ F.coeffs, G.coeffs)


def beta_sequences(r, N_max: int):
    """Extreme eigenvalues of the nested blocks C_N, N = 1..N_max.

    Returns (beta_min, beta_max); raw sequences for limit-point/limit-circle
    diagnostics (heuristic only; the theorems involve true limits).  O(N_max^4):
    one dense eigensolve per nested block, since the extreme eigenvalues of a
    block do not follow from those of the block before it.  The response must
    be real: a complex one gives complex-symmetric blocks, which are not
    Hermitian and whose eigenvalues need not be real.
    """
    evs = _leading_eigvalsh(reverse_order(connecting_from_response(_as_response(r, real=True), N_max)))
    return np.array([ev[0] for ev in evs]), np.array([ev[-1] for ev in evs])
