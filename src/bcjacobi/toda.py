"""Finite Toda lattice by isospectral flow of the spectral measure.

Eigenvalues are constant along the flow; the weights evolve by the Moser
formula w_k(t) = w_k(0) e^{2 lambda_k t} / sum_j w_j(0) e^{2 lambda_j t}.
Coefficients at time t are the Jacobi block of the evolved measure, rebuilt
from its atoms by plane rotations.  The exact QR flow of the block, which
uses no spectral data, serves as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    JacobiSpec, SpectralMeasure, _finite_scalar, _require_type, _tridiagonal, moments_of_measure, spectral_measure,
)
from .errors import InvalidInputError, NumericalFailureError

__all__ = [
    "TodaState",
    "moser_evolve",
    "toda_moments",
    "recursion_residual",
    "toda_solve",
    "toda_qr_flow",
]


@dataclass(frozen=True)
class TodaState:
    """Lattice coefficients and spectral measure at one flow time."""

    spec: JacobiSpec
    measure: SpectralMeasure
    t: float


def _log_weights(mu0: SpectralMeasure, t: float):
    lam = mu0.lambdas
    ell = np.log(mu0.weights) + 2.0 * lam * t
    m = np.max(ell)
    return lam, ell - m, m


def moser_evolve(mu0: SpectralMeasure, t: float) -> SpectralMeasure:
    """Weights at time t, computed in log space with max-exponent subtraction.

    The raw quotient overflows once |lambda| t exceeds a few hundred; the
    shifted form is exact up to rounding.  A weight that underflows to zero is
    reported as a conditioning failure rather than silently dropped.
    """
    _require_type(mu0, SpectralMeasure, "mu0")
    lam, shifted, _ = _log_weights(mu0, _finite_scalar(t, "t"))
    w = np.exp(shifted)
    w /= np.sum(w)
    if np.any(w == 0.0):
        raise NumericalFailureError(
            "a Moser weight underflowed to zero; the flow is numerically degenerate here"
        )
    return SpectralMeasure(tuple(zip(lam, w)))


def toda_moments(mu0: SpectralMeasure, t: float, K: int) -> np.ndarray:
    """Moments s_0(t)..s_K(t) of the evolved measure; s_0(t) = 1 always."""
    return moments_of_measure(moser_evolve(mu0, _finite_scalar(t, "t")), K)


def recursion_residual(mu0: SpectralMeasure, t: float, K: int, h: float) -> float:
    """Max_k | ds_k/dt + (ln ||Theta||^2)' s_k - 2 s_{k+1} | by central differences.

    ||Theta(t)||^2 = sum_j w_j(0) e^{2 lambda_j t}; its log-derivative is
    evaluated from shifted log-sums so the check stays finite at large |t|.
    The residual vanishes analytically and decays O(h^2) in the step.
    """
    t, h = _finite_scalar(t, "t"), _finite_scalar(h, "h")
    if h <= 0:
        raise InvalidInputError("h must be positive")

    def log_theta_sq(tt: float) -> float:
        lam, shifted, m = _log_weights(mu0, tt)
        return m + np.log(np.sum(np.exp(shifted)))

    s_plus = toda_moments(mu0, t + h, K)
    s_minus = toda_moments(mu0, t - h, K)
    s_mid = toda_moments(mu0, t, K + 1)
    ds = (s_plus - s_minus) / (2.0 * h)
    dlog = (log_theta_sq(t + h) - log_theta_sq(t - h)) / (2.0 * h)
    res = ds + dlog * s_mid[: K + 1] - 2.0 * s_mid[1 : K + 2]
    return float(np.max(np.abs(res)))


def _jacobi_from_atoms(lam: np.ndarray, w: np.ndarray):
    """(a, b) of the Jacobi block whose spectral measure is sum_k w_k delta_{lam_k}.

    The RKPW algorithm of Gragg & Harrod (Numer. Math. 44, 1984), as in the
    `lanczos` routine of Gautschi's OPQ: the atoms enter one at a time, and
    each is chased down the block built so far by plane rotations that keep
    it tridiagonal.  O(N^2) in all, and backward stable, unlike the Hankel
    route through the power moments.
    """
    b = lam.tolist()  # entry m holds lam_m until atom m enters
    beta = [0.0] * len(b)  # beta[0] = mass so far, beta[k] = a_k^2
    beta[0] = float(w[0])
    for m in range(1, len(b)):
        x, pn = b[m], float(w[m])
        gam, sig, t = 1.0, 0.0, 0.0
        for k in range(m + 1):
            rho = beta[k] + pn
            tmp, tsig = gam * rho, sig
            gam, sig = (beta[k] / rho, pn / rho) if rho > 0 else (1.0, 0.0)
            tk = sig * (b[k] - x) - gam * t
            b[k] -= tk - t
            t = tk
            # OPQ has t^2 / sig; t^2 underflows at large |t| where pn does not
            pn = t * (t / sig) if sig > 0 else tsig * beta[k]
            beta[k] = tmp
    return np.sqrt(beta[1:]), np.array(b)


def toda_solve(spec0: JacobiSpec, t: float) -> TodaState:
    """Lattice coefficients at time t: the Jacobi block of the evolved measure.

    measure(t) by Moser, then the block rebuilt from its atoms by
    `_jacobi_from_atoms`; a0 is carried over from spec0.  The one refusal is
    `moser_evolve`'s, when a weight underflows at large |t|.
    """
    t = _finite_scalar(t, "t")
    mu_t = moser_evolve(spectral_measure(spec0), t)
    a, b = _jacobi_from_atoms(mu_t.lambdas, mu_t.weights)
    return TodaState(spec=JacobiSpec(a0=spec0.a0, a=a, b=b), measure=mu_t, t=t)


def _expm(X: np.ndarray) -> np.ndarray:
    """e^X for ||X||_inf <= 2: the degree-18 Taylor polynomial of X/4 by
    Horner's rule, squared twice (scaling and squaring; Higham, SIAM J.
    Matrix Anal. Appl. 26, 2005).  With ||X/4|| <= 1/2 the dropped tail is
    under 1.1 * 2^-19 / 19! < 2e-23, far below the rounding of the products."""
    Y, eye = X / 4.0, np.eye(X.shape[0])
    E = eye
    for j in range(18, 0, -1):
        E = eye + (Y @ E) / j
    E = E @ E
    return E @ E


def toda_qr_flow(spec0: JacobiSpec, t: float) -> JacobiSpec:
    """Lattice coefficients at time t by the Kostant-Symes QR flow.

    L(t) = Q^T L0 Q, where e^{t L0} = QR and R has a positive diagonal
    (W. W. Symes, Physica D 4, 1982).  One QR of a badly conditioned
    exponential loses the small directions, so the flow takes
    k = max(1, ceil(|t| w / 4)) steps of h = t/k, w the Gershgorin width of
    the block: each step is `_expm`(h (L - cI)) (no eigensolver), its QR
    with the columns of Q flipped to make diag R positive, and L <- Q^T L Q
    cut back to its symmetric tridiagonal part.  c is the midpoint of the
    Gershgorin interval: the shift scales R by e^{-hc} > 0 and leaves Q as it
    is, but keeps ||h (L - cI)||_inf <= 2, so a spectrum far from 0
    neither overflows nor underflows.  It touches no spectral data, so it is
    independent of the Moser and RKPW route of `toda_solve`.  a0 is carried
    over.  A complex block is refused.
    """
    if _require_type(spec0, JacobiSpec, "spec0").mode != "real":
        raise InvalidInputError("the Toda lattice oracle takes real blocks")
    t = _finite_scalar(t, "t")
    a, b = spec0.a, spec0.b
    radius = np.append(a, 0.0) + np.append(0.0, a)
    hi, lo = np.max(b + radius), np.min(b - radius)
    k = max(1, math.ceil(abs(t) * (hi - lo) / 4.0))
    shift = 0.5 * (hi + lo) * np.eye(b.size)
    for _ in range(k):
        L = _tridiagonal(a, b)
        q, r = np.linalg.qr(_expm((t / k) * (L - shift)))
        q *= np.sign(np.diag(r))
        L = q.T @ L @ q
        a, b = 0.5 * (np.diag(L, 1) + np.diag(L, -1)), np.diag(L)
    return JacobiSpec(a0=spec0.a0, a=a, b=b)
