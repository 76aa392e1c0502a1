"""Finite Toda lattice by isospectral flow of the spectral measure.

Eigenvalues are constant along the flow; the weights evolve by the Moser
formula w_k(t) = w_k(0) e^{2 lambda_k t} / sum_j w_j(0) e^{2 lambda_j t}.
Coefficients at time t are the Jacobi block of the evolved measure, rebuilt
from its atoms by plane rotations.  A fixed-step RK4 integrator of the
lattice ODEs serves as an independent oracle.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import JacobiSpec, SpectralMeasure, moments_of_measure, spectral_measure
from .errors import InvalidInputError, NumericalFailureError

__all__ = [
    "TodaState",
    "moser_evolve",
    "toda_moments",
    "recursion_residual",
    "toda_solve",
    "toda_ode_oracle",
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
    lam, shifted, _ = _log_weights(mu0, t)
    w = np.exp(shifted)
    w /= np.sum(w)
    if np.any(w == 0.0):
        raise NumericalFailureError(
            "a Moser weight underflowed to zero; the flow is numerically degenerate here"
        )
    return SpectralMeasure(tuple(zip(lam, w)))


def toda_moments(mu0: SpectralMeasure, t: float, K: int) -> np.ndarray:
    """Moments s_0(t)..s_K(t) of the evolved measure; s_0(t) = 1 always."""
    return moments_of_measure(moser_evolve(mu0, t), K)


def recursion_residual(mu0: SpectralMeasure, t: float, K: int, h: float) -> float:
    """Max_k | ds_k/dt + (ln ||Theta||^2)' s_k - 2 s_{k+1} | by central differences.

    ||Theta(t)||^2 = sum_j w_j(0) e^{2 lambda_j t}; its log-derivative is
    evaluated from shifted log-sums so the check stays finite at large |t|.
    The residual vanishes analytically and decays O(h^2) in the step.
    """
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
    mu_t = moser_evolve(spectral_measure(spec0), t)
    a, b = _jacobi_from_atoms(mu_t.lambdas, mu_t.weights)
    return TodaState(spec=JacobiSpec(a0=spec0.a0, a=a, b=b), measure=mu_t, t=float(t))


def _toda_rhs(y: np.ndarray, n: int) -> np.ndarray:
    """Lattice ODE right-hand sides with the a_{N,0} = a_{N,N} = 0 convention.

    y holds one state per row: a_1..a_{n-1}, then b_1..b_n.
    """
    a, b = y[:, : n - 1], y[:, n - 1 :]
    sq = np.zeros((y.shape[0], n + 1))
    np.square(a, out=sq[:, 1:-1])  # sq[:, k] = a_k^2, boundary zeros
    dy = np.empty_like(y)
    np.multiply(a, b[:, 1:] - b[:, :-1], out=dy[:, : n - 1])
    np.multiply(2.0, sq[:, 1:] - sq[:, :-1], out=dy[:, n - 1 :])
    return dy


def toda_ode_oracle(
    spec0: JacobiSpec | Sequence[JacobiSpec], t: float | Sequence[float], dt: float
) -> JacobiSpec | list:
    """Classical fixed-step RK4 on the 2N-1 coupled lattice equations.

    t is one time or a sequence of times; a sequence returns one JacobiSpec
    per time, in input order, from a single integration.  Time t_i takes
    n_i = max(1, round(|t_i| / dt)) steps of h_i = t_i / n_i, one state row
    per time.  The rows are sorted by step count, so the rows still stepping
    are always a leading slice, and each row is bit-identical to integrating
    its time alone.

    spec0 is one real block or a sequence of them.  A sequence returns one
    entry per block, shaped as a single-block call with the same t gives it,
    from one integration of the direct sum: the a vectors end to end with a
    coupling of 0 at each seam, the b vectors concatenated.  A seam coupling
    stays exactly 0, since its derivative is a_k (b_{k+1} - b_k), and its
    neighbours see a^2 = 0 there, the boundary zero of a lone block; RK4
    works entry by entry, so each block is bit-identical to integrating it
    alone.  A complex block is refused before any step.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise InvalidInputError("dt must be positive and finite")
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(times)):
        raise InvalidInputError("times must be finite")
    one_block = isinstance(spec0, JacobiSpec)
    blocks = [spec0] if one_block else list(spec0)
    for blk in blocks:
        if not isinstance(blk, JacobiSpec):
            raise InvalidInputError("spec0 must be a JacobiSpec or a sequence of them")
        if blk.mode != "real":
            raise InvalidInputError("the Toda lattice oracle takes real blocks")
    if not blocks:
        return []
    n_steps = np.array([max(1, round(abs(ti) / dt)) for ti in times.tolist()], dtype=np.int64)
    order = np.argsort(-n_steps, kind="stable")
    n_sorted = n_steps[order]
    h = (times[order] / n_sorted)[:, None]
    n = sum(blk.n for blk in blocks)
    a = np.concatenate([np.append(blk.a, 0.0) for blk in blocks])[:-1]
    y = np.tile(np.concatenate([a] + [blk.b for blk in blocks]), (times.size, 1))
    done = 0
    for active in range(times.size, 0, -1):
        # rows [:active] all have at least n_sorted[active - 1] steps
        yy, hh = y[:active], h[:active]
        half, sixth = 0.5 * hh, hh / 6.0
        for _ in range(n_sorted[active - 1] - done):
            k1 = _toda_rhs(yy, n)
            k2 = _toda_rhs(yy + half * k1, n)
            k3 = _toda_rhs(yy + half * k2, n)
            k4 = _toda_rhs(yy + hh * k3, n)
            yy += sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        done = n_sorted[active - 1]
    out, start = [], 0
    for blk in blocks:
        a_blk = y[:, start : start + blk.n - 1]
        b_blk = y[:, n - 1 + start : n - 1 + start + blk.n]
        specs = [None] * times.size
        for row, i in enumerate(order):
            specs[i] = JacobiSpec(a0=blk.a0, a=a_blk[row], b=b_blk[row])
        out.append(specs if np.ndim(t) else specs[0])
        start += blk.n
    return out[0] if one_block else out
