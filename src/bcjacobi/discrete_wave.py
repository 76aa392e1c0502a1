"""Discrete-time wave systems driven from the boundary.

The lattice recurrence is

    u_{n,t+1} + u_{n,t-1} - a_n u_{n+1,t} - a_{n-1} u_{n-1,t} - b_n u_{n,t} = 0

with zero initial state and Dirichlet control u_{0,t} = f_t.  Finite
propagation speed (one node per step) makes exact lattice truncation
possible, which all solvers here exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import JacobiSpec, _require_size
from .errors import InvalidInputError, SpecTooShortError

__all__ = [
    "WaveField",
    "ResponseVector",
    "solve_semi_infinite",
    "solve_finite_dirichlet",
    "response_vector",
    "control_matrix",
    "connecting_from_response",
    "reverse_order",
    "delta_control",
]


@dataclass(frozen=True)
class WaveField:
    """Space-time field u[n][t] together with the control that generated it.

    Row 0 holds the control samples; the last row is the exact-by-finite-speed
    zero wall.
    """

    u: np.ndarray  # shape (n_rows, T+1)
    f: np.ndarray

    @property
    def T(self) -> int:
        return self.u.shape[1] - 1


@dataclass(frozen=True)
class ResponseVector:
    """Convolution kernel (r_0, ..., r_{T-1}) of the boundary response operator."""

    r: np.ndarray
    mode: str = "real"

    def __post_init__(self):
        if self.mode not in ("real", "complex"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        dt = float if self.mode == "real" else complex
        object.__setattr__(self, "r", np.atleast_1d(np.asarray(self.r, dtype=dt)))
        if not np.all(np.isfinite(self.r)):
            raise InvalidInputError("response entries must be finite")

    def __len__(self) -> int:
        return self.r.size


def delta_control(T: int, dtype=float) -> np.ndarray:
    _require_size("T", T)
    f = np.zeros(T, dtype=dtype)
    f[0] = 1.0
    return f


def _as_response(r) -> np.ndarray:
    return r.r if isinstance(r, ResponseVector) else np.atleast_1d(np.asarray(r))


def _step_field(
    spec: JacobiSpec, f: np.ndarray, T: int, n_active: int, order: int = 2
) -> np.ndarray:
    """Run the recurrence on nodes 1..n_active with a zero wall at n_active+1.

    Returns u of shape (n_active + 2, T + 1); row 0 carries the control
    (f_t for t < T = len(f), 0 at t = T).  order=2 is the wave recurrence;
    order=1 drops the u_{t-1} term and gives the heat system
    v_{t+1} = A v_t, which is defined for real blocks only.
    """
    if order == 1 and spec.mode != "real":
        raise InvalidInputError("heat stepping is defined for real blocks")
    f = np.atleast_1d(np.asarray(f))
    if f.size != T:
        raise InvalidInputError(f"control must have length T = {T}")
    dt = complex if (spec.mode == "complex" or np.iscomplexobj(f)) else float
    u = np.zeros((n_active + 2, T + 1), dtype=dt)
    u[0, :T] = f
    aa = np.concatenate([[spec.a0], spec.a]).astype(dt)  # aa[n] = a_n
    b = spec.b
    a_r = np.array([aa[n] if n < aa.size else 0.0 for n in range(1, n_active + 1)], dtype=dt)
    a_l = aa[0:n_active].astype(dt)
    b_c = b[0:n_active].astype(dt)
    for t in range(T):
        prev = u[1 : n_active + 1, t - 1] if order == 2 and t >= 1 else 0.0
        u[1 : n_active + 1, t + 1] = (
            a_r * u[2 : n_active + 2, t]
            + a_l * u[0:n_active, t]
            + b_c * u[1 : n_active + 1, t]
            - prev
        )
    return u


def solve_semi_infinite(spec: JacobiSpec, f, T: int) -> WaveField:
    """Forward solve of the semi-infinite system through time T.

    The lattice is truncated at n = T + 1 with a zero value there, which is
    exact for t <= T by finite speed.  Requires block size >= T + 1 and
    len(f) = T.
    """
    f = np.atleast_1d(np.asarray(f))
    if spec.n < T + 1:
        raise SpecTooShortError(f"block size {spec.n} < T + 1 = {T + 1}")
    u = _step_field(spec, f, T, T)
    return WaveField(u=u, f=f)


def solve_finite_dirichlet(spec: JacobiSpec, f, T: int) -> WaveField:
    """Forward solve on nodes 1..N with a hard zero at n = N + 1."""
    f = np.atleast_1d(np.asarray(f))
    u = _step_field(spec, f, T, spec.n)
    return WaveField(u=u, f=f)


def response_vector(spec: JacobiSpec, T: int, bc: str = "semi_infinite") -> ResponseVector:
    """Response vector r_{t-1} = u^delta_{1,t}, t = 1..T.

    For the semi-infinite system, r_0..r_{T-1} only involve coefficients with
    index <= (T+1)//2, so a wall placed just beyond that depth is exact; the
    block must be at least that long.  For the Dirichlet system the reflections
    off n = N + 1 are part of the answer and the full block is used.
    """
    if T < 1:
        raise InvalidInputError(f"need T >= 1, got {T}")
    if bc == "semi_infinite":
        depth = (T + 1) // 2
        if spec.n < depth:
            raise SpecTooShortError(
                f"semi-infinite response of length {T} needs block size >= {depth}"
            )
        u = _step_field(spec, delta_control(T), T, depth)
    elif bc == "dirichlet":
        if spec.mode != "real":
            raise InvalidInputError("dirichlet responses are defined for real mode")
        u = _step_field(spec, delta_control(T), T, spec.n)
    else:
        raise InvalidInputError(f"unknown boundary condition {bc!r}")
    return ResponseVector(r=u[1, 1 : T + 1], mode=spec.mode)


def control_matrix(spec: JacobiSpec, T: int) -> np.ndarray:
    """Upper-triangular matrix of the control operator W^T.

    Column ordering follows the triangular representation: the matrix acts on
    the reversed control (f_{T-1}, ..., f_0), and W[i, j] = u^delta_{i+1, j+1}.
    The diagonal is prod_{k<n} a_k.  Assembled from one delta forward solve;
    the columns are time slices by time invariance.
    """
    if spec.n < T:
        raise SpecTooShortError(f"control matrix at horizon {T} needs block size >= {T}")
    u = _step_field(spec, delta_control(T), T, T)
    W = np.triu(u[1 : T + 1, 1 : T + 1])
    return W


def _require_horizon(r: np.ndarray, T: int) -> None:
    """Refuse a horizon T that r_0..r_{2T-2} cannot fill."""
    if T < 1 or r.size < 2 * T - 1:
        raise InvalidInputError(f"need T >= 1 and at least 2T-1 = {2 * T - 1} response entries")


def connecting_from_response(r, T: int) -> np.ndarray:
    """Connecting matrix C^T_{ij} = r_0 * sum_{k=0}^{T-max(i,j)} r_{|i-j|+2k}.

    Needs at least 2T - 1 response entries.  The prefactor is taken from
    r_0 = a_0 (it is 1 under the usual normalization).
    """
    r = _as_response(r)
    _require_horizon(r, T)
    # diagonal i - j = m holds the running sums of r_m, r_{m+2}, ..., r_{2T-2-m},
    # longest first; cumulative sums avoid the cancellation of prefix-sum differences.
    # The sums run sequentially (error ~ T eps), not pairwise like np.sum, which
    # trades some accuracy on long diagonals for O(T^2) work; it can shift the
    # block at which a borderline response is refused.
    C = np.empty((T, T), dtype=r.dtype)
    for m in range(T):
        idx = np.arange(T - m)
        C[idx + m, idx] = C[idx, idx + m] = np.cumsum(r[m : 2 * T - 1 - m : 2])[::-1]
    return r[0] * C


def reverse_order(C: np.ndarray) -> np.ndarray:
    """Reverse both indices: C_T = J_T C^T J_T."""
    C = np.asarray(C)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise InvalidInputError("expected a square matrix")
    return C[::-1, ::-1].copy()
