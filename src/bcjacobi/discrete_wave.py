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

from .core import JacobiSpec, _as_finite, _hankel, _require_size, _require_type
from .errors import InvalidInputError, NumericalFailureError, SpecTooShortError

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
        r = _as_finite(self.r, "response", real=self.mode == "real")
        object.__setattr__(self, "r", r if self.mode == "real" else np.asarray(r, dtype=complex))

    def __len__(self) -> int:
        return self.r.size


def delta_control(T: int) -> np.ndarray:
    """The unit impulse (1, 0, ..., 0) of length T; a complex block's stepper casts it."""
    _require_size("T", T)
    f = np.zeros(T)
    f[0] = 1.0
    return f


def _as_response(r, real: bool = False) -> np.ndarray:
    """A ResponseVector or raw entries as a finite 1-D float (or, unless `real`, complex) array."""
    return _as_finite(r.r if isinstance(r, ResponseVector) else r, "response", real)


def _step_field(
    spec: JacobiSpec, f: np.ndarray, T: int, n_active: int, order: int = 2, *, node1: bool = False
) -> np.ndarray:
    """Run the recurrence on nodes 1..n_active with a zero wall at n_active+1.

    Returns u of shape (n_active + 2, T + 1), the transposed view of a
    time-major array; row 0 carries the control (f_t for t < T = len(f), 0 at
    t = T).  With node1=True only three time rows are kept, rotating, and the
    result is node 1's samples (u_{1,1}, ..., u_{1,T}).  order=2 is the wave
    recurrence; order=1 drops the u_{t-1} term and gives the heat system
    v_{t+1} = A v_t, which is defined for real blocks only.  Each step writes
    its products into one scratch row.  Block and control are finite, so a
    non-finite field is an overflow; a non-finite entry stays non-finite at its
    node through the b_n u_n term, so the last row shows it, and the full field
    is stepped again only to name the first step.
    """
    if order == 1 and spec.mode != "real":
        raise InvalidInputError("heat stepping is defined for real blocks")
    f = np.atleast_1d(np.asarray(f))
    if f.size != T:
        raise InvalidInputError(f"control must have length T = {T}")
    dt = complex if (spec.mode == "complex" or np.iscomplexobj(f)) else float
    n = n_active
    aa = np.concatenate([[spec.a0], spec.a]).astype(dt)  # aa[n] = a_n
    a_r = np.zeros(n, dtype=dt)
    a_r[: aa.size - 1] = aa[1 : n + 1]
    a_l = aa[0:n]
    b_c = spec.b[0:n].astype(dt)
    scratch = np.empty(n, dtype=dt)
    node = np.empty(T, dtype=dt)

    def cut(row: np.ndarray) -> tuple:
        return row, row[:n], row[1 : n + 1], row[2:]  # the row and its u_{n-1}, u_n, u_{n+1}

    def run(u: np.ndarray) -> np.ndarray:
        # step t writes row t + 1 of u modulo its length, one contiguous time row; each
        # row's views are cut once, and with three rows the row for t + 2 is the row of
        # t - 1, so the ring only rotates its views
        ring = len(u) == 3
        prev, cur, nxt = cut(u[-1]), cut(u[0]), cut(u[1 % len(u)])
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(T):
                row, left, mid, right = cur
                new = nxt[2]
                row[0] = f[t]
                # ((a_r u_{n+1} + a_l u_{n-1}) + b_c u_n) - u_{n,t-1}, the rounding order of the recurrence
                np.multiply(a_r, right, out=new)
                np.multiply(a_l, left, out=scratch)
                new += scratch
                np.multiply(b_c, mid, out=scratch)
                new += scratch
                if order == 2 and t:
                    new -= prev[2]
                if node1:
                    node[t] = new[0]
                prev, cur, nxt = cur, nxt, prev if ring else cut(u[(t + 2) % len(u)])
        return cur[0]

    u = np.zeros((3 if node1 else T + 1, n + 2), dtype=dt)
    if not np.isfinite(run(u)).all():
        if node1:
            u = np.zeros((T + 1, n + 2), dtype=dt)
            run(u)
        t = int(np.argmin(np.all(np.isfinite(u), axis=1)))
        raise NumericalFailureError(f"the field overflows the float range at t = {t} of T = {T}")
    return node if node1 else u.T


def _semi_infinite_field(spec: JacobiSpec, f: np.ndarray, T: int, order: int = 2) -> np.ndarray:
    """The semi-infinite field through time T: `_step_field` on nodes 1..T with the
    wall at T + 1.  The front reaches node T at time T and a_T only ever multiplies
    the zero wall, so the wall is exact and a block of size T suffices."""
    _require_type(spec, JacobiSpec, "spec")
    _require_size("T", T, low=0)
    if spec.n < T:
        raise SpecTooShortError(f"a field through time {T} needs block size >= {T}, got {spec.n}")
    return _step_field(spec, f, T, T, order)


def _node1_response(spec: JacobiSpec, T: int, order: int = 2) -> np.ndarray:
    """Node 1's response (u_{1,1}, ..., u_{1,T}) to the unit impulse.

    Its entries only involve coefficients with index <= (T+1)//2, so a wall just
    beyond that depth is exact and a block of that size suffices.
    """
    _require_type(spec, JacobiSpec, "spec")
    _require_size("T", T)
    depth = (T + 1) // 2
    if spec.n < depth:
        raise SpecTooShortError(f"a response of length {T} needs block size >= {depth}, got {spec.n}")
    return _step_field(spec, delta_control(T), T, depth, order, node1=True)


def solve_semi_infinite(spec: JacobiSpec, f, T: int) -> WaveField:
    """Forward solve of the semi-infinite system through time T; len(f) = T.

    The lattice is truncated at n = T + 1 with a zero value there, which is
    exact for t <= T by finite speed; the block needs size >= T.
    """
    f = _as_finite(f, "control", real=False)
    return WaveField(u=_semi_infinite_field(spec, f, T), f=f)


def solve_finite_dirichlet(spec: JacobiSpec, f, T: int) -> WaveField:
    """Forward solve on nodes 1..N with a hard zero at n = N + 1."""
    _require_type(spec, JacobiSpec, "spec")
    _require_size("T", T, low=0)
    f = _as_finite(f, "control", real=False)
    return WaveField(u=_step_field(spec, f, T, spec.n), f=f)


def response_vector(spec: JacobiSpec, T: int, bc: str = "semi_infinite") -> ResponseVector:
    """Response vector r_{t-1} = u^delta_{1,t}, t = 1..T.

    For the semi-infinite system a block of size (T+1)//2 suffices (see
    `_node1_response`).  For the Dirichlet system the reflections off n = N + 1
    are part of the answer and the full block is used.
    """
    if bc == "semi_infinite":
        r = _node1_response(spec, T)
    elif bc == "dirichlet":
        if _require_type(spec, JacobiSpec, "spec").mode != "real":
            raise InvalidInputError("dirichlet responses are defined for real mode")
        r = solve_finite_dirichlet(spec, delta_control(T), T).u[1, 1:].copy()
    else:
        raise InvalidInputError(f"unknown boundary condition {bc!r}")
    return ResponseVector(r=r, mode=spec.mode)


def control_matrix(spec: JacobiSpec, T: int) -> np.ndarray:
    """Upper-triangular matrix of the control operator W^T.

    Column ordering follows the triangular representation: the matrix acts on
    the reversed control (f_{T-1}, ..., f_0), and W[i, j] = u^delta_{i+1, j+1}.
    The diagonal is prod_{k<n} a_k.  Assembled from one delta forward solve;
    the columns are time slices by time invariance.
    """
    return np.triu(_semi_infinite_field(spec, delta_control(T), T)[1 : T + 1, 1:])


def _require_horizon(r: np.ndarray, T: int) -> None:
    """Refuse a horizon T that is not a size or that r_0..r_{2T-2} cannot fill."""
    _require_size("T", T)
    if r.size < 2 * T - 1:
        raise InvalidInputError(f"need at least 2T-1 = {2 * T - 1} response entries")


def connecting_from_response(r, T: int) -> np.ndarray:
    """Connecting matrix C^T_{ij} = r_0 * sum_{k=0}^{T-max(i,j)} r_{|i-j|+2k}.

    Needs at least 2T - 1 response entries.  The prefactor is taken from
    r_0 = a_0 (it is 1 under the usual normalization).  The sums run
    sequentially, so C^N is bit for bit the trailing N x N block of C^T.
    """
    return _connecting(_as_response(r), T)


def _connecting(r: np.ndarray, T: int) -> np.ndarray:
    """`connecting_from_response` on entries already coerced, which may be non-finite."""
    _require_horizon(r, T)
    # J C J is the running sum down each diagonal of the Hankel matrix H[k, j] = r_{k+j}:
    # each row is the row above, shifted one column, plus its own Hankel row, and both
    # triangles run the same chains, so the result is symmetric without a mirror.  The sums
    # run sequentially (error ~ T eps), not pairwise like np.sum, which trades some accuracy
    # on long diagonals for O(T^2) work; it can shift the block at which a borderline
    # response is refused.
    R = _hankel(r, T, T).copy()
    for prev, row in zip(R[:-1, :-1], R[1:, 1:]):
        np.add(prev, row, out=row)
    return r[0] * R[::-1, ::-1]


def reverse_order(C: np.ndarray) -> np.ndarray:
    """Reverse both indices: C_T = J_T C^T J_T."""
    C = np.asarray(C)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise InvalidInputError("expected a square matrix")
    return C[::-1, ::-1].copy()
