"""Discrete parabolic system: first order in time, driven from the boundary.

    v_{n,t+1} = a_n v_{n+1,t} + a_{n-1} v_{n-1,t} + b_n v_{n,t},
    v_{0,t} = f_t,  v_{n,0} = 0.

One application of the matrix per step makes the delta response the moment
sequence of the block's spectral measure (a_0 = 1 here, as in the source
system), so inversion routes through the moment machinery.  Stepping is
defined for real blocks and real controls only; a complex block or control
raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import JacobiSpec, _as_finite, _require_size
from .discrete_wave import _as_response, _field, delta_control
from .errors import InvalidInputError
from .moments import _reversed_hankel, truncated_moment_naive

__all__ = [
    "HeatField",
    "solve_heat",
    "heat_response",
    "heat_control_matrix",
    "heat_connecting",
    "invert_heat",
]


@dataclass(frozen=True)
class HeatField:
    """Space-time field v[n][t] with its control; finite-speed support v[n][t] = 0 for t < n."""

    v: np.ndarray
    f: np.ndarray


def solve_heat(spec: JacobiSpec, f, T: int) -> HeatField:
    """Explicit stepping through time T on nodes 1..T (finite speed makes
    the zero wall at n = T + 1 exact, and a block of size >= T suffices)."""
    f = np.atleast_1d(np.asarray(f))
    if np.iscomplexobj(f):
        raise InvalidInputError("the heat system takes a real control")
    f = _as_finite(f, "control")
    return HeatField(v=_field(spec, f, T, order=1), f=f)


def heat_response(spec: JacobiSpec, T: int) -> np.ndarray:
    """Moment-like response s_{t-1} = v^delta_{1,t}, t = 1..T.

    Closed paths of length t - 1 from node 1 reach depth 1 + (t-1)/2, so a
    block of size (T+1)//2 suffices; for a_0 = 1 the entries are the power
    moments of the block's spectral measure.
    """
    return _field(spec, delta_control(T), T, order=1, node1=True)


def heat_control_matrix(spec: JacobiSpec, T: int) -> np.ndarray:
    """Matrix of V^T f = v^f_{., T} acting on (f_0, ..., f_{T-1}).

    By time invariance V[n, s] = v^delta_{n, T-s}; used for the Gram identity
    S^T = (V^T)^* V^T.
    """
    return _field(spec, delta_control(T), T, order=1)[1 : T + 1, T:0:-1]


def heat_connecting(s, T: int) -> np.ndarray:
    """Hankel connecting matrix S^T_{ij} = s_{2T-(i+j)}; needs 2T-1 entries.

    Positive definite exactly when the data is realizable.
    """
    _require_size("T", T)
    return _reversed_hankel(_as_response(s), T)


def invert_heat(s, N: int) -> JacobiSpec:
    """Recover the block from the moment-like response via the moment pipeline."""
    spec, _ = truncated_moment_naive(s, N)
    return spec
