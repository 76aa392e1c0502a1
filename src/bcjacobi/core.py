"""Jacobi coefficient data and spectral primitives.

A coefficient block is the data (a0, a_1..a_{N-1}, b_1..b_N) of an N x N
Jacobi matrix together with the boundary parameter a0.  Everything here is
immutable; all functions are pure.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import BCError, InvalidInputError, NumericalFailureError

__all__ = [
    "JacobiSpec",
    "SpectralMeasure",
    "SpectralData",
    "chebyshev_u",
    "chebyshev_values",
    "phi_eval",
    "eig_spectral_data",
    "spectral_measure",
    "moments_of_measure",
    "free_spec",
    "random_spec",
    "alpha_star_partials",
]

# Largest float64 array numpy can index: a block size past it ends in numpy's
# own ValueError ("Maximum allowed dimension exceeded", "array is too big").
_MAX_BLOCK = np.iinfo(np.intp).max // np.dtype(float).itemsize


def _json_int(x) -> bool:
    """A JSON integer: an int, never a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _json_number(x) -> bool:
    """A finite JSON number, never a bool (the bound is exact for Python ints, and NaN fails it)."""
    return (_json_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def _json_pair(x) -> bool:
    """A [re, im] or [lambda, weight] pair of finite JSON numbers."""
    return isinstance(x, (list, tuple)) and len(x) == 2 and all(map(_json_number, x))


@dataclass(frozen=True)
class JacobiSpec:
    """Coefficient block (a0, a, b) of a Jacobi matrix.

    Real mode requires a0 > 0 and a_k > 0 with real b_k; complex mode only
    requires a0 != 0 and a_k != 0.  len(b) = len(a) + 1 = N is the block size.
    """

    a0: complex
    a: np.ndarray
    b: np.ndarray
    mode: str = "real"

    def __post_init__(self):
        if self.mode not in ("real", "complex"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        for name in ("a", "b"):
            x = getattr(self, name)
            if self.mode == "real":
                x = _as_finite(x, "coefficients")
            else:
                x = np.atleast_1d(np.asarray(x, dtype=complex))
            object.__setattr__(self, name, x)
        if self.b.size == 0:
            raise InvalidInputError("degenerate N=0 block")
        if self.b.size != self.a.size + 1 and not (self.b.size == 1 and self.a.size == 0):
            raise InvalidInputError("need len(b) = len(a) + 1")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise InvalidInputError("coefficients must be finite")
        if self.mode == "real":
            object.__setattr__(self, "a0", _finite_scalar(self.a0, "a0"))
            if self.a0 <= 0 or np.any(self.a <= 0):
                raise InvalidInputError("real mode requires a0 > 0 and a_k > 0")
        else:
            object.__setattr__(self, "a0", complex(self.a0))
            if self.a0 == 0 or np.any(self.a == 0):
                raise InvalidInputError("complex mode requires nonzero a0 and a_k")

    @property
    def n(self) -> int:
        return self.b.size

    def matrix(self) -> np.ndarray:
        """Dense N x N tridiagonal matrix A^N."""
        A = np.diag(self.b)
        if self.a.size:
            A += np.diag(self.a, 1) + np.diag(self.a, -1)
        return A

    def to_json(self) -> dict:
        def enc(x):
            return [x.real, x.imag] if self.mode == "complex" else float(x.real)

        return {
            "a0": enc(self.a0),
            "a": [enc(x) for x in self.a],
            "b": [enc(x) for x in self.b],
            "mode": self.mode,
        }

    @staticmethod
    def from_json(obj: dict) -> "JacobiSpec":
        def dec(x):
            if _json_pair(x):
                return complex(x[0], x[1])
            if _json_number(x):
                return x
            raise InvalidInputError(f"malformed spec JSON: {x!r} is not a number or an [re, im] pair")

        try:
            return JacobiSpec(
                a0=dec(obj["a0"]),
                a=[dec(x) for x in obj.get("a", [])],
                b=[dec(x) for x in obj["b"]],
                mode=obj.get("mode", "real"),
            )
        except InvalidInputError:
            raise
        except (LookupError, TypeError, ValueError) as exc:  # a missing key, a non-list, a pair in real mode
            raise InvalidInputError(f"malformed spec JSON: {type(exc).__name__} {exc}") from None


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite atomic measure {(lambda_k, w_k)} with strictly increasing atoms."""

    atoms: tuple  # of (lambda, weight) pairs

    def __post_init__(self):
        atoms = tuple((float(l), float(w)) for l, w in self.atoms)
        lam = np.array([l for l, _ in atoms])
        w = np.array([w for _, w in atoms])
        if lam.size == 0:
            raise InvalidInputError("empty measure")
        if np.any(np.diff(lam) <= 0):
            raise InvalidInputError("eigenvalues must be strictly increasing")
        if np.any(w <= 0):
            raise InvalidInputError("weights must be positive")
        object.__setattr__(self, "atoms", atoms)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([l for l, _ in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    def to_json(self) -> dict:
        return {"atoms": [[l, w] for l, w in self.atoms]}

    @staticmethod
    def from_json(obj: dict) -> "SpectralMeasure":
        atoms = obj.get("atoms") if isinstance(obj, dict) else None
        if not (isinstance(atoms, list) and all(map(_json_pair, atoms))):
            raise InvalidInputError("malformed measure JSON: need {'atoms': [[lambda, weight], ...]}")
        return SpectralMeasure(tuple((l, w) for l, w in atoms))


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues, non-normalized eigenvectors (first component 1) and norms.

    phi_vectors[:, k] is the k-th eigenvector; omegas[k] = ||phi^k||^2.
    """

    eigenvalues: np.ndarray
    phi_vectors: np.ndarray
    omegas: np.ndarray


def chebyshev_u(t: int, lam) -> complex:
    """T_t(lambda) from T_{t+1} + T_{t-1} = lambda T_t, T_0 = 0, T_1 = 1.

    These are Chebyshev polynomials of the second kind in lambda/2:
    T_t(lambda) = U_{t-1}(lambda/2).
    """
    if t < 0:
        raise InvalidInputError("t must be nonnegative")
    return chebyshev_values(t, lam)[t]


def chebyshev_values(t_max: int, lam) -> np.ndarray:
    """Array [T_0(lam), ..., T_{t_max}(lam)] by forward recurrence.

    lam may be a scalar or an ndarray; the leading axis of the result indexes t.
    """
    lam = np.asarray(lam)
    out = np.zeros((t_max + 1,) + lam.shape, dtype=np.result_type(lam.dtype, float))
    if t_max >= 1:
        out[1] = 1.0
    for t in range(1, t_max):
        out[t + 1] = lam * out[t] - out[t - 1]
    return out


def phi_eval(spec: JacobiSpec, lam, n_max: int) -> np.ndarray:
    """First-kind solution phi_1..phi_{n_max} of the three-term recurrence.

    phi_0 = 0, phi_1 = 1, a_n phi_{n+1} = (lambda - b_n) phi_n - a_{n-1} phi_{n-1}.
    phi_n is a polynomial in lambda of degree n - 1.  For n_max = N + 1 the
    trailing coefficient a_N is taken as 1; the roots of phi_{N+1} are
    unaffected by that scaling.
    """
    if not 1 <= n_max <= spec.n + 1:
        raise InvalidInputError(f"n_max must be in 1..N+1 = {spec.n + 1}")
    dt = complex if (spec.mode == "complex" or np.iscomplexobj(np.asarray(lam))) else float
    phi = np.zeros(n_max + 1, dtype=dt)
    phi[1] = 1.0
    a = spec.a
    for k in range(1, n_max):
        ak = a[k - 1] if k - 1 < a.size else 1.0
        akm1 = a[k - 2] if k >= 2 else spec.a0  # a_0 multiplies phi_0 = 0
        phi[k + 1] = ((lam - spec.b[k - 1]) * phi[k] - akm1 * phi[k - 1]) / ak
    return phi[1:]


def eig_spectral_data(spec: JacobiSpec) -> SpectralData:
    """Eigen decomposition of the real N x N block, in phi-normalization.

    Eigenvalues ascending; eigenvectors rescaled so the first component is
    exactly 1 (then phi^k = phi(lambda_k)); omega_k = sum_n (phi^k_n)^2.
    """
    if spec.mode != "real":
        raise BCError("eigen machinery is restricted to the self-adjoint (real) case")
    if spec.n == 1:
        lam = np.array([spec.b[0]])
        return SpectralData(lam, np.ones((1, 1)), np.ones(1))
    lam, vecs = eigh_tridiagonal(spec.b, spec.a)
    first = vecs[0, :]
    # In exact arithmetic phi^k_1 = 1 != 0; a vanishing first component is a
    # numerical failure, not a valid state.
    if np.any(np.abs(first) < 1e-13 * np.max(np.abs(vecs), axis=0)):
        raise NumericalFailureError("eigenvector first component vanished")
    phi = vecs / first
    omegas = np.sum(phi**2, axis=0)
    return SpectralData(lam, phi, omegas)


def spectral_measure(spec: JacobiSpec) -> SpectralMeasure:
    """Spectral measure of the block: atoms (lambda_k, 1/omega_k), total mass 1."""
    data = eig_spectral_data(spec)
    return SpectralMeasure(tuple(zip(data.eigenvalues, 1.0 / data.omegas)))


def moments_of_measure(mu: SpectralMeasure, K: int) -> np.ndarray:
    """Power moments s_k = sum_j w_j lambda_j^k for k = 0..K.

    Accumulated in extended precision: the inverse use of moments is
    ill-conditioned enough that the last float64 digits of s_k matter.
    """
    if K < 0:
        raise InvalidInputError("K must be >= 0")
    lam = mu.lambdas.astype(np.longdouble)
    w = mu.weights.astype(np.longdouble)
    powers = np.ones_like(lam)
    out = np.empty(K + 1)
    for k in range(K + 1):
        out[k] = float(np.sum(w * powers))
        powers = powers * lam
    return out


def _as_finite(x, what: str) -> np.ndarray:
    """Real data as a 1-D float array; a complex dtype or a non-finite entry is refused."""
    x = np.atleast_1d(np.asarray(x))
    if np.iscomplexobj(x):
        raise InvalidInputError(f"{what} must be real, got dtype {x.dtype}")
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError):  # strings, None and other non-numbers
        raise InvalidInputError(f"{what} must be real numbers") from None
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{what} must be finite")
    return x


def _finite_scalar(x, what: str) -> float:
    """A real finite number as a float; an array, a complex or a non-finite value is refused."""
    if np.ndim(x) != 0:
        raise InvalidInputError(f"{what} must be a single number")
    return float(_as_finite(x, what)[0])


def _require_size(what: str, n: int, low: int = 1) -> None:
    """Refuse a non-integer (or bool) size, one below `low` or past what numpy can index."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not low <= n <= _MAX_BLOCK:
        raise InvalidInputError(f"{what} must be an integer in {low}..{_MAX_BLOCK}, got {n!r}")


def free_spec(n: int, a0: float = 1.0) -> JacobiSpec:
    """Free block: a_k = 1, b_k = 0."""
    _require_size("block size", n)
    return JacobiSpec(a0=a0, a=np.ones(max(n - 1, 0)), b=np.zeros(n))


def random_spec(
    n: int,
    rng: np.random.Generator,
    a_range=(0.5, 2.0),
    b_range=(-1.0, 1.0),
    a0: float = 1.0,
) -> JacobiSpec:
    """Random real block with a_k in a_range and b_k in b_range."""
    _require_size("block size", n)
    return JacobiSpec(
        a0=a0,
        a=rng.uniform(*a_range, size=max(n - 1, 0)),
        b=rng.uniform(*b_range, size=n),
    )


def alpha_star_partials(spec: JacobiSpec, n_max: int | None = None) -> np.ndarray:
    """Diagnostic sequence -q_n(0)/p_n(0) of the boundary-parameter limit.

    Only finite partial quotients are computable from a finite block; the
    returned values are raw diagnostics, never a certified limit.  Entries
    where p_n(0) vanishes are NaN.
    """
    if spec.mode != "real":
        raise BCError("diagnostic defined for the self-adjoint case")
    n_max = spec.n if n_max is None else min(n_max, spec.n)
    # p: p_1 = 1, p_2 = (lambda - b_1)/a_1; q: q_1 = 0, q_2 = 1/a_1; lambda = 0
    p = np.zeros(n_max + 1)
    q = np.zeros(n_max + 1)
    if n_max >= 1:
        p[1] = 1.0
    if n_max >= 2:
        p[2] = -spec.b[0] / spec.a[0]
        q[2] = 1.0 / spec.a[0]
    for k in range(2, n_max):
        p[k + 1] = (-spec.b[k - 1] * p[k] - spec.a[k - 2] * p[k - 1]) / spec.a[k - 1]
        q[k + 1] = (-spec.b[k - 1] * q[k] - spec.a[k - 2] * q[k - 1]) / spec.a[k - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -q[1:] / p[1:]
    return out
