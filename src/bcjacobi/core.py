"""Jacobi coefficient data and spectral primitives.

A coefficient block is the data (a0, a_1..a_{N-1}, b_1..b_N) of an N x N
Jacobi matrix together with the boundary parameter a0.  Everything here is
immutable; all functions are pure.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import frexp, ldexp

import numpy as np

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
            x = _as_finite(x, "coefficients", real=self.mode == "real")
            if self.mode == "complex":
                x = x.astype(complex)
            object.__setattr__(self, name, x)
        if self.b.size == 0:
            raise InvalidInputError("degenerate N=0 block")
        if self.b.size != self.a.size + 1:
            raise InvalidInputError("need len(b) = len(a) + 1")
        if self.mode == "real":
            object.__setattr__(self, "a0", _finite_scalar(self.a0, "a0"))
            if self.a0 <= 0 or (self.a <= 0).any():
                raise InvalidInputError("real mode requires a0 > 0 and a_k > 0")
        else:
            object.__setattr__(self, "a0", complex(_as_lambda(self.a0, scalar=True, what="a0")))
            if self.a0 == 0 or (self.a == 0).any():
                raise InvalidInputError("complex mode requires nonzero a0 and a_k")

    @property
    def n(self) -> int:
        return self.b.size

    def matrix(self) -> np.ndarray:
        """Dense N x N tridiagonal matrix A^N."""
        return _tridiagonal(self.a, self.b)

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
        x = _as_finite(self.atoms, "atoms", ndim=2)
        if x.size == 0:
            raise InvalidInputError("empty measure")
        if x.shape[1] != 2:
            raise InvalidInputError("atoms must be (lambda, weight) pairs")
        lam, w = x.T
        if np.any(np.diff(lam) <= 0):
            raise InvalidInputError("eigenvalues must be strictly increasing")
        if np.any(w <= 0):
            raise InvalidInputError("weights must be positive")
        object.__setattr__(self, "atoms", tuple(map(tuple, x.tolist())))

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
    return chebyshev_values(t, lam)[t]


def chebyshev_values(t_max: int, lam) -> np.ndarray:
    """Array [T_0(lam), ..., T_{t_max}(lam)] by forward recurrence.

    lam may be a scalar or an ndarray; the leading axis of the result indexes t.
    Values past the float range raise `NumericalFailureError` under any
    warning filter.
    """
    _require_size("t", t_max, low=0)
    lam = _as_lambda(lam)
    out = np.zeros((t_max + 1,) + lam.shape, dtype=np.result_type(lam.dtype, float))
    if t_max >= 1:
        out[1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused, not warned
        for t in range(1, t_max):
            out[t + 1] = lam * out[t] - out[t - 1]
    return _require_finite(out, f"the table T_0(lambda), ..., T_{t_max}(lambda)")


def phi_eval(spec: JacobiSpec, lam, n_max: int) -> np.ndarray:
    """First-kind solution phi_1..phi_{n_max} of the three-term recurrence.

    phi_0 = 0, phi_1 = 1, a_n phi_{n+1} = (lambda - b_n) phi_n - a_{n-1} phi_{n-1}.
    phi_n is a polynomial in lambda of degree n - 1.  For n_max = N + 1 the
    trailing coefficient a_N is taken as 1; the roots of phi_{N+1} are
    unaffected by that scaling.  Values past the float range raise
    `NumericalFailureError` under any warning filter.
    """
    _require_type(spec, JacobiSpec, "spec")
    _require_size("n_max", n_max)
    if n_max > spec.n + 1:
        raise InvalidInputError(f"n_max must be in 1..N+1 = {spec.n + 1}")
    lam = _as_lambda(lam, scalar=True)
    dt = complex if (spec.mode == "complex" or np.iscomplexobj(lam)) else float
    phi = np.zeros(n_max + 1, dtype=dt)
    phi[1] = 1.0
    a = spec.a
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused, not warned
        for k in range(1, n_max):
            ak = a[k - 1] if k - 1 < a.size else 1.0
            akm1 = a[k - 2] if k >= 2 else spec.a0  # a_0 multiplies phi_0 = 0
            phi[k + 1] = ((lam - spec.b[k - 1]) * phi[k] - akm1 * phi[k - 1]) / ak
    return _require_finite(phi[1:], f"the solution phi_1, ..., phi_{n_max}")


def eig_spectral_data(spec: JacobiSpec) -> SpectralData:
    """Eigen decomposition of the real N x N block, in phi-normalization.

    Eigenvalues ascending; eigenvectors rescaled so the first component is
    exactly 1 (then phi^k = phi(lambda_k)); omega_k = sum_n (phi^k_n)^2.
    """
    if _require_type(spec, JacobiSpec, "spec").mode != "real":
        raise BCError("eigen machinery is restricted to the self-adjoint (real) case")
    lam, vecs = np.linalg.eigh(_tridiagonal(spec.a, spec.b))
    first = vecs[0, :]
    # In exact arithmetic phi^k_1 = 1 != 0, but a first component under 1e-13
    # of its column's largest entry gives a weight v_1^2 that a dense
    # eigensolver cannot resolve: a numerical failure, not a valid state.
    largest = np.max(np.abs(vecs), axis=0)
    vanished = np.abs(first) < 1e-13 * largest
    if np.any(vanished):
        raise NumericalFailureError(
            f"eigenvector first component vanished in {np.count_nonzero(vanished)} of {first.size} modes: "
            f"smallest ratio to the column's largest entry {np.min(np.abs(first) / largest):.1e} < 1e-13"
        )
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
    ill-conditioned enough that the last float64 digits of s_k matter.  A
    moment past the float range raises `NumericalFailureError` under any
    warning filter.
    """
    _require_size("K", K, low=0)
    lam = mu.lambdas.astype(np.longdouble)
    w = mu.weights.astype(np.longdouble)
    powers = np.ones_like(lam)
    out = np.empty(K + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused, not warned
        for k in range(K + 1):
            out[k] = float(np.sum(w * powers))
            powers = powers * lam
    return _require_finite(out, "the moment sequence")


def _as_numbers(x, what: str, real: bool = True, ndim: int = 1) -> np.ndarray:
    """Data as a float array, or complex unless `real`, of `ndim` dimensions:
    a sequence (a number is one of length 1) or, with ndim=2, a matrix (an
    empty list is an empty one).  Strings, ragged lists, other non-numbers and
    other shapes are refused."""
    try:
        x = np.asarray(x)
        cplx = x.dtype.kind == "c"
        y = np.atleast_1d(x.astype(complex if cplx else float, copy=False))
    except (TypeError, ValueError):  # strings, None, ragged lists and other non-numbers
        raise InvalidInputError(f"{what} must be {'real ' if real else ''}numbers") from None
    if cplx and real:
        raise InvalidInputError(f"{what} must be real, got dtype {x.dtype}")
    if y.ndim != ndim and y.shape != (0,):
        raise InvalidInputError(f"{what} must be {ndim}-D, got shape {y.shape}")
    return y


def _as_finite(x, what: str, real: bool = True, ndim: int = 1) -> np.ndarray:
    """`_as_numbers`, refusing a non-finite entry as well."""
    x = _as_numbers(x, what, real, ndim)
    if not np.isfinite(x).all():
        raise InvalidInputError(f"{what} must be finite")
    return x


def _require_finite(x, what: str):
    """x, a result computed from finite data, refused where it has left the float range.

    The package's one rule for what it computes; `_as_finite` is the one for what comes in.
    """
    if not np.all(np.isfinite(x)):
        raise NumericalFailureError(f"{what} overflows the float range")
    return x


def _finite_scalar(x, what: str) -> float:
    """A real finite number as a float; a bool, an array, a complex or a non-finite value is refused."""
    if isinstance(x, (bool, np.bool_)) or np.ndim(x) != 0:
        raise InvalidInputError(f"{what} must be a single number, got {type(x).__name__}")
    return float(_as_finite(x, what)[0])


def _as_lambda(lam, scalar: bool = False, what: str = "lambda") -> np.ndarray:
    """The spectral parameter (or another real or complex argument, named by
    `what`) as a finite real or complex array of its own shape (0-d for a
    number); strings and other non-numbers, and with `scalar` arrays, are refused."""
    x = np.asarray(lam)
    if x.dtype.kind not in "iufc" or (scalar and x.ndim):
        raise InvalidInputError(f"{what} must be {'a number' if scalar else 'numbers'}, got {lam!r}")
    if not np.isfinite(x).all():
        raise InvalidInputError(f"{what} must be finite, got {lam!r}")
    return x


def _tolerance(tol) -> float:
    """A tolerance as a float: a finite number > 0, anything else refused."""
    tol = _finite_scalar(tol, "tol")
    if not tol > 0:
        raise InvalidInputError(f"tol must be > 0, got {tol}")
    return tol


def _coeff_gap(x: JacobiSpec, y: JacobiSpec) -> float:
    """Largest entrywise gap between the a and the b vectors of two blocks of one size."""
    return max(float(np.max(np.abs(x.a - y.a), initial=0.0)), float(np.max(np.abs(x.b - y.b))))


def _hankel(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Read-only (rows, cols) view H[i, j] = x[i + j]: every Hankel matrix, and reversed every Toeplitz one."""
    if x.size < rows + cols - 1:
        raise InvalidInputError(f"a {rows} x {cols} Hankel matrix needs {rows + cols - 1} entries")
    return np.lib.stride_tricks.sliding_window_view(x[: rows + cols - 1], cols)


def _tridiagonal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense symmetric tridiagonal matrix with diagonal b and off-diagonals a."""
    return np.diag(b) + np.diag(a, 1) + np.diag(a, -1)


def _require_type(x, cls: type, what: str):
    """x itself if it is a `cls`; anything else, None included, is refused by the type expected."""
    if not isinstance(x, cls):
        raise InvalidInputError(f"{what} must be a {cls.__name__}, got {type(x).__name__}")
    return x


def _require_size(what: str, n: int, low: int = 1) -> None:
    """Refuse a non-integer (or bool) size, one below `low` or past what numpy can index."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not low <= n <= _MAX_BLOCK:
        raise InvalidInputError(
            f"{what} must be an integer in {low}..{_MAX_BLOCK} (need {what} >= {low}), got {n!r}"
        )


def free_spec(n: int, a0: float = 1.0) -> JacobiSpec:
    """Free block: a_k = 1, b_k = 0."""
    _require_size("block size", n)
    return JacobiSpec(a0=a0, a=np.ones(n - 1), b=np.zeros(n))


def random_spec(
    n: int,
    rng: np.random.Generator,
    a_range=(0.5, 2.0),
    b_range=(-1.0, 1.0),
    a0: float = 1.0,
) -> JacobiSpec:
    """Random real block with a_k in a_range and b_k in b_range, each a (low, high) pair."""
    _require_size("block size", n)
    _require_type(rng, np.random.Generator, "rng")
    return JacobiSpec(
        a0=a0,
        a=rng.uniform(*_interval(a_range, "a_range"), size=n - 1),
        b=rng.uniform(*_interval(b_range, "b_range"), size=n),
    )


def _interval(x, what: str) -> np.ndarray:
    """A (low, high) pair of finite numbers with low <= high."""
    x = _as_finite(x, what)
    if x.shape != (2,) or not x[0] <= x[1]:
        raise InvalidInputError(f"{what} must be two finite numbers low <= high, got {x.tolist()}")
    return x


def _at_zero(b: np.ndarray, a_sq: np.ndarray, n: int):
    """p_k(0), p_k'(0) and q_k(0), k < n, of p_{k+1} = (lambda - b_{k+1}) p_k - a_k^2 p_{k-1}:
    p_k monic orthogonal (p_0 = 1, p_{-1} = 0), q_k second kind (q_0 = 0, q_1 = 1).

    Returns (p, dp, q, e), the values at index k being p[k], dp[k], q[k] times
    2**e[k]: they grow or shrink like a_1 ... a_k, so an exact power of two
    leaves a triple outside [2**-500, 2**500].  Values the plain recurrence
    keeps in the normal range are bit for bit its own.
    """
    p, dp, q = np.zeros((3, n))
    e = [0] * n
    p[:1] = 1.0
    if n > 1:
        p[1], dp[1], q[1] = -b[0], 1.0, 1.0
    for k in range(1, n - 1):
        up = e[k - 1] - e[k]  # carries index k - 1 to the scale of index k
        p[k + 1] = -b[k] * p[k] - ldexp(a_sq[k - 1] * p[k - 1], up)
        dp[k + 1] = p[k] - b[k] * dp[k] - ldexp(a_sq[k - 1] * dp[k - 1], up)
        q[k + 1] = -b[k] * q[k] - ldexp(a_sq[k - 1] * q[k - 1], up)
        shift = frexp(max(abs(p[k + 1]), abs(dp[k + 1]), abs(q[k + 1])))[1]
        e[k + 1] = e[k]
        if abs(shift) > 500:
            p[k + 1], dp[k + 1], q[k + 1] = (ldexp(x[k + 1], -shift) for x in (p, dp, q))
            e[k + 1] += shift
    return p, dp, q, np.array(e, dtype=int)


def alpha_star_partials(spec: JacobiSpec, n_max: int | None = None) -> np.ndarray:
    """Diagnostic sequence -q_n(0)/p_n(0) of the boundary-parameter limit.

    Only finite partial quotients are computable from a finite block; the
    returned values are raw diagnostics, never a certified limit.  Entries
    where p_n(0) vanishes are not finite.
    """
    if _require_type(spec, JacobiSpec, "spec").mode != "real":
        raise BCError("diagnostic defined for the self-adjoint case")
    if n_max is not None:
        _require_size("n_max", n_max)
    n_max = spec.n if n_max is None else min(n_max, spec.n)
    p, _, q, _ = _at_zero(spec.b, spec.a**2, n_max)  # one scale per index: the ratio ignores it
    with np.errstate(divide="ignore", invalid="ignore"):
        return -q / p
