"""Continuous-time dynamics u_tt = -A u + f(t) e_1 and string experiments.

The sign convention: the evolution uses the wave kernels

    S(t, lambda) = sin(sqrt(lambda) t)/sqrt(lambda)   (lambda > 0)
                 = sinh(sqrt(-lambda) t)/sqrt(-lambda) (lambda < 0)
                 = t                                   (lambda = 0)

with lambda the eigenvalues of the spec's matrix A, which makes positive
definite blocks (strings) oscillatory.  Wave propagation speed is infinite;
controllability lives on the rank-N range of the connecting operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    JacobiSpec, _as_finite, _finite_scalar, _hankel, _require_finite, _require_size, _require_type, _tridiagonal,
    eig_spectral_data,
)
from .errors import InvalidInputError, NotRealizableError

__all__ = [
    "TimeGrid",
    "StringSpec",
    "ResponseFunctionSamples",
    "Trajectory",
    "wave_kernel",
    "solve_second_order",
    "response_function",
    "connecting_dynamic",
    "connecting_spectral",
    "recover_matrix_continuous",
    "string_system",
    "corrected_response",
    "triangular_bump",
    "gauss_test_function",
    "poly_bump_test_function",
    "psi_preset",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j T / M on [0, T]."""

    T: float
    M: int

    def __post_init__(self):
        object.__setattr__(self, "T", _finite_scalar(self.T, "T"))
        if self.T <= 0:
            raise InvalidInputError("need T > 0 and M >= 2")
        _require_size("M", self.M, low=2)

    @property
    def dt(self) -> float:
        return self.T / self.M

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.M + 1)

    @property
    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.M + 1, self.dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @property
    def simpson_weights(self) -> np.ndarray:
        """Composite Simpson weights, trapezoid patch on the last interval if M is odd."""
        return _simpson_weights(self.M, self.dt)

    def doubled(self) -> "TimeGrid":
        """Grid on [0, 2T] with the same spacing."""
        return TimeGrid(2.0 * self.T, 2 * self.M)


@dataclass(frozen=True)
class StringSpec:
    """Krein-Stieltjes string: point masses m_1..m_{N-1}, lengths l_1..l_N."""

    masses: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "masses", _as_finite(self.masses, "masses"))
        object.__setattr__(self, "lengths", _as_finite(self.lengths, "lengths"))
        if self.lengths.size != self.masses.size + 1:
            raise InvalidInputError("need len(lengths) = len(masses) + 1")
        if np.any(self.masses <= 0) or np.any(self.lengths <= 0):
            raise InvalidInputError("masses and lengths must be positive")

    @staticmethod
    def uniform(N: int) -> "StringSpec":
        """Unit string split into N >= 2 equal weightless pieces with equal masses."""
        _require_size("N", N, low=2)
        return StringSpec(masses=np.full(N - 1, 1.0 / N), lengths=np.full(N, 1.0 / N))


@dataclass(frozen=True)
class ResponseFunctionSamples:
    """Samples of the response function r(t) = sum_k (1/omega_k) S_k(t), one
    per node of `grid`: the only data the continuous-time inverse reads."""

    values: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        object.__setattr__(self, "values", _as_finite(self.values, "samples of r"))
        if self.values.shape != (_require_type(self.grid, TimeGrid, "grid").M + 1,):
            raise InvalidInputError("need one sample of r per grid node")


@dataclass(frozen=True)
class Trajectory:
    """State and velocity samples; u[j] is the state at t_j."""

    u: np.ndarray
    udot: np.ndarray
    grid: TimeGrid


def wave_kernel(lam, tau: np.ndarray, derivative: bool = False) -> np.ndarray:
    """S(tau, lambda), or its time derivative S'(tau, lambda), at the
    arguments as rounded; the package's kernel tables take it through
    `_node_kernels`, which corrects it to the exact nodes.

    lam is one eigenvalue or an array of them; the result has shape
    tau.shape + lam.shape, and its [..., k] slice is the call with lam[k]
    alone, bit for bit.
    """
    tau = np.asarray(tau, dtype=float)
    lam = np.asarray(lam, dtype=float)
    lams = lam.reshape(-1)
    out = np.empty(tau.shape + lams.shape)
    pos, neg = lams > 0, lams < 0
    for pick, (s, c) in ((pos, (np.sin, np.cos)), (neg, (np.sinh, np.cosh))):
        if pick.any():
            rt = np.sqrt(np.abs(lams[pick]))
            x = tau[..., None] * rt
            out[..., pick] = c(x) if derivative else s(x) / rt
    out[..., ~(pos | neg)] = 1.0 if derivative else tau[..., None]
    return out.reshape(tau.shape + lam.shape)


def _split(x: np.ndarray) -> tuple:
    """Veltkamp's split x = hi + lo into two halves of at most 26 bits each."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _two_product(x: np.ndarray, y: np.ndarray) -> tuple:
    """Dekker's product: p = fl(x y) and its rounding error e, with p + e = x y exactly."""
    p = x * y
    (xh, xl), (yh, yl) = _split(x), _split(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _node_kernels(lam: np.ndarray, dt: float, m: np.ndarray, lam_lo: np.ndarray | None = None) -> tuple:
    """S_k and C_k = S_k' at the exact nodes m dt (m integer), to first order
    in every argument rounding: the package's one kernel-table evaluator.
    With `lam_lo`, the eigenvalues are lam + lam_lo in double-double.

    wave_kernel evaluates at t' = fl(rt fl(m dt)) / rt, rt = fl(sqrt|lam|).
    The offset of the node, m dt - t', is exact in double-double, and so is
    rt's own rounding: with p + e = rt rt (Dekker), |lam| - p is exact
    (Sterbenz), and sqrt|lam| = rt (1 + rel), rel = (|lam| - p - e) / (2 p),
    to first order (plus sign(lam) lam_lo / (2 p) with a low part).  The
    argument sqrt|lam| m dt is then rt (t' + d) with
    d = t_lo + x_lo / rt + t rel, and S(t' + d) = S(t') + d C(t'),
    C(t' + d) = C(t') - lam d S(t').  What is left is rt's rounding in S's
    divisor, a relative error below eps.  Where d rt, the argument's
    rounding, is not below 1 (float64 no longer resolves a period there),
    Veltkamp's split overflows (past ~1e300) or wave_kernel itself overflows
    (sinh and cosh past ~710), the node keeps wave_kernel's value.
    """
    rt = np.sqrt(np.abs(lam))
    with np.errstate(over="ignore", invalid="ignore"):
        t, t_lo = _two_product(m.astype(float), dt)
        _, x_lo = _two_product(t[:, None], rt)
        p, e = _two_product(rt, rt)
        gap = (np.abs(lam) - p) - e
        if lam_lo is not None:
            gap = gap + np.sign(lam) * lam_lo
        rel = np.divide(gap, 2.0 * p, out=np.zeros_like(p), where=p > 0)
        d = (t_lo[:, None] + np.divide(x_lo, rt, out=np.zeros_like(x_lo), where=rt > 0)
             + t[:, None] * rel)
        d = np.where(np.abs(d * rt) < 1.0, d, 0.0)  # NaN compares false
    S, C = wave_kernel(lam, t), wave_kernel(lam, t, derivative=True)
    with np.errstate(invalid="ignore"):
        dS, dC = d * C, -lam * d * S
    return S + np.where(np.isfinite(dS), dS, 0.0), C + np.where(np.isfinite(dC), dC, 0.0)


class _GridKernels:
    """The wave kernels S_k(j dt), j < n, of the modes lam on a uniform grid.

    By angle addition S(x + y) = S(x) C(y) + C(x) S(y), with C = S', which
    holds for every sign of lambda (sin/cos, sinh/cosh, t/1).  With j = a B + b
    and B = ceil(sqrt(n)), S and C are evaluated only at the B fine offsets
    b dt and the ceil(n / B) coarse ones a B dt: O(K sqrt(n)) transcendentals
    for K modes in place of O(K n).  Both contractions over the n x K kernel
    matrix are two BLAS products each, and the matrix itself is never formed.
    The factors are taken at the exact nodes and the exact sqrt|lam|
    (`_node_kernels`), so the sums carry no argument rounding to first
    order, unlike sin(sqrt(lam) t_j) mode by mode.
    """

    def __init__(self, lam: np.ndarray, dt: float, n: int, lam_lo: np.ndarray | None = None):
        self.n = n
        B = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
        self.Sb, self.Cb = _node_kernels(lam, dt, np.arange(B), lam_lo)
        self.Sa, self.Ca = _node_kernels(lam, dt, B * np.arange(-(-n // B)), lam_lo)

    def sum_modes(self, w: np.ndarray) -> np.ndarray:
        """r_j = sum_k w_k S_k(j dt) for j < n."""
        R = (self.Sa * w) @ self.Cb.T + (self.Ca * w) @ self.Sb.T
        return R.ravel()[: self.n]

    def sum_times(self, g: np.ndarray) -> np.ndarray:
        """h_k = sum_j S_k(j dt) g_j over the len(g) <= n first nodes."""
        B = self.Sb.shape[0]
        A = -(-g.size // B)
        G = np.zeros(A * B)
        G[: g.size] = g
        G = G.reshape(A, B)
        return np.sum(self.Sa[:A] * (G @ self.Cb) + self.Ca[:A] * (G @ self.Sb), axis=0)


def _simpson_weights(j: int, dt: float) -> np.ndarray:
    """Quadrature weights over t_0..t_j: composite Simpson with a trapezoid
    patch on the last interval when j is odd."""
    w = np.zeros(j + 1)
    m = j if j % 2 == 0 else j - 1
    if m >= 2:
        w[0] += dt / 3.0
        w[m] += dt / 3.0
        w[1:m:2] += 4.0 * dt / 3.0
        w[2:m:2] += 2.0 * dt / 3.0
    if m < j:
        w[-2] += 0.5 * dt
        w[-1] += 0.5 * dt
    return w


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """int_{t_0}^{t_j} y for j = 1..n-1 on n >= 3 equally spaced samples, by
    scipy.integrate.cumulative_simpson's equal-interval rule, operation for
    operation, so the result is bit-identical to it (and scipy.integrate,
    with the ~200 modules it imports, stays out of the package).

    Each interval's integral is the quadratic through it and its right
    neighbour, dx/3 (5 f_1/4 + 2 f_2 - f_3/4), or through its left neighbour,
    the same on the reversed samples; even intervals take the first, odd ones
    and the last one the second, and one cumulative sum adds them up.
    """
    def intervals(f):
        return dx / 3 * (5 * f[:-2] / 4 + 2 * f[1:-1] - f[2:] / 4)

    left, right = intervals(y), intervals(y[::-1])[::-1]
    sub = np.empty(y.size - 1)
    sub[:-1:2] = left[::2]
    sub[1::2] = right[::2]
    sub[-1] = right[-1]
    return np.cumsum(sub)


def _simpson_convolution(f: np.ndarray, k: np.ndarray, dt: float) -> np.ndarray:
    """c_j = int_0^{t_j} f(tau) k(t_j - tau) dtau by `_simpson_weights(j, dt)`
    for every j: one direct (not FFT, so each entry rounds like one dot
    product) convolution with the interior pattern dt/3 (1, 4, 2, 4, ...),
    then a patch of the last one (even j) or two (odd j) weights of row j.

    The convolution runs over the nonzero span lo..hi of the weighted control
    alone (a bump's 17 nodes, not all n): c_j for j < lo is 0, and the zeros
    outside the span add nothing to any entry.  For a control with no zero at
    either end it is the same single np.convolve."""
    n = f.size
    pf = _simpson_weights(2 * n, dt)[:n] * f  # the rule's interior pattern
    c = np.zeros(n)
    span = np.flatnonzero(pf)
    if span.size:
        lo, hi = span[0], span[-1] + 1
        c[lo:] = np.convolve(pf[lo:hi], k[: n - lo])[: n - lo]
    fk0 = f * k[0]
    c[2::2] -= (dt / 3.0) * fk0[2::2]
    c[1::2] += (dt / 6.0) * f[0:-1:2] * k[1] - (5.0 * dt / 6.0) * fk0[1::2]
    c[0] = 0.0
    return c


def solve_second_order(spec: JacobiSpec, f, grid: TimeGrid) -> Trajectory:
    """Spectral solution u(t) = sum_k h_k(t) phi^k of u_tt = -A u + f(t) e_1.

    h_k(t) = (1/omega_k) int_0^t f(tau) S_k(t - tau) dtau, with the
    convolution done by composite Simpson on the grid.  Velocities come from
    the analytically differentiated kernel; both tables are taken at the
    exact nodes j dt (`_node_kernels`).  A trajectory past the float range
    raises NumericalFailureError.
    """
    f = _as_finite(f, "control")
    if f.size != _require_type(grid, TimeGrid, "grid").M + 1:
        raise InvalidInputError("control must be sampled on the grid")
    data = eig_spectral_data(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        h, hdot = (
            np.array([_simpson_convolution(f, kern, grid.dt) for kern in K.T]) / data.omegas[:, None]
            for K in _node_kernels(data.eigenvalues, grid.dt, np.arange(grid.M + 1))
        )
        u, udot = (data.phi_vectors @ h).T, (data.phi_vectors @ hdot).T
    u, udot = _require_finite(u, "the trajectory"), _require_finite(udot, "its velocity")
    return Trajectory(u=u, udot=udot, grid=grid)


def response_function(spec: JacobiSpec, grid: TimeGrid) -> ResponseFunctionSamples:
    """Samples of r(t) = sum_k (1/omega_k) S_k(t) at the grid nodes j dt.

    Samples past the float range (a sinh mode of a negative eigenvalue) raise
    NumericalFailureError."""
    _require_type(grid, TimeGrid, "grid")
    data = eig_spectral_data(spec)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused, not warned
        vals = _GridKernels(data.eigenvalues, grid.dt, grid.M + 1).sum_modes(1.0 / data.omegas)
    return ResponseFunctionSamples(values=_require_finite(vals, "the response function"), grid=grid)


def _require_doubled(r: ResponseFunctionSamples, grid: TimeGrid) -> None:
    """Refuse samples of r that do not cover [0, 2T] with the spacing of `grid`."""
    _require_type(r, ResponseFunctionSamples, "r")
    _require_type(grid, TimeGrid, "grid, the horizon of ResponseFunctionSamples on [0, 2T],")
    if r.grid.M != 2 * grid.M or abs(r.grid.T - 2.0 * grid.T) > 1e-12 * grid.T:
        raise InvalidInputError("response must be sampled on [0, 2T] with the grid spacing")


def connecting_dynamic(r: ResponseFunctionSamples, grid: TimeGrid) -> np.ndarray:
    """Kernel matrix K(t_i, s_j) = 1/2 int_{|t-s|}^{2T-s-t} r(tau) dtau.

    r must be sampled on [0, 2T] with the same spacing as `grid` (the inner
    integral reaches 2T - s - t); the antiderivative is taken by cumulative
    trapezoid, giving an O(dt^2) kernel.  The operator action is
    (C f)(t_i) = sum_j K[i, j] w_j f(s_j) with trapezoid weights w.
    """
    _require_doubled(r, grid)
    P = np.concatenate([[0.0], np.cumsum(0.5 * grid.dt * (r.values[1:] + r.values[:-1]))])
    return _kernel_matrix(P, grid.M)


def _mirrored(seq: np.ndarray, M: int) -> np.ndarray:
    """seq[|k - M|], k = 0..2M: the kernel's Toeplitz part is its row-reversed Hankel matrix."""
    return np.concatenate([seq[M:0:-1], seq[: M + 1]])


def _kernel_matrix(P: np.ndarray, M: int) -> np.ndarray:
    """K[i, j] = 1/2 (P[2M - i - j] - P[|i - j|]) for i, j = 0..M, from the
    antiderivative P of r sampled at t_0..t_2M: a Hankel minus a Toeplitz."""
    K = _hankel(P[2 * M :: -1], M + 1, M + 1) - _hankel(_mirrored(P, M), M + 1, M + 1)[::-1]
    return np.multiply(K, 0.5, out=K)


def _kernel_apply(seq: np.ndarray):
    """x -> _kernel_matrix(seq, M) @ x for x of length M + 1, seq of length
    2M + 1, by FFT in O(M log M); the two spectra of seq are taken once.

    The Hankel part is entries 2M..M of the linear convolution seq * x, the
    Toeplitz part entries M..2M of x convolved with `_mirrored(seq, M)`."""
    M = seq.size // 2
    n = 1 << (3 * M).bit_length()  # > 3M: neither convolution wraps around
    hank_f = np.fft.rfft(seq, n)
    toep_f = np.fft.rfft(_mirrored(seq, M), n)

    def apply(x: np.ndarray) -> np.ndarray:
        X = np.fft.rfft(x, n)
        hank = np.fft.irfft(hank_f * X, n)[2 * M : M - 1 : -1]
        toep = np.fft.irfft(toep_f * X, n)[M : 2 * M + 1]
        return 0.5 * (hank - toep)

    return apply


# 60 times the sixth-order first-derivative weights at nodes 0, 1, 2 and 3
# (central) of a 7-node window; nodes 4, 5, 6 mirror 2, 1, 0 with a sign flip
_D1 = np.array([[-147, 360, -450, 400, -225, 72, -10], [-10, -77, 150, -100, 50, -15, 2],
                [2, -24, -35, 80, -30, 8, -1], [-1, 9, -45, 0, 45, -9, 1]]) / 60.0


def _derivative(y: np.ndarray, dt: float) -> np.ndarray:
    """y' by sixth-order differences, one-sided on the first and last three nodes."""
    d = np.correlate(y, _D1[3], "same")
    d[:3] = _D1[:3] @ y[:7]
    d[-3:] = -(_D1[2::-1] @ y[:-8:-1])
    return d / dt


def connecting_spectral(spec: JacobiSpec, grid: TimeGrid) -> np.ndarray:
    """Rank-N kernel sum_k (1/omega_k) S_k(T-t) S_k(T-s), assembled exactly,
    with S_k(T - t_j) taken at the exact nodes (M - j) dt.  A kernel past the
    float range raises NumericalFailureError."""
    _require_type(grid, TimeGrid, "grid")
    data = eig_spectral_data(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        S = _node_kernels(data.eigenvalues, grid.dt, np.arange(grid.M, -1, -1))[0]
        K = (S / data.omegas) @ S.T
    # an overflowed S_k(T - t_i) makes K_ii inf or NaN, and a finite diagonal
    # bounds every entry: |K_ij| <= sqrt(K_ii K_jj), as the weights are positive
    _require_finite(np.diag(K), "the connecting kernel")
    return K


def _top_eigenpairs(apply, n: int, k: int) -> tuple:
    """The k largest eigenpairs (descending) of the symmetric n x n operator
    `apply`, by Lanczos with full reorthogonalization (Parlett, The Symmetric
    Eigenvalue Problem, 1980).

    The start vector is ones, so the result is the same bit for bit from call
    to call.  Each new vector is orthogonalized against all earlier ones
    twice, and from step k on the tridiagonal's top k Ritz pairs are taken
    from its dense eigendecomposition.  The run stops when every wanted Ritz
    estimate |beta_m y_{m,i}| is at the apply's rounding level eps
    |theta|_max (below it the apply cannot tell the residual from its own
    rounding), on an invariant subspace (beta_m = 0), or at m = n, where the
    Krylov space is the whole space; an unconverged pair is never returned.
    The returned pairs are refined by `_refine_ritz`.  An invariant subspace
    of dimension below k (the zero operator, say) is a breakdown:
    NotRealizableError.
    """
    Q = np.empty((n, min(n, 2 * k + 2)))  # the Lanczos vectors, grown by doubling
    q = np.full(n, 1.0 / math.sqrt(n))
    alpha, beta = np.empty(n), np.empty(n)
    for m in range(n):
        if m == Q.shape[1]:
            Q = np.concatenate([Q, np.empty((n, min(n, 2 * m) - m))], axis=1)
        Q[:, m] = q
        V = Q[:, : m + 1]
        x = apply(q)
        h = V.T @ x
        x -= V @ h
        h2 = V.T @ x
        x -= V @ h2
        alpha[m] = h[m] + h2[m]
        top = float(_require_finite(np.max(np.abs(x)), "the connecting kernel"))
        beta[m] = b = top * float(np.linalg.norm(x / top)) if top else 0.0  # x @ x overflows past 1e154
        if m + 1 >= k:
            theta, Y = np.linalg.eigh(_tridiagonal(beta[:m], alpha[: m + 1]))
            theta, Y = theta[m + 1 - k :], Y[:, m + 1 - k :]
            if m + 1 == n or np.all(b * np.abs(Y[-1]) <= np.finfo(float).eps * np.max(np.abs(theta))):
                theta, Y = _refine_ritz(alpha[: m + 1], beta[:m], theta, Y)
                return theta[::-1], (V @ Y)[:, ::-1]
        elif b == 0.0:
            raise NotRealizableError(
                f"Lanczos broke down (invariant subspace of dimension {m + 1}): "
                f"the data does not support rank {k}"
            )
        q = x / b


def _sturm_below(a: np.ndarray, b2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """How many eigenvalues of the tridiagonal with diagonal a and squared
    off-diagonal b2 lie below each x: the negative pivots of LDL^T of T - x I,
    a zero or subnormal pivot counted as a tiny negative one."""
    tiny = np.finfo(float).tiny
    d = a[0] - x
    below = (d < 0).astype(int)
    for i in range(1, a.size):
        d = (a[i] - x) - b2[i - 1] / np.where(np.abs(d) < tiny, -tiny, d)
        below += d < 0
    return below


def _refine_ritz(alpha: np.ndarray, beta: np.ndarray, theta: np.ndarray, Y: np.ndarray) -> tuple:
    """The top k eigenpairs (ascending) of the unreduced tridiagonal with
    diagonal alpha and off-diagonal beta, from approximate ones (theta, Y)
    (Parlett, The Symmetric Eigenvalue Problem, 1980).

    An exact power of two first brings the entries near 1, so their squares
    neither overflow nor underflow.  Each eigenvalue is bracketed by theta
    +- 8 n eps ||T||, a backward-stable eigensolver's error, or by the
    Gershgorin interval where the Sturm counts say that bracket misses it,
    and cut down on Sturm counts, 64 points per bracket and pass, to 2 eps
    of itself or eps of the matrix, whichever is larger.  Each vector then
    takes one step of inverse iteration from its column of Y, and the k
    vectors are orthonormalized, the top one first, as LAPACK's stein does
    within a cluster.  A shift that is an eigenvalue to the last bit (an
    exactly singular T - theta I) leaves Y as it is.
    """
    n, k = Y.shape
    eps = np.finfo(float).eps
    e = math.frexp(max(np.max(np.abs(alpha)), np.max(beta, initial=0.0)))[1]
    a, b = np.ldexp(alpha, -e), np.ldexp(beta, -e)
    b2 = b * b
    radius = np.append(b, 0.0) + np.append(0.0, b)
    norm = np.max(np.abs(a) + radius)
    wanted = np.arange(n - k, n)  # eigenvalue i has i eigenvalues below it
    t, w = np.ldexp(theta, -e), 8 * n * eps * norm
    lo, hi = t - w, t + w
    below = _sturm_below(a, b2, np.stack([lo, hi], axis=1))
    lo = np.where(below[:, 0] <= wanted, lo, np.min(a - radius))
    hi = np.where(below[:, 1] > wanted, hi, np.max(a + radius))
    while np.any(hi - lo > np.maximum(eps * norm, 2.0 * eps * np.maximum(np.abs(lo), np.abs(hi)))):
        x = np.linspace(lo, hi, 66, axis=1)
        j = np.sum(_sturm_below(a, b2, x[:, 1:-1]) <= wanted[:, None], axis=1)  # inner points at or below it
        lo, hi = x[np.arange(k), j], x[np.arange(k), j + 1]
    theta = 0.5 * (lo + hi)
    try:
        Z = np.linalg.solve(_tridiagonal(b, a) - theta[:, None, None] * np.eye(n), Y.T[:, :, None])[:, :, 0].T
    except np.linalg.LinAlgError:
        Z = Y
    Z, R = np.linalg.qr((Z * np.sign(np.sum(Z * Y, axis=0)) / np.linalg.norm(Z, axis=0))[:, ::-1])
    return np.ldexp(theta, e), (Z * np.sign(np.diag(R)))[:, ::-1]


def recover_matrix_continuous(r: ResponseFunctionSamples, N: int, grid: TimeGrid) -> tuple:
    """Recover the N x N block and the special controls f_1..f_N from r on [0, 2T].

    Reads r.values alone.  C f = K (w f), with K the kernel of
    `connecting_dynamic` on the Simpson antiderivative P of r and w the
    Simpson weights, is applied by FFT (`_kernel_apply`) and restricted to
    its range by the top N eigenpairs of sqrt(w) K sqrt(w), which the
    package's Lanczos (`_top_eigenpairs`: full reorthogonalization, start
    vector ones) finds from that apply; an invariant subspace below rank N
    is a breakdown, NotRealizableError.  N > M is refused, and
    eigenvalue N must clear the noise floor max(1e-8 lambda_1, T max|P_dt -
    P_2dt| / 15), a Richardson estimate of P's error, else NotRealizableError
    names the numerical rank counted against it.  With C f_1 = r(T - .),

        b_n = -((C f_n)'', f_n),   a_n C f_{n+1} = -(C f_n)'' - b_n C f_n - a_{n-1} C f_{n-1}

    walks down the block.  (C f)'' is the same apply on r', taken by
    sixth-order differences (so M >= 3): d^2/dt^2 K = 1/2 [r'(2T - s - t) -
    r'(|t - s|)], with no delta term as r(0) = 0.

    Returns (spec, controls) with controls[n] the recovered f_{n+1} samples.
    """
    _require_size("N", N)
    _require_doubled(r, grid)
    M = grid.M
    if N > M:
        raise NotRealizableError(
            f"mode {N} exceeds what the {M + 1}-node grid can resolve: "
            f"the data does not support rank {N}"
        )
    if M < 3:
        raise InvalidInputError(f"the derivative of r needs M >= 3, got {M}")
    # fourth-order antiderivative and quadrature weights: the recovery divides
    # by eigenvalue N of the kernel, so the O(dt^2) trapezoid budget of
    # connecting_dynamic would be amplified past the coefficient tolerance
    P = np.concatenate([[0.0], _cumulative_simpson(r.values, grid.dt)])
    w = grid.simpson_weights
    sw = np.sqrt(w)
    kernel = _kernel_apply(P)
    sig, U = _top_eigenpairs(lambda v: sw * kernel(sw * v), M + 1, N)
    # Richardson estimate of P's error (order 4, step 2 dt against dt); T times
    # it bounds the norm of the kernel's quadrature perturbation
    P2 = np.concatenate([[0.0], _cumulative_simpson(r.values[::2], 2.0 * grid.dt)])
    floor = max(1e-8 * sig[0], grid.T * float(np.max(np.abs(P[::2] - P2))) / 15.0)
    if sig[N - 1] <= floor:
        # mode N is below the floor, so every mode above it is among the N computed
        rank = int(np.sum(sig > floor))
        raise NotRealizableError(
            f"mode {N} of the connecting operator sits at the noise floor "
            f"(numerical rank {rank}): the data does not support rank {N}"
        )

    def c_solve(y):
        z = U.T @ (sw * y)
        return (U @ (z / sig)) / sw

    def quad(x, y):
        return float(np.sum(w * x * y))

    kernel_dd = _kernel_apply(_derivative(r.values, grid.dt))
    f = [None] * (N + 1)
    f[1] = c_solve(r.values[M::-1])  # r(T - t_i)
    a_rec = np.zeros(N - 1)
    b_rec = np.zeros(N)
    g_prev = None
    for n in range(1, N + 1):
        g = kernel(w * f[n])
        g_dd = kernel_dd(w * f[n])
        b_rec[n - 1] = -quad(g_dd, f[n])
        if n < N:
            h = -g_dd - b_rec[n - 1] * g
            if n >= 2:
                h = h - a_rec[n - 2] * g_prev
            v = c_solve(h)
            a_sq = quad(h, v)
            if a_sq <= 0:
                raise NotRealizableError(f"a_{n}^2 = {a_sq:.3e} <= 0: conditioning failure")
            a_rec[n - 1] = np.sqrt(a_sq)
            f[n + 1] = v / a_rec[n - 1]
        g_prev = g
    return JacobiSpec(a0=1.0, a=a_rec, b=b_rec), f[1:]


def string_system(s: StringSpec) -> dict:
    """Mass and stiffness matrices of the string, and the symmetrized block.

    The vector system is M u_tt = -A u + (f/l_1) e_1 with a_i = 1/l_{i+1} and
    b_i = -(l_i + l_{i+1})/(l_i l_{i+1}) (A is negative definite).  The
    symmetrization L = M^{-1/2} (-A) M^{-1/2} is positive definite; an
    alternating sign conjugation makes its off-diagonals positive, which is
    the returned Jacobi block (first components are unaffected).  The control
    enters channel 1 of the symmetrized system with gain 1/(l_1 sqrt(m_1)).
    """
    m, l = _require_type(s, StringSpec, "s").masses, s.lengths
    N1 = m.size  # number of interior masses
    a = 1.0 / l[1:N1]
    b = -(l[:N1] + l[1 : N1 + 1]) / (l[:N1] * l[1 : N1 + 1])
    inv_sqrt_m = 1.0 / np.sqrt(m)
    # the diagonals of L = M^{-1/2} (-A) M^{-1/2}, rounded as the dense product rounds them
    spec = JacobiSpec(
        a0=1.0,
        a=-((inv_sqrt_m[:-1] * -a) * inv_sqrt_m[1:]),
        b=(inv_sqrt_m * -b) * inv_sqrt_m,
    )
    return {
        "mass": np.diag(m),
        "stiffness": _tridiagonal(a, b),
        "spec": spec,
        "gain": 1.0 / (l[0] * np.sqrt(m[0])),
        "inv_sqrt_m": inv_sqrt_m,
    }


def _random_string(N: int, rng) -> JacobiSpec:
    """Block of a random N-mass string, masses then lengths drawn from U(0.7, 1.3) / (N + 1):
    its harmonic-like spectrum keeps the N sine modes observable, which close frequencies do not."""
    masses = rng.uniform(0.7, 1.3, N) / (N + 1)
    lengths = rng.uniform(0.7, 1.3, N + 1) / (N + 1)
    return string_system(StringSpec(masses=masses, lengths=lengths))["spec"]


def _recovery_experiment(N: int, rng, T: float = 2.0, M: int = 800) -> tuple:
    """Criterion 10's round trip: a random N-mass string drawn from `rng`, its response
    sampled on the doubled grid of TimeGrid(T, M), and the block recovered from it.
    Returns (true block, recovered block)."""
    spec = _random_string(N, rng)
    grid = TimeGrid(T, M)
    rec, _ = recover_matrix_continuous(response_function(spec, grid.doubled()), N, grid)
    return spec, rec


def triangular_bump(grid: TimeGrid, width: float | None = None) -> np.ndarray:
    """Unit-integral triangular bump starting at t = 0 (default width 16 dt).

    The bump has support [0, width] with peak 2/width at width/2, which
    approximates a delta control on the grid scale.
    """
    t = _require_type(grid, TimeGrid, "grid").nodes
    width = 16.0 * grid.dt if width is None else _finite_scalar(width, "width")
    if not width > 0:
        raise InvalidInputError("width must be positive and finite")
    peak = 2.0 / width
    half = width / 2.0
    vals = np.where(t <= half, t * peak / half, np.where(t <= width, (width - t) * peak / half, 0.0))
    return np.clip(vals, 0.0, None)


def gauss_test_function(center: float, sigma: float):
    """Unit-mass Gaussian test function psi and its derivative; sigma > 0."""
    center, sigma = _finite_scalar(center, "center"), _finite_scalar(sigma, "sigma")
    if sigma <= 0:
        raise InvalidInputError(f"need sigma > 0, got {sigma}")
    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))

    def psi(x):
        x = np.asarray(x, dtype=float)
        return norm * np.exp(-0.5 * ((x - center) / sigma) ** 2)

    def dpsi(x):
        x = np.asarray(x, dtype=float)
        return psi(x) * (-(x - center) / sigma**2)

    return psi, dpsi


def poly_bump_test_function(center: float, width: float):
    """Compactly supported C^2 polynomial bump (1 - y^2)^3 on |y| <= 1, unit
    mass; y = (x - center) / width with width > 0."""
    center, width = _finite_scalar(center, "center"), _finite_scalar(width, "width")
    if width <= 0:
        raise InvalidInputError(f"need width > 0, got {width}")
    norm = 35.0 / (32.0 * width)  # int (1 - y^2)^3 dy = 32/35

    def psi(x):
        y = (np.asarray(x, dtype=float) - center) / width
        return np.where(np.abs(y) < 1.0, norm * (1.0 - y**2) ** 3, 0.0)

    def dpsi(x):
        y = (np.asarray(x, dtype=float) - center) / width
        return np.where(np.abs(y) < 1.0, norm * (-6.0 * y) * (1.0 - y**2) ** 2 / width, 0.0)

    return psi, dpsi


# each preset's test function and the defaults of every parameter it takes
_PSI_PRESETS = {
    "gauss": (gauss_test_function, {"center": 0.45, "sigma": 0.1}),
    "poly-bump": (poly_bump_test_function, {"center": 0.45, "width": 0.3}),
}


def psi_preset(kind: str, **params):
    """Named presets for pairing experiments: gauss(center, sigma) or
    poly-bump(center, width); a parameter the preset does not take is refused."""
    if kind not in _PSI_PRESETS:
        raise InvalidInputError(f"unknown test function preset {kind!r}")
    make, defaults = _PSI_PRESETS[kind]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise InvalidInputError(f"the {kind!r} preset takes no {', '.join(unknown)}")
    return make(**{**defaults, **params})


class _UniformString:
    """Modes of the uniform N-piece string in closed form.

    Its symmetrized block is exactly N^2 tridiag(1, 2, 1), whose modes,
    eigenvalues ascending (k = N - 1, ..., 1), are

        lam_k = 4 N^2 cos^2(k pi / 2N),  omega_k = N / (2 sin^2(k pi / N)),
        phi^k_j = sin(j k pi / N) / sin(k pi / N),  j = 1..N-1.

    Every sine is taken at an exactly reduced integer argument, in the first
    quadrant: cos(k pi / 2N) = sin((N - k) pi / 2N), sin(k pi / N) =
    sin(min(k, N - k) pi / N).  They are evaluated in np.longdouble, so
    omega_k and sin(k pi / N) are rounded once to float64 and lam_k is carried
    as a double-double, lam_k + lam_lo_k, into the kernel tables: a float64
    lam_k alone moves sqrt(lam_k) t by up to sqrt(lam_k) t eps / 4, which the
    cancelling sum over the modes does not absorb.  (Where np.longdouble is
    float64, lam_lo is 0 and each value is float64's.)  No N x N matrix is
    formed: the modal sum sum_k phi^k_j c_k is a sine transform, one real
    FFT.  The eigensolver route (`string_system`, then `eig_spectral_data`)
    is its test oracle.
    """

    def __init__(self, N: int):
        self.N = N
        self.k = np.arange(N - 1, 0, -1)
        pi = np.longdouble(np.pi) + np.longdouble(1.2246467991473532e-16)  # pi - fl(pi), rounded
        lam = (2 * N * np.sin((N - self.k) * pi / (2 * N))) ** 2
        first = np.sin(np.minimum(self.k, N - self.k) * pi / N)
        self.eigenvalues = lam.astype(float)
        self.lam_lo = (lam - self.eigenvalues).astype(float)
        self.first = first.astype(float)  # sin(k pi / N)
        self.omegas = (N / (2 * first**2)).astype(float)

    def modal_sum(self, c: np.ndarray) -> np.ndarray:
        """sum_k phi^k_j c_k for j = 1..N-1, along the first axis of c: minus
        the imaginary part of the DFT of length 2N of c_k / sin(k pi / N) at k."""
        x = np.zeros((2 * self.N,) + c.shape[1:])
        x[self.k] = (c.T / self.first).T
        return -np.fft.rfft(x, axis=0)[1 : self.N].imag


def corrected_response(N: int, grid: TimeGrid, psi=None, field_time: float | None = None) -> dict:
    """Uniform-string delta-approximation experiment.

    Drives the uniform N-piece string with a narrow triangular bump of unit
    integral and returns the raw response u_1(t), the corrected response
    r~_N = (u_1 - u_0) / (1/N), and quadrature pairings against the test
    function psi(t): <u_1, psi> (tends to psi(0)), <r~_N, psi> (tends to
    psi'(0)), plus the field pairing int u(x, t*) psi(x) dx at t* =
    field_time (tends to psi(t*)), which must lie in [0, grid.T].  Trends over
    an N-ladder are the caller's business; nothing here is a certified limit.
    The N - 1 modes are the string's closed form (`_UniformString`), not an
    eigensolve.  Both the kernel sum of u_1 and the modal sums at t* run on
    one `_GridKernels` of them; the state at t* is one sine transform.
    """
    _require_size("N", N, low=2)
    _require_type(grid, TimeGrid, "grid")
    if field_time is not None:
        field_time = _finite_scalar(field_time, "field_time")
        if not 0.0 <= field_time <= grid.T:
            raise InvalidInputError(f"field_time must lie in [0, T] = [0, {grid.T}], got {field_time}")
    if psi is None:
        psi, _ = psi_preset("gauss")
    modes = _UniformString(N)
    kernels = _GridKernels(modes.eigenvalues, grid.dt, grid.M + 1, modes.lam_lo)
    f = triangular_bump(grid)
    t = grid.nodes
    w = grid.trapezoid_weights
    # u = M^{-1/2} D w, so u_1 = sqrt(N) w_1, and the control enters channel 1
    # of the symmetrized system with gain 1/(l_1 sqrt(m_1)) = N sqrt(N)
    gain = float(N) ** 2
    u1 = gain * _simpson_convolution(f, kernels.sum_modes(1.0 / modes.omegas), grid.dt)
    u0 = f
    corrected = (u1 - u0) * N
    pair_raw = float(np.sum(w * u1 * psi(t)))
    pair_corr = float(np.sum(w * corrected * psi(t)))
    out = {
        "u1": u1,
        "u0": u0,
        "corrected": corrected,
        "pair_raw": pair_raw,
        "pair_corrected": pair_corr,
    }
    if field_time is not None:
        j_star = int(round(field_time / grid.dt))
        # all channels at t*; D is the sign conjugation
        wf = _simpson_weights(j_star, grid.dt) * f[: j_star + 1]
        h_star = kernels.sum_times(wf[::-1]) / modes.omegas  # S_k(t* - t_i) = S_k((j* - i) dt)
        signs = (-1.0) ** np.arange(N - 1)  # undo the conjugation, channel 1 positive
        u_state = gain * signs * modes.modal_sum(h_star)
        # piecewise-affine field through (x_i, u_i), x_i = i/N, clamped at x = 1
        xs = np.arange(N + 1) / N
        field_vals = np.concatenate([[u0[j_star]], u_state, [0.0]])
        pair_field = float(np.trapezoid(field_vals * psi(xs), xs))
        out["pair_field"] = pair_field
        out["field_values"] = field_vals
        out["field_x"] = xs
    return out


def _pairing_errors(N: int, psi, dpsi, field_time: float = 0.5, T: float = 1.0, M: int | None = None) -> tuple:
    """The delta-approximation experiment at N on [0, T], M steps (default max(1000, 8N)): the raw,
    corrected and field pairings, each followed by its error against psi(0), psi'(0), psi(field_time)."""
    grid = TimeGrid(T, max(1000, 8 * N) if M is None else M)
    out = corrected_response(N, grid, psi=psi, field_time=field_time)
    raw, corrected, field = out["pair_raw"], out["pair_corrected"], out["pair_field"]
    return raw, abs(raw - psi(0.0)), corrected, abs(corrected - dpsi(0.0)), field, abs(field - psi(field_time))
