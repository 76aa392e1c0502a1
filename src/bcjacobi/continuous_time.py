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

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.linalg import eigh, eigvalsh, hankel, toeplitz

from .core import JacobiSpec, _require_size, eig_spectral_data
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
        object.__setattr__(self, "masses", np.atleast_1d(np.asarray(self.masses, dtype=float)))
        object.__setattr__(self, "lengths", np.atleast_1d(np.asarray(self.lengths, dtype=float)))
        if self.lengths.size != self.masses.size + 1:
            raise InvalidInputError("need len(lengths) = len(masses) + 1")
        if np.any(self.masses <= 0) or np.any(self.lengths <= 0):
            raise InvalidInputError("masses and lengths must be positive")

    @staticmethod
    def uniform(N: int) -> "StringSpec":
        """Unit string split into N equal weightless pieces with equal masses."""
        return StringSpec(masses=np.full(N - 1, 1.0 / N), lengths=np.full(N, 1.0 / N))


@dataclass(frozen=True)
class ResponseFunctionSamples:
    """Samples of r(t) = sum_k (1/omega_k) S_k(t), plus the generating data."""

    values: np.ndarray
    grid: TimeGrid
    lambdas: np.ndarray
    weights: np.ndarray  # 1/omega_k


@dataclass(frozen=True)
class Trajectory:
    """State and velocity samples; u[j] is the state at t_j."""

    u: np.ndarray
    udot: np.ndarray
    grid: TimeGrid


def wave_kernel(lam: float, tau: np.ndarray, derivative: bool = False) -> np.ndarray:
    """S(tau, lambda), or its time derivative S'(tau, lambda)."""
    tau = np.asarray(tau, dtype=float)
    if lam > 0:
        rt = np.sqrt(lam)
        return np.cos(rt * tau) if derivative else np.sin(rt * tau) / rt
    if lam < 0:
        rt = np.sqrt(-lam)
        return np.cosh(rt * tau) if derivative else np.sinh(rt * tau) / rt
    return np.ones_like(tau) if derivative else tau.copy()


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


def _simpson_convolution(f: np.ndarray, k: np.ndarray, dt: float) -> np.ndarray:
    """c_j = int_0^{t_j} f(tau) k(t_j - tau) dtau by `_simpson_weights(j, dt)`
    for every j: one direct (not FFT, so each entry rounds like one dot
    product) convolution with the interior pattern dt/3 (1, 4, 2, 4, ...),
    then a patch of the last one (even j) or two (odd j) weights of row j."""
    n = f.size
    p = _simpson_weights(2 * n, dt)[:n]  # the rule's interior pattern
    c = np.convolve(p * f, k)[:n]
    fk0 = f * k[0]
    c[2::2] -= (dt / 3.0) * fk0[2::2]
    c[1::2] += (dt / 6.0) * f[0:-1:2] * k[1] - (5.0 * dt / 6.0) * fk0[1::2]
    c[0] = 0.0
    return c


def solve_second_order(spec: JacobiSpec, f, grid: TimeGrid) -> Trajectory:
    """Spectral solution u(t) = sum_k h_k(t) phi^k of u_tt = -A u + f(t) e_1.

    h_k(t) = (1/omega_k) int_0^t f(tau) S_k(t - tau) dtau, with the
    convolution done by composite Simpson on the grid.  Velocities come from
    the analytically differentiated kernel.
    """
    f = np.asarray(f, dtype=float)
    if f.size != grid.M + 1:
        raise InvalidInputError("control must be sampled on the grid")
    data = eig_spectral_data(spec)
    h, hdot = (
        np.array([_simpson_convolution(f, wave_kernel(lk, grid.nodes, derivative=d), grid.dt)
                  for lk in data.eigenvalues]) / data.omegas[:, None]
        for d in (False, True)
    )
    return Trajectory(u=(data.phi_vectors @ h).T, udot=(data.phi_vectors @ hdot).T, grid=grid)


def response_function(spec: JacobiSpec, grid: TimeGrid) -> ResponseFunctionSamples:
    """Samples of r(t) = sum_k (1/omega_k) S_k(t) on the grid."""
    data = eig_spectral_data(spec)
    w = 1.0 / data.omegas
    t = grid.nodes
    vals = sum(wk * wave_kernel(lk, t) for lk, wk in zip(data.eigenvalues, w))
    return ResponseFunctionSamples(values=vals, grid=grid, lambdas=data.eigenvalues, weights=w)


def connecting_dynamic(r: ResponseFunctionSamples, grid: TimeGrid) -> np.ndarray:
    """Kernel matrix K(t_i, s_j) = 1/2 int_{|t-s|}^{2T-s-t} r(tau) dtau.

    r must be sampled on [0, 2T] with the same spacing as `grid` (the inner
    integral reaches 2T - s - t); the antiderivative is taken by cumulative
    trapezoid, giving an O(dt^2) kernel.  The operator action is
    (C f)(t_i) = sum_j K[i, j] w_j f(s_j) with trapezoid weights w.
    """
    if r.grid.M != 2 * grid.M or abs(r.grid.T - 2.0 * grid.T) > 1e-12 * grid.T:
        raise InvalidInputError("response must be sampled on [0, 2T] with the grid spacing")
    P = np.concatenate([[0.0], np.cumsum(0.5 * grid.dt * (r.values[1:] + r.values[:-1]))])
    return _kernel_matrix(P, grid.M)


def _kernel_matrix(P: np.ndarray, M: int) -> np.ndarray:
    """K[i, j] = 1/2 (P[2M - i - j] - P[|i - j|]) for i, j = 0..M, from the
    antiderivative P of r sampled at t_0..t_2M: a Hankel minus a Toeplitz."""
    K = hankel(P[2 * M : M - 1 : -1], P[M::-1])  # column P[2M - i], last row P[M - j]
    K -= toeplitz(P[: M + 1])
    K *= 0.5
    return K


def connecting_spectral(spec: JacobiSpec, grid: TimeGrid) -> np.ndarray:
    """Rank-N kernel sum_k (1/omega_k) S_k(T-t) S_k(T-s), assembled exactly."""
    data = eig_spectral_data(spec)
    ST = np.array([wave_kernel(lk, grid.T - grid.nodes) for lk in data.eigenvalues])
    return (ST / data.omegas[:, None]).T @ ST


def recover_matrix_continuous(r: ResponseFunctionSamples, N: int, grid: TimeGrid) -> tuple:
    """Recover the N x N block and the special controls f_1..f_N from r on [0, 2T].

    The connecting operator is restricted to its numerical range by the top N
    eigenpairs of the symmetric kernel sqrt(w) K sqrt(w), computed alone;
    eigenvalue N must clear the noise floor, else NotRealizableError names
    the numerical rank counted against it.  The floor is the larger of 1e-8
    times the largest eigenvalue and T times the Richardson estimate
    max|P_dt - P_2dt| / 15 of the Simpson antiderivative's error, read off
    the samples alone.  The first control solves (C f_1)(t) = r(T - t),
    and the recursion

        b_n = -((C f_n)'', f_n),   a_n C f_{n+1} = -(C f_n)'' - b_n C f_n - a_{n-1} C f_{n-1}

    walks down the block.  C f_n is expanded over the S_k(T - .) basis carried
    by the response samples, so its second derivative is analytic
    (S'' = -lambda S).

    Returns (spec, controls) with controls[n] the recovered f_{n+1} samples.
    """
    if N < 1:
        raise InvalidInputError(f"need N >= 1, got {N}")
    if r.grid.M != 2 * grid.M or abs(r.grid.T - 2.0 * grid.T) > 1e-12 * grid.T:
        raise InvalidInputError("response must be sampled on [0, 2T] with the grid spacing")
    M = grid.M
    # fourth-order antiderivative and quadrature weights: the recovery divides
    # by eigenvalue N of the kernel, so the O(dt^2) trapezoid budget of
    # connecting_dynamic would be amplified past the coefficient tolerance
    P = np.concatenate([[0.0], cumulative_simpson(r.values, dx=grid.dt)])
    w = grid.simpson_weights
    sw = np.sqrt(w)
    B = _kernel_matrix(P, M)
    B *= sw[:, None]
    B *= sw[None, :]
    if N <= M + 1:
        sig, U = eigh(B, subset_by_index=[M + 1 - N, M])
        sig, U = sig[::-1], U[:, ::-1]
    # Richardson estimate of the Simpson antiderivative's error (step 2 dt
    # against dt, order 4), which bounds the kernel perturbation's norm by T times it
    P2 = np.concatenate([[0.0], cumulative_simpson(r.values[::2], dx=2.0 * grid.dt)])
    noise = grid.T * float(np.max(np.abs(P[::2] - P2))) / 15.0
    if N > M + 1 or sig[N - 1] <= max(1e-8 * sig[0], noise):
        # singular values are the |eigenvalues|: count them as a full SVD would
        sv = np.abs(eigvalsh(B))
        rank = int(np.sum(sv > max(1e-8 * sv.max(), noise)))
        raise NotRealizableError(
            f"mode {N} of the connecting operator sits at the noise floor "
            f"(numerical rank {rank}): the data does not support rank {N}"
        )

    def c_solve(y):
        z = U.T @ (sw * y)
        return (U @ (z / sig)) / sw

    def quad(x, y):
        return float(np.sum(w * x * y))

    lam = r.lambdas
    S_basis = np.array([wave_kernel(lk, grid.T - grid.nodes) for lk in lam])
    r_rev = r.values[M::-1]  # r(T - t_i)

    f = [None] * (N + 1)
    f[1] = c_solve(r_rev)
    a_rec = np.zeros(max(N - 1, 0))
    b_rec = np.zeros(N)
    g_prev = None
    for n in range(1, N + 1):
        coeff = (S_basis * w[None, :]) @ f[n] * r.weights
        g = S_basis.T @ coeff
        g_dd = S_basis.T @ (-lam * coeff)
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
    spec = JacobiSpec(a0=1.0, a=a_rec, b=b_rec) if N > 1 else JacobiSpec(a0=1.0, a=[], b=b_rec)
    return spec, f[1:]


def string_system(s: StringSpec) -> dict:
    """Mass and stiffness matrices of the string, and the symmetrized block.

    The vector system is M u_tt = -A u + (f/l_1) e_1 with a_i = 1/l_{i+1} and
    b_i = -(l_i + l_{i+1})/(l_i l_{i+1}) (A is negative definite).  The
    symmetrization L = M^{-1/2} (-A) M^{-1/2} is positive definite; an
    alternating sign conjugation makes its off-diagonals positive, which is
    the returned Jacobi block (first components are unaffected).  The control
    enters channel 1 of the symmetrized system with gain 1/(l_1 sqrt(m_1)).
    """
    m, l = s.masses, s.lengths
    N1 = m.size  # number of interior masses
    a = 1.0 / l[1:N1]
    b = -(l[:N1] + l[1 : N1 + 1]) / (l[:N1] * l[1 : N1 + 1])
    A = np.diag(b)
    if N1 > 1:
        A += np.diag(a, 1) + np.diag(a, -1)
    Mmat = np.diag(m)
    inv_sqrt_m = 1.0 / np.sqrt(m)
    L = inv_sqrt_m[:, None] * (-A) * inv_sqrt_m[None, :]
    spec = JacobiSpec(
        a0=1.0,
        a=-np.diag(L, 1) if N1 > 1 else [],
        b=np.diag(L),
    )
    return {
        "mass": Mmat,
        "stiffness": A,
        "spec": spec,
        "gain": 1.0 / (l[0] * np.sqrt(m[0])),
        "inv_sqrt_m": inv_sqrt_m,
    }


def triangular_bump(grid: TimeGrid, width: float | None = None) -> np.ndarray:
    """Unit-integral triangular bump starting at t = 0 (default width 16 dt).

    The bump has support [0, width] with peak 2/width at width/2, which
    approximates a delta control on the grid scale.
    """
    t = grid.nodes
    if width is None:
        width = 16.0 * grid.dt
    peak = 2.0 / width
    half = width / 2.0
    vals = np.where(t <= half, t * peak / half, np.where(t <= width, (width - t) * peak / half, 0.0))
    return np.clip(vals, 0.0, None)


def gauss_test_function(center: float, sigma: float):
    """Unit-mass Gaussian test function psi and its derivative."""
    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))

    def psi(x):
        x = np.asarray(x, dtype=float)
        return norm * np.exp(-0.5 * ((x - center) / sigma) ** 2)

    def dpsi(x):
        x = np.asarray(x, dtype=float)
        return psi(x) * (-(x - center) / sigma**2)

    return psi, dpsi


def poly_bump_test_function(center: float, width: float):
    """Compactly supported C^2 polynomial bump (1 - y^2)^3 on |y| <= 1, unit mass."""
    norm = 35.0 / (32.0 * width)  # int (1 - y^2)^3 dy = 32/35

    def psi(x):
        y = (np.asarray(x, dtype=float) - center) / width
        return np.where(np.abs(y) < 1.0, norm * (1.0 - y**2) ** 3, 0.0)

    def dpsi(x):
        y = (np.asarray(x, dtype=float) - center) / width
        return np.where(np.abs(y) < 1.0, norm * (-6.0 * y) * (1.0 - y**2) ** 2 / width, 0.0)

    return psi, dpsi


def psi_preset(kind: str, **params):
    """Named presets for pairing experiments: gauss(center, sigma) or
    poly-bump(center, width)."""
    if kind == "gauss":
        return gauss_test_function(params.get("center", 0.45), params.get("sigma", 0.1))
    if kind == "poly-bump":
        return poly_bump_test_function(params.get("center", 0.45), params.get("width", 0.3))
    raise InvalidInputError(f"unknown test function preset {kind!r}")


def corrected_response(N: int, grid: TimeGrid, psi=None, field_time: float | None = None) -> dict:
    """Uniform-string delta-approximation experiment.

    Drives the uniform N-piece string with a narrow triangular bump of unit
    integral and returns the raw response u_1(t), the corrected response
    r~_N = (u_1 - u_0) / (1/N), and quadrature pairings against the test
    function psi(t): <u_1, psi> (tends to psi(0)), <r~_N, psi> (tends to
    psi'(0)), plus the field pairing int u(x, t*) psi(x) dx at t* =
    field_time (tends to psi(t*)).  Trends over an N-ladder are the caller's
    business; nothing here is a certified limit.
    """
    if psi is None:
        psi, _ = gauss_test_function(0.45, 0.1)
    sysd = string_system(StringSpec.uniform(N))
    spec = sysd["spec"]
    data = eig_spectral_data(spec)
    lam, om = data.eigenvalues, data.omegas
    f = triangular_bump(grid)
    t = grid.nodes
    w = grid.trapezoid_weights
    # u_1(t) = sqrt(N) * w_1(t); control gain in the symmetrized system
    kern = sum((1.0 / ok) * wave_kernel(lk, t) for lk, ok in zip(lam, om))
    conv = _simpson_convolution(f, kern, grid.dt)
    u1 = np.sqrt(N) * sysd["gain"] * conv
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
        j_star = min(max(j_star, 0), grid.M)
        # all channels at t*: u = M^{-1/2} D w; D is the sign conjugation
        wf = _simpson_weights(j_star, grid.dt) * f[: j_star + 1]
        tau = t[j_star] - t[: j_star + 1]
        h_star = np.array([wave_kernel(lk, tau) @ wf for lk in lam]) / om
        signs = (-1.0) ** np.arange(lam.size)  # undo the conjugation, channel 1 positive
        w_state = data.phi_vectors @ h_star * sysd["gain"]
        u_state = np.sqrt(N) * signs * w_state
        # piecewise-affine field through (x_i, u_i), x_i = i/N, clamped at x = 1
        xs = np.arange(N + 1) / N
        field_vals = np.concatenate([[u0[j_star]], u_state, [0.0]])
        pair_field = float(np.trapezoid(field_vals * psi(xs), xs))
        out["pair_field"] = pair_field
        out["field_values"] = field_vals
        out["field_x"] = xs
    return out
