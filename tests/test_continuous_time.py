import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from bcjacobi.continuous_time import (
    ResponseFunctionSamples,
    StringSpec,
    TimeGrid,
    _derivative,
    _GridKernels,
    _kernel_apply,
    _kernel_matrix,
    _simpson_convolution,
    connecting_dynamic,
    connecting_spectral,
    corrected_response,
    gauss_test_function,
    recover_matrix_continuous,
    response_function,
    solve_second_order,
    string_system,
    triangular_bump,
    wave_kernel,
)
from bcjacobi.core import JacobiSpec, eig_spectral_data, random_spec
from bcjacobi.errors import InvalidInputError, NotRealizableError

EPS = np.finfo(float).eps


def string_family(N, rng):
    masses = rng.uniform(0.7, 1.3, N) / (N + 1)
    lengths = rng.uniform(0.7, 1.3, N + 1) / (N + 1)
    return string_system(StringSpec(masses=masses, lengths=lengths))["spec"]


def test_wave_kernel_branches():
    tau = np.array([0.0, 0.5, 1.0])
    assert np.allclose(wave_kernel(4.0, tau), np.sin(2 * tau) / 2)
    assert np.allclose(wave_kernel(-4.0, tau), np.sinh(2 * tau) / 2)
    assert np.allclose(wave_kernel(0.0, tau), tau)


def _kernel_per_mode(lk, tau, derivative):
    """The per-mode formulas S(tau, lk) and S'(tau, lk) for one eigenvalue."""
    if lk > 0:
        rt = np.sqrt(lk)
        return np.cos(rt * tau) if derivative else np.sin(rt * tau) / rt
    if lk < 0:
        rt = np.sqrt(-lk)
        return np.cosh(rt * tau) if derivative else np.sinh(rt * tau) / rt
    return np.ones_like(tau) if derivative else tau.copy()


def test_wave_kernel_array_bit_identical_to_per_mode():
    rng = np.random.default_rng(59)
    lam = np.array([-9.0, -1e-3, 0.0, 0.3, 4.0, 2500.0, -2500.0 / 49])
    for tau in (np.linspace(0.0, 2.0, 41), np.array(0.7), rng.uniform(0.0, 3.0, (3, 5))):
        for d in (False, True):
            K = wave_kernel(lam, tau, d)
            assert K.shape == tau.shape + lam.shape
            for k, lk in enumerate(lam):
                ref = _kernel_per_mode(lk, tau, d)
                assert np.array_equal(K[..., k], ref)
                assert np.array_equal(wave_kernel(lk, tau, d), ref)
            assert np.array_equal(wave_kernel(lam.reshape(7, 1), tau, d), K.reshape(tau.shape + (7, 1)))


@pytest.mark.parametrize("n", [1, 2, 7, 81, 6401])
def test_grid_kernels_match_mpmath(n):
    mpmath = pytest.importorskip("mpmath")
    # sinh, t and sin modes; the sin modes reach sqrt(lam) t = 50
    lam = np.array([-9.7, -1.0, 0.0, 0.3, 4.0, 123.4, 2499.0])
    w = np.array([0.5, -1.25, 2.0, 1.0, -0.75, 3.0, 40.0])
    dt = 1.0 / max(n - 1, 1)
    kernels = _GridKernels(lam, dt, n)
    j = np.unique(np.r_[np.arange(0, n, max(1, n // 200)), n - 1])  # every node up to n = 399
    g = np.zeros(n)
    g[j] = np.random.default_rng(58).standard_normal(j.size)
    with mpmath.workdps(50):
        def S(lk, jj):
            t, lk = mpmath.mpf(int(jj)) * mpmath.mpf(dt), mpmath.mpf(float(lk))
            if lk == 0:
                return t
            rt = mpmath.sqrt(abs(lk))
            return (mpmath.sin(rt * t) if lk > 0 else mpmath.sinh(rt * t)) / rt

        exact = [[S(lk, jj) for lk in lam] for jj in j]
        r_ref = np.array([float(mpmath.fsum(mpmath.mpf(wk) * s for wk, s in zip(w, row))) for row in exact])
        h_ref = np.array([float(mpmath.fsum(mpmath.mpf(g[jj]) * row[k] for jj, row in zip(j, exact)))
                          for k in range(lam.size)])
    # per node and mode: the rounding of S(a B dt) C(b dt) + C(a B dt) S(b dt),
    # plus t |C(t)| for the rounding of sqrt(lam), which moves the argument
    # sqrt(lam) t in any float evaluation of the kernel
    B = kernels.Sb.shape[0]
    a, b = divmod(j, B)
    scale = (np.abs(kernels.Sa[a] * kernels.Cb[b]) + np.abs(kernels.Ca[a] * kernels.Sb[b])
             + (j * dt)[:, None] * np.abs(wave_kernel(lam, j * dt, derivative=True)))
    r = kernels.sum_modes(w)
    assert r.shape == (n,) and r[0] == 0.0
    assert np.all(np.abs(r[j] - r_ref) <= 4 * EPS * (scale @ np.abs(w)))
    assert np.all(np.abs(kernels.sum_times(g) - h_ref) <= 4 * EPS * (np.abs(g[j]) @ scale))


def test_solve_single_mode_forced():
    # lambda = 1, omega = 1, f = 1: u(t) = 1 - cos t
    spec = JacobiSpec(a0=1.0, a=[], b=[1.0])
    grid = TimeGrid(3.0, 300)
    traj = solve_second_order(spec, np.ones(grid.M + 1), grid)
    expect = 1.0 - np.cos(grid.nodes)
    assert np.max(np.abs(traj.u[:, 0] - expect)) <= 1e-8


def test_solve_zero_mode():
    # lambda = 0: kernel S = t, u = t^2/2 for f = 1
    spec_free_mode = JacobiSpec(a0=1.0, a=[], b=[1e-300])  # b must be nonzero? zero is fine
    grid = TimeGrid(2.0, 200)
    traj = solve_second_order(JacobiSpec(a0=1.0, a=[], b=[0.0]), np.ones(grid.M + 1), grid)
    assert np.max(np.abs(traj.u[:, 0] - grid.nodes**2 / 2)) <= 1e-8


def test_solve_zero_control():
    spec = random_spec(3, np.random.default_rng(50))
    grid = TimeGrid(1.0, 60)
    traj = solve_second_order(spec, np.zeros(grid.M + 1), grid)
    assert np.all(traj.u == 0.0)


def test_energy_conservation_after_control_stops():
    rng = np.random.default_rng(51)
    spec = string_family(4, rng)
    grid = TimeGrid(2.0, 1200)
    f = triangular_bump(grid, width=0.25)  # supported in [0, 0.25]
    traj = solve_second_order(spec, f, grid)
    A = spec.matrix()
    j0 = int(0.3 / grid.dt)
    energies = [
        float(traj.udot[j] @ traj.udot[j] + traj.u[j] @ A @ traj.u[j])
        for j in range(j0, grid.M + 1, 50)
    ]
    e0 = energies[0]
    assert all(abs(e - e0) <= 1e-8 * max(1, abs(e0)) for e in energies)


def test_response_function_single_mode():
    spec = JacobiSpec(a0=1.0, a=[], b=[4.0])
    grid = TimeGrid(2.0, 100)
    r = response_function(spec, grid)
    assert np.allclose(r.values, np.sin(2 * grid.nodes) / 2, atol=1e-12)
    assert r.values[0] == 0.0


def test_response_function_two_modes():
    spec = JacobiSpec(a0=1.0, a=[1.0], b=[0.0, 0.0])  # lambda = -1, +1; weights 1/2
    grid = TimeGrid(1.5, 90)
    r = response_function(spec, grid)
    t = grid.nodes
    assert np.allclose(r.values, 0.5 * (np.sin(t) + np.sinh(t)), atol=1e-12)


def test_connecting_kernels_agree_and_converge():
    rng = np.random.default_rng(52)
    spec = random_spec(3, rng)
    errs = []
    for M in (80, 160, 320):
        grid = TimeGrid(1.0, M)
        r = response_function(spec, grid.doubled())
        errs.append(np.max(np.abs(connecting_dynamic(r, grid) - connecting_spectral(spec, grid))))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.5)


def test_connecting_dynamic_zero_response():
    grid = TimeGrid(1.0, 40)
    zero = ResponseFunctionSamples(values=np.zeros(2 * grid.M + 1), grid=grid.doubled())
    assert np.all(connecting_dynamic(zero, grid) == 0.0)


def test_connecting_single_mode_outer_product():
    spec = JacobiSpec(a0=1.0, a=[], b=[2.25])
    grid = TimeGrid(1.0, 400)
    r = response_function(spec, grid.doubled())
    K_dyn = connecting_dynamic(r, grid)
    K_spec = connecting_spectral(spec, grid)
    S = wave_kernel(2.25, grid.T - grid.nodes)
    outer = np.outer(S, S)  # omega_1 = 1
    assert np.max(np.abs(K_spec - outer)) <= 1e-14
    assert np.max(np.abs(K_dyn - outer)) <= 1e-4  # quadrature-limited


def test_connecting_spectral_rank_and_symmetry():
    rng = np.random.default_rng(53)
    spec = random_spec(4, rng)
    grid = TimeGrid(1.0, 200)
    K = connecting_spectral(spec, grid)
    assert np.max(np.abs(K - K.T)) <= 1e-13
    sv = np.linalg.svd(K, compute_uv=False)
    assert sv[4] <= 1e-12 * sv[0]  # rank <= N = 4


def test_recover_single_site():
    spec = JacobiSpec(a0=1.0, a=[], b=[1.44])
    grid = TimeGrid(2.0, 400)
    r = response_function(spec, grid.doubled())
    rec, controls = recover_matrix_continuous(r, 1, grid)
    assert rec.b[0] == pytest.approx(1.44, abs=1e-6)


def test_recover_roundtrip_strings():
    rng = np.random.default_rng(54)
    for N in (2, 4, 6):
        spec = string_family(N, rng)
        grid = TimeGrid(2.0, 800)
        r = response_function(spec, grid.doubled())
        rec, controls = recover_matrix_continuous(r, N, grid)
        assert np.max(np.abs(rec.b - spec.b)) <= 1e-3
        if N > 1:
            assert np.max(np.abs(rec.a - spec.a)) <= 1e-3


def test_recovered_controls_orthonormal():
    rng = np.random.default_rng(55)
    N = 4
    spec = string_family(N, rng)
    grid = TimeGrid(2.0, 800)
    r = response_function(spec, grid.doubled())
    rec, controls = recover_matrix_continuous(r, N, grid)
    K = connecting_spectral(spec, grid)
    w = grid.simpson_weights
    G = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            G[i, j] = float(np.sum(w * controls[i] * (K @ (w * controls[j]))))
    assert np.max(np.abs(G - np.eye(N))) <= 1e-6


def test_infinite_speed():
    # the far channel responds at the first grid node after the control starts
    rng = np.random.default_rng(56)
    spec = string_family(5, rng)
    grid = TimeGrid(1.0, 500)
    f = np.zeros(grid.M + 1)
    f[: 40] = triangular_bump(grid, width=0.08)[:40]
    traj = solve_second_order(spec, f, grid)
    early = np.abs(traj.u[1:30, -1])  # last channel, early times
    assert np.any(early > 1e-18)


def test_string_system_uniform():
    N = 5
    sysd = string_system(StringSpec.uniform(N))
    assert np.allclose(sysd["mass"], np.eye(N - 1) / N)
    A_expect = N * (np.diag(-2.0 * np.ones(N - 1)) + np.diag(np.ones(N - 2), 1) + np.diag(np.ones(N - 2), -1))
    assert np.allclose(sysd["stiffness"], A_expect)
    lam = eig_spectral_data(sysd["spec"]).eigenvalues
    k = np.arange(1, N)
    expect = 4 * N * N * np.sin(k * np.pi / (2 * N)) ** 2
    assert np.allclose(np.sort(lam), np.sort(expect), rtol=1e-10)


@pytest.mark.parametrize("T", [1e16, 1e200, 1e302])
def test_response_function_stays_bounded_where_float_loses_the_period(T):
    # past ~1e15 radians a float64 node no longer resolves a period, and past
    # ~1e300 Veltkamp's split overflows: those nodes keep the per-mode value
    spec = string_family(3, np.random.default_rng(70))
    data = eig_spectral_data(spec)
    r = response_function(spec, TimeGrid(T, 4))
    assert np.all(np.abs(r.values) <= 1.01 * np.sum(1.0 / (data.omegas * np.sqrt(data.eigenvalues))))


def test_string_system_block_bit_identical_to_dense_symmetrization():
    rng = np.random.default_rng(57)
    for n_masses in (1, 2, 3, 50):
        m, l = rng.uniform(0.5, 2.0, n_masses), rng.uniform(0.5, 2.0, n_masses + 1)
        sysd = string_system(StringSpec(masses=m, lengths=l))
        ism = 1.0 / np.sqrt(m)
        L = ism[:, None] * (-sysd["stiffness"]) * ism[None, :]
        assert np.array_equal(sysd["spec"].b, np.diag(L))
        assert np.array_equal(sysd["spec"].a, -np.diag(L, 1))
        assert np.array_equal(sysd["mass"], np.diag(m))


def test_string_system_scalar():
    sysd = string_system(StringSpec(masses=[2.0], lengths=[0.5, 0.5]))
    assert sysd["spec"].n == 1
    assert sysd["stiffness"].shape == (1, 1)


def test_corrected_response_pairing_trends():
    psi, dpsi = gauss_test_function(0.45, 0.1)
    errs_raw, errs_corr = [], []
    for N in (25, 50, 100):
        grid = TimeGrid(1.0, 1000)
        out = corrected_response(N, grid, psi=psi, field_time=0.5)
        errs_raw.append(abs(out["pair_raw"] - psi(0.0)))
        errs_corr.append(abs(out["pair_corrected"] - dpsi(0.0)))
    assert errs_raw[0] > errs_raw[1] > errs_raw[2]
    assert errs_corr[0] > errs_corr[1] > errs_corr[2]


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1)
    with pytest.raises(InvalidInputError, match="M must be an integer"):
        TimeGrid(1.0, 2.5).nodes
    with pytest.raises(ValueError):
        StringSpec(masses=[1.0], lengths=[1.0])  # wrong lengths


def test_poly_bump_preset():
    from bcjacobi.continuous_time import poly_bump_test_function, psi_preset

    psi, dpsi = poly_bump_test_function(0.5, 0.3)
    x = np.linspace(-0.2, 1.2, 2001)
    mass = np.trapezoid(psi(x), x)
    assert mass == pytest.approx(1.0, abs=1e-6)
    assert psi(0.85) == 0.0 and psi(0.15) == 0.0  # compact support
    h = 1e-6
    assert dpsi(0.6) == pytest.approx((psi(0.6 + h) - psi(0.6 - h)) / (2 * h), rel=1e-5)
    with pytest.raises(ValueError):
        psi_preset("nope")


def test_recovery_improves_with_grid():
    rng = np.random.default_rng(57)
    N = 4
    spec = string_family(N, rng)
    errs = []
    for M in (200, 800):
        grid = TimeGrid(2.0, M)
        r = response_function(spec, grid.doubled())
        rec, _ = recover_matrix_continuous(r, N, grid)
        errs.append(max(np.max(np.abs(rec.a - spec.a)), np.max(np.abs(rec.b - spec.b))))
    assert errs[1] < errs[0]


def test_dynamic_kernel_rank_characterization():
    rng = np.random.default_rng(58)
    N = 4
    spec = string_family(N, rng)
    grid = TimeGrid(2.0, 400)
    r = response_function(spec, grid.doubled())
    K = connecting_dynamic(r, grid)
    w = grid.trapezoid_weights
    sw = np.sqrt(w)
    sv = np.linalg.svd(sw[:, None] * K * sw[None, :], compute_uv=False)
    # numerical rank N at the 1e-8 threshold, and the restriction to the
    # range is well-conditioned
    assert sv[N - 1] > 1e-8 * sv[0] >= sv[N] / 10
    assert sv[0] / sv[N - 1] < 1e8


# ---------------------------------------------------------------- oracles
# The per-row Simpson loop and the full-SVD recovery that the convolution and
# the top-N eigensolve replaced, kept as references.


def _simpson_rows_reference(M, dt):
    """Quadrature weights over t_0..t_j for each j; composite Simpson with a
    trapezoid patch on the last interval when j is odd."""
    rows = [np.zeros(1)]
    for j in range(1, M + 1):
        w = np.zeros(j + 1)
        n_simp = j if j % 2 == 0 else j - 1
        if n_simp >= 2:
            w[0] += dt / 3.0
            w[n_simp] += dt / 3.0
            w[1:n_simp:2] += 4.0 * dt / 3.0
            w[2:n_simp:2] += 2.0 * dt / 3.0
        if n_simp < j:
            w[-2] += 0.5 * dt
            w[-1] += 0.5 * dt
        rows.append(w)
    return rows


def _convolution_reference(f, k, dt):
    """c_j = rows[j] @ (f[:j+1] * k[j::-1]), one dot product per node.  With
    |f| and |k| it returns sum |terms|, the scale of each entry's rounding."""
    rows = _simpson_rows_reference(f.size - 1, dt)
    c = np.zeros(f.size)
    for j in range(1, f.size):
        c[j] = rows[j] @ (f[: j + 1] * k[j::-1])
    return c


def _solve_reference(spec, f, grid, absolute=False):
    """u of solve_second_order by the per-row loop (or its rounding scale)."""
    data = eig_spectral_data(spec)
    mag = np.abs if absolute else (lambda x: x)
    h = np.array([
        _convolution_reference(mag(f), mag(wave_kernel(lk, grid.nodes)), grid.dt)
        for lk in data.eigenvalues
    ]) / mag(data.omegas)[:, None]
    return (mag(data.phi_vectors) @ h).T


def _kernel_meshgrid(P, M):
    i = np.arange(M + 1)
    I, J = np.meshgrid(i, i, indexing="ij")
    return 0.5 * (P[2 * M - I - J] - P[np.abs(I - J)])


def _weighted_kernel_svd(r, grid):
    P = np.concatenate([[0.0], cumulative_simpson(r.values, dx=grid.dt)])
    K = _kernel_meshgrid(P, grid.M)
    w = grid.simpson_weights
    sw = np.sqrt(w)
    U, sv, _ = np.linalg.svd(sw[:, None] * K * sw[None, :])
    return U, sv, w, sw


def _recover_svd_reference(r, N, grid):
    """recover_matrix_continuous with the full dense SVD of the kernel and
    dense kernel products: C f = K_P (w f) and (C f)'' = K_{r'} (w f)."""
    M = grid.M
    U, sv, w, sw = _weighted_kernel_svd(r, grid)
    assert sv[N - 1] > 1e-8 * sv[0]

    def c_solve(y):
        z = U[:, :N].T @ (sw * y)
        return (U[:, :N] @ (z / sv[:N])) / sw

    P = np.concatenate([[0.0], cumulative_simpson(r.values, dx=grid.dt)])
    K, K_dd = _kernel_meshgrid(P, M), _kernel_meshgrid(_derivative(r.values, grid.dt), M)
    f = c_solve(r.values[M::-1])
    a, b = np.zeros(N - 1), np.zeros(N)
    g_prev = None
    for n in range(1, N + 1):
        g = K @ (w * f)
        g_dd = K_dd @ (w * f)
        b[n - 1] = -np.sum(w * g_dd * f)
        if n < N:
            h = -g_dd - b[n - 1] * g
            if n >= 2:
                h = h - a[n - 2] * g_prev
            v = c_solve(h)
            a[n - 1] = np.sqrt(np.sum(w * h * v))
            f = v / a[n - 1]
        g_prev = g
    return a, b


def test_simpson_convolution_matches_row_loop():
    rng = np.random.default_rng(60)
    for M in range(2, 42):
        f, k = rng.standard_normal((2, M + 1))
        dt = rng.uniform(0.01, 1.0)
        c = _simpson_convolution(f, k, dt)
        ref = _convolution_reference(f, k, dt)
        scale = _convolution_reference(np.abs(f), np.abs(k), dt)
        assert c[0] == 0.0
        assert np.all(np.abs(c - ref) <= 8 * M * EPS * scale), M


def test_kernel_matrix_bit_identical_to_meshgrid():
    rng = np.random.default_rng(61)
    for M in (2, 3, 10, 41):
        P = rng.standard_normal(2 * M + 1)
        assert np.array_equal(_kernel_matrix(P, M), _kernel_meshgrid(P, M))
    spec = random_spec(3, rng)
    grid = TimeGrid(1.0, 40)
    r = response_function(spec, grid.doubled())
    P = np.concatenate([[0.0], np.cumsum(0.5 * grid.dt * (r.values[1:] + r.values[:-1]))])
    assert np.array_equal(connecting_dynamic(r, grid), _kernel_meshgrid(P, grid.M))


def test_solve_second_order_matches_row_loop():
    rng = np.random.default_rng(62)
    for M in (40, 41, 400):
        spec = string_family(4, rng)
        grid = TimeGrid(2.0, M)
        f = triangular_bump(grid, width=0.3) + rng.uniform(-0.1, 0.1, M + 1)
        u = solve_second_order(spec, f, grid).u
        ref = _solve_reference(spec, f, grid)
        scale = _solve_reference(spec, f, grid, absolute=True)
        assert np.all(np.abs(u - ref) <= 8 * M * EPS * scale)


def test_corrected_response_matches_row_loop():
    psi, _ = gauss_test_function(0.45, 0.1)
    for N, M, t_star in ((10, 80, 0.5), (25, 201, 0.37), (200, 1600, 0.5)):
        grid = TimeGrid(1.0, M)
        out = corrected_response(N, grid, psi=psi, field_time=t_star)
        sysd = string_system(StringSpec.uniform(N))
        data = eig_spectral_data(sysd["spec"])
        lam, om = data.eigenvalues, data.omegas
        f, t = triangular_bump(grid), grid.nodes
        kern = sum((1.0 / ok) * wave_kernel(lk, t) for lk, ok in zip(lam, om))
        gain = np.sqrt(N) * sysd["gain"]
        u1 = gain * _convolution_reference(f, kern, grid.dt)
        scale = gain * _convolution_reference(f, np.abs(kern), grid.dt)
        assert np.all(np.abs(out["u1"] - u1) <= 8 * M * EPS * scale)
        j = int(round(t_star / grid.dt))
        row = _simpson_rows_reference(M, grid.dt)[j]
        terms = np.array([row * f[: j + 1] * wave_kernel(lk, t[j] - t[: j + 1]) for lk in lam]) / om[:, None]
        signs = (-1.0) ** np.arange(lam.size)
        u_state = gain * signs * (data.phi_vectors @ terms.sum(axis=1))
        bound = gain * (np.abs(data.phi_vectors) @ np.abs(terms).sum(axis=1))
        assert np.all(np.abs(out["field_values"][1:-1] - u_state) <= 8 * M * EPS * bound)


def test_recover_matches_full_svd():
    rng = np.random.default_rng(63)
    grid = TimeGrid(2.0, 400)
    for N in (2, 4, 6):
        spec = string_family(N, rng)
        r = response_function(spec, grid.doubled())
        rec, _ = recover_matrix_continuous(r, N, grid)
        a, b = _recover_svd_reference(r, N, grid)
        assert np.max(np.abs(rec.b - b)) <= 1e-9
        assert np.max(np.abs(rec.a - a), initial=0.0) <= 1e-9


def test_recover_above_rank_names_svd_rank():
    rng = np.random.default_rng(64)
    spec = string_family(3, rng)
    grid = TimeGrid(2.0, 200)
    r = response_function(spec, grid.doubled())
    _, sv, _, _ = _weighted_kernel_svd(r, grid)
    P = np.concatenate([[0.0], cumulative_simpson(r.values, dx=grid.dt)])
    P2 = np.concatenate([[0.0], cumulative_simpson(r.values[::2], dx=2 * grid.dt)])
    floor = max(1e-8 * sv[0], grid.T * np.max(np.abs(P[::2] - P2)) / 15)
    rank = int(np.sum(sv > floor))
    N = rank + 1
    with pytest.raises(NotRealizableError, match=f"numerical rank {rank}\\)"):
        recover_matrix_continuous(r, N, grid)


@pytest.mark.parametrize("N", [4, 5, 6])
def test_recover_refuses_quadrature_noise_modes(N):
    # modes 4-6 of this 3-site string are Simpson-error eigenvalues just above
    # 1e-8 of the largest; the floor tied to the quadrature error refuses them
    spec = string_family(3, np.random.default_rng(64))
    grid = TimeGrid(2.0, 200)
    r = response_function(spec, grid.doubled())
    with pytest.raises(NotRealizableError, match="numerical rank 3\\)"):
        recover_matrix_continuous(r, N, grid)


def test_recover_rejects_bad_rank():
    grid = TimeGrid(2.0, 4)
    r = response_function(string_family(2, np.random.default_rng(65)), grid.doubled())
    with pytest.raises(ValueError, match="N >= 1"):
        recover_matrix_continuous(r, 0, grid)
    with pytest.raises(NotRealizableError, match="rank 5"):
        recover_matrix_continuous(r, grid.M + 1, grid)
    with pytest.raises(NotRealizableError, match="rank 6"):
        recover_matrix_continuous(r, grid.M + 2, grid)


def test_kernel_apply_matches_dense_kernel():
    rng = np.random.default_rng(66)
    for M in (2, 3, 10, 41, 400):
        seq, x = rng.standard_normal(2 * M + 1), rng.standard_normal(M + 1)
        scale = np.max(np.abs(seq)) * np.sum(np.abs(x))  # bounds every |(K x)_i|
        err = np.abs(_kernel_apply(seq, x) - _kernel_matrix(seq, M) @ x)
        assert np.all(err <= (M + 1) * EPS * scale), M


def test_derivative_sixth_order():
    t = np.linspace(0.0, 2.0, 201)
    err = np.abs(_derivative(np.sin(3 * t), t[1]) - 3 * np.cos(3 * t))
    assert np.max(err) <= 1e-8
    assert np.max(err[3:-3]) <= 1e-10  # central stencil


def test_recover_from_explicit_samples():
    # r(t) summed from the spectral data in the test, not by response_function
    spec = string_family(4, np.random.default_rng(67))
    grid = TimeGrid(2.0, 800)
    data = eig_spectral_data(spec)
    t = grid.doubled().nodes
    rt = np.sqrt(data.eigenvalues)
    values = (np.sin(np.outer(t, rt)) / rt) @ (1.0 / data.omegas)
    rec, _ = recover_matrix_continuous(ResponseFunctionSamples(values, grid.doubled()), 4, grid)
    assert max(np.max(np.abs(rec.a - spec.a)), np.max(np.abs(rec.b - spec.b))) <= 1e-3


def test_recover_bit_identical_across_calls():
    spec = string_family(6, np.random.default_rng(68))
    grid = TimeGrid(2.0, 400)
    r = response_function(spec, grid.doubled())
    (rec1, c1), (rec2, c2) = (recover_matrix_continuous(r, 6, grid) for _ in range(2))
    assert np.array_equal(rec1.a, rec2.a) and np.array_equal(rec1.b, rec2.b)
    assert all(np.array_equal(x, y) for x, y in zip(c1, c2))


def test_recover_refuses_zero_response_and_coarse_grid():
    grid = TimeGrid(1.0, 40)
    zero = ResponseFunctionSamples(np.zeros(2 * grid.M + 1), grid.doubled())
    with pytest.raises(NotRealizableError, match="rank 1"):
        recover_matrix_continuous(zero, 1, grid)
    grid = TimeGrid(2.0, 2)
    r = response_function(JacobiSpec(a0=1.0, a=[], b=[1.0]), grid.doubled())
    with pytest.raises(InvalidInputError, match="M >= 3"):
        recover_matrix_continuous(r, 1, grid)


@pytest.mark.parametrize("values", [np.zeros(80), np.full(81, np.nan), np.full(81, np.inf)])
def test_response_samples_refuse_malformed_values(values):
    with pytest.raises(InvalidInputError):
        ResponseFunctionSamples(values, TimeGrid(2.0, 80))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_second_order_refuses_non_finite_control(bad):
    grid = TimeGrid(1.0, 10)
    f = np.ones(grid.M + 1)
    f[3] = bad
    with pytest.raises(InvalidInputError, match="control must be finite"):
        solve_second_order(JacobiSpec(a0=1.0, a=[], b=[1.0]), f, grid)
    with pytest.raises(InvalidInputError, match="control must be finite"):
        solve_second_order(JacobiSpec(a0=1.0, a=[], b=[1.0]), np.full(grid.M + 1, bad), grid)


def test_continuous_inputs_refuse_complex():
    # a cast to float would drop the imaginary parts with only a warning
    grid = TimeGrid(1.0, 10)
    f = np.ones(grid.M + 1, dtype=complex)
    with pytest.raises(InvalidInputError, match="control must be real"):
        solve_second_order(JacobiSpec(a0=1.0, a=[], b=[1.0]), f, grid)
    with pytest.raises(InvalidInputError, match="must be real"):
        ResponseFunctionSamples(f, grid)


@pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf])
def test_triangular_bump_refuses_bad_width(width):
    with pytest.raises(InvalidInputError, match="width"):
        triangular_bump(TimeGrid(1.0, 10), width=width)


@pytest.mark.parametrize("T", [np.nan, np.inf])
def test_time_grid_refuses_non_finite_length(T):
    with pytest.raises(InvalidInputError, match="T must be finite"):
        TimeGrid(T, 10)


@pytest.mark.parametrize("N", [0, 1, 2.5])
def test_corrected_response_refuses_fewer_than_two_pieces(N):
    with pytest.raises(InvalidInputError, match="N must be an integer in 2\\.\\."):
        corrected_response(N, TimeGrid(1.0, 40))


@pytest.mark.parametrize("t_star", [np.nan, np.inf])
def test_corrected_response_refuses_non_finite_field_time(t_star):
    with pytest.raises(InvalidInputError, match="field_time must be finite"):
        corrected_response(4, TimeGrid(1.0, 40), field_time=t_star)


@pytest.mark.parametrize("masses, lengths, match", [
    (np.array([1 + 2j]), [0.5, 0.5], "masses must be real"),
    ([1.0 + 0j], [0.5, 0.5], "masses must be real"),
    ([1.0], [0.5, 0.5j], "lengths must be real"),
    ([np.nan], [0.5, 0.5], "masses must be finite"),
    ([1.0], [0.5, np.inf], "lengths must be finite"),
])
def test_string_spec_refuses_complex_and_non_finite(masses, lengths, match):
    with pytest.raises(InvalidInputError, match=match):
        StringSpec(masses=masses, lengths=lengths)
