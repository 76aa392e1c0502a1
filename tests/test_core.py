import numpy as np
import pytest

from bcjacobi.core import (
    JacobiSpec,
    SpectralMeasure,
    alpha_star_partials,
    chebyshev_u,
    chebyshev_values,
    eig_spectral_data,
    free_spec,
    moments_of_measure,
    phi_eval,
    random_spec,
    spectral_measure,
)
from bcjacobi.errors import BCError, InvalidInputError


def brute_chebyshev(t, lam):
    """Independent oracle: literal recurrence, no shortcuts."""
    vals = {0: 0.0, 1: 1.0}
    for k in range(1, t):
        vals[k + 1] = lam * vals[k] - vals[k - 1]
    return vals[t]


def test_chebyshev_initial_conditions():
    assert chebyshev_u(0, 3.7) == 0.0
    assert chebyshev_u(1, 3.7) == 1.0
    assert chebyshev_u(2, 5.0) == 5.0  # one recurrence step: T_2 = lambda


def test_chebyshev_derived_value():
    # T_3 = lambda^2 - 1 by the recurrence oracle
    assert brute_chebyshev(3, 2.0) == 3.0
    assert chebyshev_u(3, 2.0) == 3.0


def test_chebyshev_matches_oracle_many():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = int(rng.integers(0, 25))
        lam = rng.uniform(-3, 3)
        assert chebyshev_u(t, lam) == pytest.approx(brute_chebyshev(t, lam), rel=1e-12, abs=1e-12)


def test_chebyshev_u_matches_scalar_loop():
    # oracle: the scalar two-term loop.  Real lambda runs the same float
    # operations, so the values are equal.  numpy's array complex multiply
    # may fuse a*c - b*d where Python's scalar one rounds twice, so complex
    # lambda is held to the rounding bound of the recurrence: a step error
    # delta_k reaches T_t as delta_k T_{t-k}, with |delta_k| <= 4 eps
    # (|lambda| |T_k| + |T_{k-1}|).
    eps = np.finfo(float).eps
    for lam in (0.37, -2.6, 1.9 + 0.4j, -0.3 - 1.7j):
        vals = [0.0 * lam, 1.0]
        for _ in range(11):
            vals.append(lam * vals[-1] - vals[-2])
        for t in range(13):
            if isinstance(lam, float):
                assert chebyshev_u(t, lam) == vals[t]
            else:
                bound = sum(
                    4 * eps * (abs(lam) * abs(vals[k]) + abs(vals[k - 1])) * abs(vals[t - k])
                    for k in range(1, t)
                )
                assert abs(chebyshev_u(t, lam) - vals[t]) <= bound
    with pytest.raises(ValueError):
        chebyshev_u(-1, 0.5)


def test_chebyshev_values_table():
    lam = 0.37
    vals = chebyshev_values(12, lam)
    for t in range(13):
        assert vals[t] == pytest.approx(brute_chebyshev(t, lam), rel=1e-13, abs=1e-13)


def test_phi_free_at_two():
    # free recurrence at lambda = 2 gives phi_n = n
    phi = phi_eval(free_spec(7), 2.0, 7)
    assert np.allclose(phi, np.arange(1, 8), rtol=0, atol=1e-12)


def test_phi_cauchy_data():
    spec = random_spec(5, np.random.default_rng(1))
    assert phi_eval(spec, 0.83, 1)[0] == 1.0


def test_phi_second_entry():
    spec = JacobiSpec(a0=1.0, a=[1.0], b=[0.0, 0.0])
    assert phi_eval(spec, 1.0, 2)[1] == pytest.approx(1.0)  # (lambda - b_1)/a_1


def test_phi_range_check():
    spec = free_spec(4)
    with pytest.raises(ValueError):
        phi_eval(spec, 0.0, 6)


def test_eig_two_by_two_by_hand():
    spec = JacobiSpec(a0=1.0, a=[1.0], b=[0.0, 0.0])
    data = eig_spectral_data(spec)
    assert np.allclose(data.eigenvalues, [-1.0, 1.0], atol=1e-14)
    assert np.allclose(data.phi_vectors[:, 0], [1.0, -1.0], atol=1e-14)
    assert np.allclose(data.phi_vectors[:, 1], [1.0, 1.0], atol=1e-14)
    assert np.allclose(data.omegas, [2.0, 2.0], atol=1e-14)


def test_eig_single_site():
    data = eig_spectral_data(JacobiSpec(a0=1.0, a=[], b=[0.7]))
    assert data.eigenvalues[0] == 0.7
    assert data.omegas[0] == 1.0


def test_eig_free_three():
    # roots of phi_4 = lambda^3 - 2 lambda
    data = eig_spectral_data(free_spec(3))
    assert np.allclose(data.eigenvalues, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)


def test_eig_rejects_complex_mode():
    spec = JacobiSpec(a0=1.0, a=[1.0 + 0.1j], b=[0.0, 0.0], mode="complex")
    with pytest.raises(BCError):
        eig_spectral_data(spec)


def test_eigen_residual_random():
    rng = np.random.default_rng(2)
    for _ in range(8):
        n = int(rng.integers(2, 51))
        spec = random_spec(n, rng)
        data = eig_spectral_data(spec)
        A = spec.matrix()
        for k in range(n):
            res = np.max(np.abs(A @ data.phi_vectors[:, k] - data.eigenvalues[k] * data.phi_vectors[:, k]))
            bound = 1e-10 * (1 + abs(data.eigenvalues[k])) * np.max(np.abs(data.phi_vectors[:, k]))
            assert res <= bound


def test_eigenvectors_match_phi_recurrence():
    rng = np.random.default_rng(3)
    spec = random_spec(12, rng)
    data = eig_spectral_data(spec)
    for k in range(spec.n):
        phi = phi_eval(spec, data.eigenvalues[k], spec.n)
        assert np.allclose(data.phi_vectors[:, k], phi, rtol=1e-9, atol=1e-9)


def test_spectral_measure_free_three():
    mu = spectral_measure(free_spec(3))
    assert np.allclose(mu.weights, [0.25, 0.5, 0.25], atol=1e-12)  # omega = (4, 2, 4)


def test_spectral_measure_two_atoms():
    mu = spectral_measure(JacobiSpec(a0=1.0, a=[1.0], b=[0.0, 0.0]))
    assert np.allclose(mu.lambdas, [-1.0, 1.0], atol=1e-14)
    assert np.allclose(mu.weights, [0.5, 0.5], atol=1e-14)


def test_weight_normalization():
    rng = np.random.default_rng(4)
    for _ in range(10):
        mu = spectral_measure(random_spec(int(rng.integers(1, 30)), rng))
        assert abs(np.sum(mu.weights) - 1.0) <= 1e-12


def test_moments_direct_summation():
    mu = SpectralMeasure(((-1.0, 0.5), (1.0, 0.5)))
    assert np.allclose(moments_of_measure(mu, 3), [1, 0, 1, 0], atol=1e-15)
    assert np.allclose(moments_of_measure(SpectralMeasure(((0.0, 1.0),)), 2), [1, 0, 0])
    assert np.allclose(moments_of_measure(SpectralMeasure(((2.0, 1.0),)), 3), [1, 2, 4, 8])


def test_chebyshev_moment_bridge():
    # integral of T_t against the measure: atom-wise vs monomial-coefficient route
    from bcjacobi.moments import lambda_matrix

    rng = np.random.default_rng(5)
    spec = random_spec(6, rng)
    mu = spectral_measure(spec)
    t_max = 20
    s = moments_of_measure(mu, t_max - 1)
    L = lambda_matrix(t_max).astype(float)
    for t in range(1, t_max + 1):
        atomwise = np.sum(mu.weights * chebyshev_values(t, mu.lambdas)[t])
        via_moments = L[t - 1, :] @ s
        assert atomwise == pytest.approx(via_moments, rel=1e-10, abs=1e-10)


def test_spec_validation():
    with pytest.raises(ValueError):
        JacobiSpec(a0=1.0, a=[], b=[])  # degenerate N = 0
    with pytest.raises(ValueError):
        JacobiSpec(a0=-1.0, a=[1.0], b=[0.0, 0.0])
    with pytest.raises(ValueError):
        JacobiSpec(a0=1.0, a=[-0.5], b=[0.0, 0.0])
    with pytest.raises(ValueError):
        JacobiSpec(a0=0.0, a=[1.0 + 0j], b=[0.0, 0.0 + 0j], mode="complex")
    with pytest.raises(ValueError):
        JacobiSpec(a0=1.0, a=[1.0, 1.0], b=[0.0, 0.0])  # wrong lengths


def test_measure_validation():
    with pytest.raises(ValueError):
        SpectralMeasure(((1.0, 0.5), (1.0, 0.5)))  # not strictly increasing
    with pytest.raises(ValueError):
        SpectralMeasure(((0.0, -0.1),))


def test_spec_json_roundtrip():
    spec = JacobiSpec(a0=2.0, a=[1.0, 0.7], b=[0.1, -0.2, 0.3])
    again = JacobiSpec.from_json(spec.to_json())
    assert again.a0 == spec.a0
    assert np.array_equal(again.a, spec.a)
    assert np.array_equal(again.b, spec.b)
    cspec = JacobiSpec(a0=1 + 2j, a=[1j], b=[0.5, 0.5 - 1j], mode="complex")
    again = JacobiSpec.from_json(cspec.to_json())
    assert again.a0 == cspec.a0
    assert np.array_equal(again.a, cspec.a)


def test_measure_json_roundtrip():
    mu = SpectralMeasure(((-1.0, 0.25), (0.5, 0.75)))
    assert SpectralMeasure.from_json(mu.to_json()).atoms == mu.atoms


@pytest.mark.parametrize("obj", [
    {"a0": True, "b": [True, "3"], "a": [1.0]},
    {"a0": "1", "b": [0.0]},
    {"a0": 1.0, "b": [0.0, False], "a": [1.0]},
    {"a0": 1.0, "b": [[0.0, "1"]], "mode": "complex"},
    {"a0": float("nan"), "b": [0.0]},
    {"a0": 10**400, "b": [0.0]},
])
def test_spec_json_refuses_non_numbers(obj):
    with pytest.raises(InvalidInputError, match="malformed spec JSON"):
        JacobiSpec.from_json(obj)


@pytest.mark.parametrize("obj", [
    {"atoms": [[1]]},
    {"atoms": 5},
    {},
    {"atoms": [[0.0, "1"]]},
    {"atoms": [[True, 1.0]]},
    [[0.0, 1.0]],
])
def test_measure_json_refuses_malformed_input(obj):
    with pytest.raises(InvalidInputError, match="malformed measure JSON"):
        SpectralMeasure.from_json(obj)


@pytest.mark.parametrize("kwargs, match", [
    ({"a0": 1.0, "a": np.array([1 + 1j]), "b": np.zeros(2)}, "coefficients must be real"),
    ({"a0": 1.0, "a": [1.0], "b": [0.0, 1j]}, "coefficients must be real"),
    ({"a0": 1 + 1j, "a": [1.0], "b": [0.0, 0.0]}, "a0 must be real"),
    ({"a0": np.nan, "a": [1.0], "b": [0.0, 0.0]}, "a0 must be finite"),
    ({"a0": 1.0, "a": ["x"], "b": [0.0, 0.0]}, "coefficients must be real numbers"),
])
def test_real_spec_refuses_complex_and_malformed_input(kwargs, match):
    # a cast to float would drop the imaginary parts with only a warning
    with pytest.raises(InvalidInputError, match=match):
        JacobiSpec(**kwargs)


@pytest.mark.parametrize("n", [0, -1, np.iinfo(np.intp).max // 8 + 1, np.iinfo(np.intp).max, 10**30, 2.5, True])
def test_spec_builders_refuse_sizes_numpy_cannot_allocate(n):
    with pytest.raises(InvalidInputError, match="block size"):
        free_spec(n)
    with pytest.raises(InvalidInputError, match="block size"):
        random_spec(n, np.random.default_rng(0))


def test_alpha_star_partials_free():
    # free case: p_n(0) alternates 1, 0, -1, 0 pattern; the quotient is not
    # finite at the indices where p vanishes
    seq = alpha_star_partials(free_spec(8))
    assert seq.shape == (8,)
    assert not np.isfinite(seq[1])  # p_2(0) = 0 for the free system
    assert seq[0] == 0.0  # q_1 = 0
