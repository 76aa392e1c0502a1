"""Test oracles: the dense indeterminacy forms and the phi-normalized alpha* loop.

The package reads the indeterminacy forms off the modified Chebyshev sweep as
Christoffel-Darboux sums, and `alpha_star_partials` off the monic recurrence
at lambda = 0.  These are the routes they replaced: one connecting matrix,
one response matrix and three dense solves per N (O(N^4) in all), and the
three-term loop in the first-kind normalization phi_1 = 1.
"""

import numpy as np

from bcjacobi.core import chebyshev_values
from bcjacobi.discrete_wave import connecting_from_response
from bcjacobi.inverse_bc import response_matrix
from bcjacobi.moments import moments_to_response


def dense_indeterminacy(s, N_max: int):
    """(gamma_form, delta_form, L) per N = 1..N_max by dense solves on C^N.

    A singular C^N gives +inf, +inf and NaN for that row.
    """
    s = np.asarray(s, dtype=float)
    r = moments_to_response(s[: 2 * N_max - 1])
    C = connecting_from_response(r, N_max)
    R = response_matrix(r, N_max)
    # T_t(0), and T_t'(0) by differentiating the recurrence at lambda = 0
    tvals = chebyshev_values(N_max, 0.0)
    dvals = np.zeros(N_max + 1)
    for t in range(1, N_max):
        dvals[t + 1] = tvals[t] - dvals[t - 1]
    gamma_form = np.full(N_max, np.nan)
    delta_form = np.full(N_max, np.nan)
    l_seq = np.full(N_max, np.nan)
    for N in range(1, N_max + 1):
        CN = C[-N:, -N:]
        gam = tvals[N:0:-1]
        dlt = dvals[N:0:-1]
        try:
            x = np.linalg.solve(CN, gam)
            gamma_form[N - 1] = float(gam @ x)
            delta_form[N - 1] = float(dlt @ np.linalg.solve(CN, dlt))
            # L_N = ((C^N)^{-1} (R^N)^* Gamma_N, e1) / ((C^N)^{-1} Gamma_N, e1);
            # R^N is the response operator whose adjoint enters the Krein
            # equation (Gamma_N is kappa^N(0)).
            num = np.linalg.solve(CN, R[:N, :N].T @ gam)[0]
            den = x[0]
            l_seq[N - 1] = num / den if den != 0 else np.nan
        except np.linalg.LinAlgError:
            gamma_form[N - 1] = np.inf
            delta_form[N - 1] = np.inf
            l_seq[N - 1] = np.nan
    return gamma_form, delta_form, l_seq


def phi_alpha_star(spec, n_max: int):
    """(-q/p, p) at lambda = 0 in the phi-normalization p_1 = 1, q_1 = 0, q_2 = 1/a_1."""
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
        return -q[1:] / p[1:], p[1:]
