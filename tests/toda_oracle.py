"""Test oracle: classical fixed-step RK4 on the 2N-1 Toda lattice equations.

One block, one time: n = max(1, round(|t| / dt)) steps of h = t / n, with
the a_0 = a_N = 0 boundary convention.  Its own error is truncation, O(dt^4)
in the step; `toda.toda_qr_flow` is exact and must agree with it within that.
"""

import numpy as np


def rk4_one_time(spec0, t, dt):
    """(a, b) at time t, integrated from spec0 with step about dt."""

    def rhs(a, b):
        a_ext = np.concatenate([[0.0], a, [0.0]])
        return a * (b[1:] - b[:-1]), 2.0 * (a_ext[1:] ** 2 - a_ext[:-1] ** 2)

    a = spec0.a.copy().astype(float)
    b = spec0.b.copy().astype(float)
    n_steps = max(1, int(round(abs(t) / dt)))
    h = t / n_steps
    for _ in range(n_steps):
        k1a, k1b = rhs(a, b)
        k2a, k2b = rhs(a + 0.5 * h * k1a, b + 0.5 * h * k1b)
        k3a, k3b = rhs(a + 0.5 * h * k2a, b + 0.5 * h * k2b)
        k4a, k4b = rhs(a + h * k3a, b + h * k3b)
        a = a + (h / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
        b = b + (h / 6.0) * (k1b + 2 * k2b + 2 * k3b + k4b)
    return a, b
