"""Test oracle: the lattice recurrence stored node-major, one column per time.

Each step writes column t + 1 of u[n, t] from column t (and t - 1 for the
wave) with one expression, ((a_r u_{n+1} + a_l u_{n-1}) + b_c u_n) - u_{n,t-1}.
`discrete_wave._step_field` stores the field time-major and builds each row
in place in the same order of operations, so every field must agree with
this bit for bit.
"""

import numpy as np


def step_field(spec, f, T: int, n_active: int, order: int = 2) -> np.ndarray:
    """Field u of shape (n_active + 2, T + 1) on nodes 1..n_active, zero wall at n_active + 1.

    Row 0 carries the control (f_t for t < T, 0 at t = T); order=1 drops the
    u_{t-1} term (the heat system).
    """
    f = np.atleast_1d(np.asarray(f))
    dt = complex if (spec.mode == "complex" or np.iscomplexobj(f)) else float
    u = np.zeros((n_active + 2, T + 1), dtype=dt)
    u[0, :T] = f
    aa = np.concatenate([[spec.a0], spec.a]).astype(dt)  # aa[n] = a_n
    a_r = np.array([aa[n] if n < aa.size else 0.0 for n in range(1, n_active + 1)], dtype=dt)
    a_l = aa[0:n_active].astype(dt)
    b_c = spec.b[0:n_active].astype(dt)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            prev = u[1 : n_active + 1, t - 1] if order == 2 and t >= 1 else 0.0
            u[1 : n_active + 1, t + 1] = (
                a_r * u[2 : n_active + 2, t]
                + a_l * u[0:n_active, t]
                + b_c * u[1 : n_active + 1, t]
                - prev
            )
    return u
