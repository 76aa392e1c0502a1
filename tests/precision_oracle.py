"""Test oracle: the wave kernels S(t, lam) and C(t, lam) = S'(t, lam) in
extended precision at the exact nodes t = m dt.

Every argument (sqrt|lam|, m dt, their product) is formed in np.longdouble,
so the float64 evaluators are measured against the kernel itself, not against
one that shares their rounding of sqrt(lam) or of the node.
"""

import numpy as np


def node_kernels(lam, dt: float, m) -> tuple:
    """S and C, each of shape (len(m), len(lam)) in np.longdouble: the sin,
    sinh and t branches for lam > 0, lam < 0 and lam = 0."""
    lam = np.asarray(lam, dtype=np.longdouble).reshape(-1)
    t = np.asarray(m, dtype=np.longdouble)[:, None] * np.longdouble(dt)
    rt = np.sqrt(np.abs(lam))
    S = np.broadcast_to(t, (t.size, lam.size)).copy()
    C = np.ones_like(S)
    for pick, (s, c) in ((lam > 0, (np.sin, np.cos)), (lam < 0, (np.sinh, np.cosh))):
        x = t * rt[pick]
        S[:, pick] = s(x) / rt[pick]
        C[:, pick] = c(x)
    return S, C
