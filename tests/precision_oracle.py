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


def uniform_string_modes(N: int) -> tuple:
    """lam_k, omega_k and phi^k_j (rows j = 1..N-1, columns k) of the uniform
    N-piece string's block N^2 tridiag(1, 2, 1) in np.longdouble, eigenvalues
    ascending (k = N - 1, ..., 1): 4 N^2 cos^2(k pi / 2N), N / (2 sin^2(k pi / N))
    and sin(j k pi / N) / sin(k pi / N), with pi and every argument in np.longdouble.
    The cosine is taken as sin((N - k) pi / 2N): near pi / 2 the rounding of
    its argument would cost the small eigenvalues their last digits."""
    pi = 4 * np.arctan(np.longdouble(1))
    k = np.arange(N - 1, 0, -1).astype(np.longdouble)
    j = np.arange(1, N).astype(np.longdouble)[:, None]
    first = np.sin(k * pi / N)
    lam = 4 * np.longdouble(N) ** 2 * np.sin((N - k) * pi / (2 * N)) ** 2
    return lam, N / (2 * first**2), np.sin(j * k * pi / N) / first
