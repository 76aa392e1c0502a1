"""Test oracle: the modified Chebyshev sweep as it stood before it ran on rotating rows.

Each step divides the whole 2T-long row by its pivot entry and builds the next
row in a fresh array, and the refusal scale is read off a reversed copy of the
connecting matrix.  `inverse_bc._chebyshev_sweep` touches only the live entries
of three preallocated rows and reads the scale off fewer T x T passes, in the
same order of operations, so its b, d, ds and refusal must agree with this bit
for bit.
"""

import numpy as np

from bcjacobi.discrete_wave import _connecting, reverse_order
from bcjacobi.inverse_bc import PIVOT_TOL


def chebyshev_sweep(r: np.ndarray, T: int):
    """Modified Chebyshev algorithm on the modified moments m = r / r_0.

    The entries m_t = sum_k w_k pi_t(lambda_k) are moments of the spectral
    measure in the basis pi_{t+1} = lambda pi_t - pi_{t-1}, and the reversed
    connecting matrix C_T of m is their Gram matrix.  The recurrence
    (Sack & Donovan 1972; Gautschi 1982)

        s_{k,l} = s_{k-1,l+1} - b_k s_{k-1,l} - a_{k-1}^2 s_{k-2,l} + s_{k-1,l-1}

    gives the LDL^t pivots d_k = s_{k,k} = det C_{k+1} / det C_k of C_T,
    a_k^2 = d_k / d_{k-1} and b_{k+1} = s_{k,k+1}/d_k - s_{k-1,k}/d_{k-1} in
    O(T^2), without factoring C.  It runs on the rows t_{k,l} = s_{k,l} / d_k
    (so t_{k,k} = 1), whose recurrence t_{k-1,l+1} - b_k t_{k-1,l} - t_{k-2,l}
    + t_{k-1,l-1} = a_k^2 t_{k,l} needs no pivot ratio, and
    b_{k+1} = t_{k,k+1} - t_{k-1,k} is a plain difference.  Uses m_0..m_{2T-1}:
    2T-1 entries give b_1..b_{T-1}, a 2T-th gives b_T as well.  Returns
    (b, d, ds, refusal) with ds_k = d_k / |(C_T)_kk|, the pivots of the
    diagonally equilibrated C_T.

    Visits the nested blocks C_1, ..., C_T in order and stops at the first
    pivot with |ds_k| under PIVOT_TOL times the leading-block norm of the
    equilibrated C_T: b, d and ds are then cut at the depth reached, exactly
    what a sweep to that depth returns, and `refusal` names the block (it is
    None when the sweep gets through).  `_admit` runs it for every verdict;
    only `moments.indeterminacy_sequences`, which cuts rather than refuses,
    calls it directly.  The caller checks the horizon.
    """
    m = r[: 2 * T] / r[0]
    n = m.size
    # the refusal scale, the running column maxima of D C_T D: an O(T^2) assembly
    # (one row recurrence, `_connecting`) and one pass over the triangle
    C = reverse_order(_connecting(m, T))
    diag = np.abs(np.diag(C)).astype(float)
    diag[diag == 0] = 1.0
    D = 1.0 / np.sqrt(diag)
    tol = PIVOT_TOL * np.maximum.accumulate(np.max(np.abs(D[:, None] * np.triu(C) * D), axis=0))
    d = np.empty(T, dtype=m.dtype)
    b = np.empty(min(T, n // 2), dtype=m.dtype)
    prev, u = np.zeros_like(m), m  # t_{k-1} and s_k / d_{k-1}, with t_{-1} = 0 and d_{-1} = 1
    for k in range(T):
        d[k] = u[k] * d[k - 1] if k else u[0]
        if not abs(d[k] / diag[k]) > tol[k]:  # a NaN pivot refuses too
            refusal = (
                f"leading block C_{k + 1} is not invertible "
                f"(pivot {d[k] / diag[k]:.3e}, tolerance {tol[k]:.3e})"
            )
            return b[: min(k, b.size)], d[:k], d[:k] / diag[:k], refusal
        cur = u / u[k]
        if k < b.size:
            b[k] = cur[k + 1] - prev[k]
        if k + 1 < T:
            lo, hi = k + 1, n - k - 1
            u = np.zeros_like(m)
            u[lo:hi] = cur[lo + 1 : hi + 1] - b[k] * cur[lo:hi] - prev[lo:hi] + cur[lo - 1 : hi - 1]
            prev = cur
    return b, d, d / diag, None
