"""Test oracle: the connecting matrix filled one diagonal at a time.

Diagonal i - j = m of C^T holds the running sums of r_m, r_{m+2}, ...,
r_{2T-2-m}, longest first; this loop takes one `np.cumsum` per diagonal and
writes it into both triangles.  `discrete_wave._connecting` runs every
diagonal at once by the row recurrence C_T[k, j] = C_T[k-1, j-1] + r_{k+j}
of the reversed matrix C_T = J C^T J, and its reversed view must agree with
this bit for bit.
"""

import numpy as np


def connecting(r: np.ndarray, T: int) -> np.ndarray:
    """C^T of the entries r_0..r_{2T-2} (entries past them are ignored)."""
    C = np.empty((T, T), dtype=r.dtype)
    for m in range(T):
        idx = np.arange(T - m)
        C[idx + m, idx] = C[idx, idx + m] = np.cumsum(r[m : 2 * T - 1 - m : 2])[::-1]
    return r[0] * C
