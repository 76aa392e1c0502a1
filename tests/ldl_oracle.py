"""Test oracle: unpivoted LDL^t of the equilibrated connecting matrix.

The package reads determinant ratios off a modified Chebyshev sweep; this
O(T^3) factorization is the independent reference it is checked against.
"""

import numpy as np

from bcjacobi.errors import SingularBlockError
from bcjacobi.inverse_bc import PIVOT_TOL


def _equilibrate(C: np.ndarray):
    """Symmetric diagonal scaling Cs = D C D with unit-ish diagonal.

    Connecting matrices are heavily graded: their pivots are squared control
    fronts (prod_j a_j)^2 and span many decades, which destroys the relative
    accuracy of determinant ratios computed on the raw matrix.  The grading
    sits almost entirely in the diagonal, so scaling it out first makes the
    pivots O(1); determinant ratios transform back by the known D factors.
    """
    diag = np.abs(np.diag(C)).astype(float)
    diag[diag == 0] = 1.0
    D = 1.0 / np.sqrt(diag)
    return D[:, None] * C * D[None, :], D


def _ldl_pivots(C: np.ndarray):
    """Unpivoted LDL^t (plain transpose) of a (complex) symmetric matrix.

    Returns (L, d).  Raises SingularBlockError when a pivot falls under the
    tolerance, relative to the leading-block norm; the failing index is the
    first non-invertible leading block.
    """
    n = C.shape[0]
    L = np.eye(n, dtype=C.dtype)
    d = np.zeros(n, dtype=C.dtype)
    block_max = 0.0
    for k in range(n):
        block_max = max(block_max, float(np.max(np.abs(C[: k + 1, k]))))
        d[k] = C[k, k] - np.sum(L[k, :k] ** 2 * d[:k])
        if abs(d[k]) <= PIVOT_TOL * block_max:
            raise SingularBlockError(
                f"leading block C_{k + 1} is not invertible "
                f"(pivot {d[k]:.3e}, tolerance {PIVOT_TOL * block_max:.3e})"
            )
        L[k + 1 :, k] = (C[k + 1 :, k] - L[k + 1 :, :k] @ (L[k, :k] * d[:k])) / d[k]
    return L, d
