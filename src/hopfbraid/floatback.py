"""Floating-point cross-check backend.

``NumpyOps`` is the numpy side of the backend protocol that every checker
is written against (see groupalg.ExactAlgebraOps).  A tensor element is
lifted to the diagonal of its regular image in the character basis, taken
by numpy's FFT, so tensor products are elementwise; a matrix is lifted to
a dense numpy complex matrix, and R' built from its source r is the flip
permutation times r's diagonal, taken back by FFTs (braided_complex), so no
exact matrix is built for it.  Every product and sum is taken in floating
arithmetic, and equality is an absolute entrywise tolerance (1e-9 by
default, the arrays stay small).  This is an independent numerical sanity
path next to the exact backend, never a replacement for it: it shares no
arithmetic with the exact character transform.
"""

from __future__ import annotations

import numpy as np

from .groupalg import GroupSpec, TensorElement
from .linalg import Matrix

DEFAULT_TOL = 1e-9


def matrix_complex(m: Matrix) -> np.ndarray:
    return np.array(m.to_complex(), dtype=complex)


def braided_complex(r: TensorElement) -> np.ndarray:
    """flip . (rho (x) rho)(r) for a two-leg element r, as a dense complex
    matrix: in the character basis it is P D, D the diagonal
    tensor_complex(r) gathered by the flip permutation P, as
    linalg.MonomialOps.braided builds it, taken back to the group basis by
    F (x) F on the row legs and its inverse on the column legs.  On each
    axis F[j, c] = zeta^(j c), so F x = n ifft(x) and x F^-1 = fft(x) / n;
    the scales cancel."""
    spec, d = r.spec, r.spec.dimension
    flip = np.arange(d * d).reshape(d, d).T.ravel()
    pd = np.zeros((d * d, d * d), dtype=complex)
    pd[np.arange(d * d), flip] = tensor_complex(spec, r)[flip]
    rows, cols = np.arange(4 * len(spec.orders)).reshape(2, -1)
    pd = np.fft.fftn(pd.reshape(spec.orders * 4), axes=cols)
    return np.fft.ifftn(pd, axes=rows).reshape(d * d, d * d)


def tensor_complex(spec: GroupSpec, t: TensorElement) -> np.ndarray:
    """Diagonal of the regular image of a k-leg tensor element in the
    character basis, F^(-k) rho^(x)k(t) F^(k) with F as in
    linalg.character_basis: the FFT (sign -1) of the coefficient array with
    one axis per cyclic factor of each leg, first leg most significant, the
    layout of linalg.MonomialOps.tensor.  A 1-D array of length d^k."""
    shape = spec.orders * t.legs
    coeffs = np.zeros(shape, dtype=complex)
    for key, c in t.terms.items():
        coeffs[sum(key, ())] = c.to_complex()
    return np.fft.fftn(coeffs).ravel()


class NumpyOps:
    """The numpy backend: lifts into complex arrays, compares within tol."""

    def __init__(self, tol: float = DEFAULT_TOL):
        self.tol = tol

    def tensor(self, t: TensorElement) -> np.ndarray:
        return tensor_complex(t.spec, t)

    def matrix(self, m: Matrix) -> np.ndarray:
        return matrix_complex(m)

    def braided(self, b) -> np.ndarray:
        """A braidrep.BraidedRMatrix: built from its source when it has one
        (braided_complex), so no exact matrix is built, else its matrix lifted."""
        return matrix_complex(b.matrix) if b.source is None else braided_complex(b.source)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b

    def kron(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.kron(a, b)

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=complex)

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= self.tol)

    def invertible(self, m: np.ndarray) -> bool:
        # the smallest singular value: |det| of a well-conditioned matrix can be far below tol
        return bool(np.linalg.svd(m, compute_uv=False)[-1] > self.tol)
