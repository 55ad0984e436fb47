"""Floating-point cross-check backend.

``NumpyOps`` is the numpy side of the backend protocol that every checker
is written against (see groupalg.ExactAlgebraOps).  A tensor element is
lifted to the diagonal of its regular image in the character basis, taken
by numpy's FFT, so tensor products are elementwise, and R_ij and
coproducts are gathers of it (linalg's index arrays: the FFT's layout and
sign are MonomialOps.tensor's); a matrix is lifted to
a dense numpy complex matrix, and R' built from its source r is
flip . Gamma(R), Gamma(R) = T diag(D) T^-1 with D r's diagonal and T the
spec's numeric character matrix on two legs (braided_complex), so no
exact matrix is built for it.  Every product and sum is taken in floating
arithmetic, and equality is an absolute entrywise tolerance (1e-9 by
default, the arrays stay small).  This is an independent numerical sanity
path next to the exact backend, never a replacement for it: it shares no
arithmetic with the exact character transform.
"""

from __future__ import annotations

import numpy as np

from .groupalg import GroupSpec, TensorElement
from .linalg import Matrix, coproduct_gather, embedding_gather

DEFAULT_TOL = 1e-9


def matrix_complex(m: Matrix) -> np.ndarray:
    return np.array(m.to_complex(), dtype=complex)


def braided_complex(r: TensorElement) -> np.ndarray:
    """flip . Gamma(R) for a two-leg element r, as a dense complex matrix:
    Gamma(R) = T diag(D) T^-1, D = tensor_complex(r), T = F (x) F and F the
    spec's character matrix (linalg.character_basis on each factor), here d
    times the inverse FFT of I's columns.  T^-1 = conj(T)^T / d^2."""
    spec, d = r.spec, r.spec.dimension
    f = np.fft.ifftn(np.eye(d).reshape(spec.orders * 2), axes=range(len(spec.orders)))
    t = np.kron(f.reshape(d, d), f.reshape(d, d)) * (d * d)
    gamma = (t * tensor_complex(spec, r)) @ t.conj().T / (d * d)
    return gamma.reshape(d, d, -1).swapaxes(0, 1).reshape(d * d, -1)


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

    def embed(self, t: TensorElement, legs: int, positions) -> np.ndarray:
        return self.tensor(t)[embedding_gather(t, legs, positions)]

    def coproduct_on_leg(self, t: TensorElement, leg: int) -> np.ndarray:
        return self.tensor(t)[coproduct_gather(t, leg)]

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b

    def kron(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.kron(a, b)

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=complex)

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= self.tol)

    def invertible(self, m: np.ndarray) -> bool:
        # the smallest singular value (|det| of a well-conditioned matrix can be far
        # below tol); a lifted tensor is a diagonal, whose smallest is its least |entry|
        s = np.abs(m) if m.ndim == 1 else np.linalg.svd(m, compute_uv=False)
        return bool(s.min() > self.tol)
