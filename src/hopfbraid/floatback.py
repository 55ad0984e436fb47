"""Floating-point cross-check backend.

``NumpyOps`` is the numpy side of the backend protocol that every checker
is written against (see groupalg.ExactAlgebraOps).  A tensor element is
lifted to the diagonal of its regular image in the character basis, taken
by numpy's FFT, so tensor products are elementwise; a matrix is lifted to
a dense numpy complex matrix, and R' built from its source r is scattered
from r's complex coefficients by index arrays (braided_complex), so no
exact matrix is built for it.  Every product and sum is taken in floating
arithmetic, and equality is an absolute entrywise tolerance (1e-9 by
default, the arrays stay small).  This is an independent numerical sanity
path next to the exact backend, never a replacement for it: it shares no
arithmetic with the exact character transform.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .groupalg import GroupSpec, TensorElement
from .linalg import Matrix

DEFAULT_TOL = 1e-9


def matrix_complex(m: Matrix) -> np.ndarray:
    return np.array(m.to_complex(), dtype=complex)


def braided_complex(r: TensorElement) -> np.ndarray:
    """flip . (rho (x) rho)(r) for a two-leg element r, as a dense complex
    matrix built from r's terms with index arrays: the term c g^a (x) g^b
    sends e_x (x) e_y to c e_(b+y) (x) e_(a+x).  The group acts freely, so
    distinct reduced terms reach distinct cells: each cell is one
    coefficient's to_complex, as matrix_complex of the exact matrix gives
    it (np.add.at still sums keys that reduce to one term)."""
    spec = r.spec
    d, orders = spec.dimension, np.array(spec.orders)
    place = np.array([prod(spec.orders[i + 1:]) for i in range(len(orders))])
    digits = np.array(list(spec.basis())).reshape(d, -1)
    # added[a, x]: the spec index of g^a g^x
    added = ((digits[:, None] + digits[None]) % orders) @ place
    keys = np.array([sum(key, ()) for key in r.terms], dtype=np.intp).reshape(-1, 2, len(orders))
    a, b = ((keys % orders) @ place).T
    x, y = np.divmod(np.arange(d * d), d)
    out = np.zeros((d * d, d * d), dtype=complex)
    np.add.at(out, (added[b[:, None], y] * d + added[a[:, None], x], np.arange(d * d)),
              np.array([c.to_complex() for c in r.terms.values()])[:, None])
    return out


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
        """A braidrep.BraidedRMatrix: scattered from its source when it has
        one, so no exact matrix is built, else its matrix lifted."""
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
