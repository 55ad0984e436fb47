"""Floating-point cross-check backend.

``NumpyOps`` is the numpy side of the backend protocol that every checker
is written against (see groupalg.ExactAlgebraOps): exact objects are
pushed through the regular representation into numpy complex matrices,
every product and sum of lifted objects is taken in floating arithmetic,
and equality is an absolute entrywise tolerance (1e-9 by default,
matrices stay small).  This is an independent numerical sanity path next
to the exact backend, never a replacement for it.
"""

from __future__ import annotations

import numpy as np

from .groupalg import GroupSpec, TensorElement
from .linalg import Matrix

DEFAULT_TOL = 1e-9


def matrix_complex(m: Matrix) -> np.ndarray:
    return np.array(m.to_complex(), dtype=complex)


def tensor_complex(spec: GroupSpec, t: TensorElement) -> np.ndarray:
    """Regular image of a tensor element as a numpy matrix.

    The image of a basis term g^(a_1) (x) ... (x) g^(a_k) is the permutation
    matrix sending basis index j to the index of its exponents shifted by
    a_1 .. a_k, so each coefficient is scattered into one cell per column;
    the row of every cell is computed from the term's exponents.
    """
    d, legs = spec.dimension, t.legs
    size = d ** legs
    out = np.zeros((size, size), dtype=complex)
    if not t.terms:
        return out
    orders = np.array(spec.orders)
    strides = d // np.cumprod(orders)  # first factor most significant
    digits = np.array(list(spec.basis())).reshape(d, len(orders))
    keys = np.array(list(t.terms), dtype=int).reshape(len(t.terms), legs, len(orders))
    coeffs = np.array([c.to_complex() for c in t.terms.values()])
    # shifted[term, leg, j]: index of basis element j shifted by that leg's exponents
    shifted = ((digits[None, None] + keys[:, :, None]) % orders) @ strides
    cols = np.arange(size)
    rows = np.zeros((len(coeffs), size), dtype=int)
    for leg in range(legs):
        place = d ** (legs - 1 - leg)
        rows += shifted[:, leg, (cols // place) % d] * place
    np.add.at(out, (rows, cols), coeffs[:, None])
    return out


class NumpyOps:
    """The numpy backend: lifts into complex arrays, compares within tol."""

    def __init__(self, tol: float = DEFAULT_TOL):
        self.tol = tol

    def tensor(self, t: TensorElement) -> np.ndarray:
        return tensor_complex(t.spec, t)

    def matrix(self, m: Matrix) -> np.ndarray:
        return matrix_complex(m)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def kron(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.kron(a, b)

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=complex)

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= self.tol)

    def invertible(self, m: np.ndarray) -> bool:
        # the smallest singular value: |det| of a well-conditioned matrix can be far below tol
        return bool(np.linalg.svd(m, compute_uv=False)[-1] > self.tol)
