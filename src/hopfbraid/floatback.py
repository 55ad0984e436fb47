"""Floating-point cross-check backend.

``NumpyOps`` is the numpy side of the backend protocol that every checker
is written against (see groupalg.ExactAlgebraOps).  Its tensor half is
MonomialOps', linalg.DiagonalOps: each element is lifted once to the
diagonal of its regular image in the character basis, here by numpy's FFT
(tensor_complex, in MonomialOps' layout and sign), and R_ij and the
coproducts are gathers of that lift.  R' built from its source r is
flip . Gamma(R), Gamma(R) = T diag(D) T^-1 with D r's diagonal and T the
spec's numeric character matrix on two legs (braided_complex); any other
matrix is lifted to a dense numpy complex matrix.  Products and sums are
taken in floating arithmetic, and equality is an absolute entrywise
tolerance (1e-9 by default, the arrays stay small).  This is an
independent numerical sanity path next to the exact backend, never a
replacement for it: it shares no arithmetic with the exact character
transform.
"""

from __future__ import annotations

import numpy as np

from .groupalg import GroupSpec, TensorElement
from .linalg import DiagonalOps, Matrix, flip_index, term_positions

DEFAULT_TOL = 1e-9


def matrix_complex(m: Matrix) -> np.ndarray:
    return np.array(m.to_complex(), dtype=complex)


def braided_complex(r: TensorElement, diagonal: np.ndarray | None = None) -> np.ndarray:
    """flip . Gamma(R) for a two-leg element r, as a dense complex matrix:
    Gamma(R) = T diag(D) T^-1, D = tensor_complex(r), T = F (x) F and F the
    spec's character matrix (linalg.character_basis on each factor), here d
    times the inverse FFT of I's columns.  T^-1 = conj(T)^T / d^2.  A caller
    that holds r's lift already passes it as diagonal, and no FFT of r is
    taken."""
    spec, d = r.spec, r.spec.dimension
    orders = _transformed(spec.orders)
    f = np.fft.ifftn(np.eye(d).reshape(orders * 2), axes=range(len(orders))).reshape(d, d)
    t = np.kron(f, f) * (d * d)
    if diagonal is None:
        diagonal = tensor_complex(spec, r)
    gamma = (t * diagonal) @ t.conj().T / (d * d)
    return gamma[flip_index(d, d)]


def tensor_complex(spec: GroupSpec, t: TensorElement) -> np.ndarray:
    """Diagonal of the regular image of a k-leg tensor element in the
    character basis, F^(-k) rho^(x)k(t) F^(k) with F as in
    linalg.character_basis: the FFT (sign -1) of the coefficient array with
    one axis per cyclic factor of order above 1 of each leg, first leg most
    significant, the layout of linalg.MonomialOps.tensor.  A 1-D array of
    length d^k."""
    cells, values = term_positions(t)
    coeffs = np.zeros(spec.dimension ** t.legs, dtype=complex)
    coeffs[cells] = [c.to_complex() for c in values]
    return np.fft.fftn(coeffs.reshape(_transformed(spec.orders * t.legs))).ravel()


def _transformed(orders) -> list[int]:
    """The orders above 1: a length-1 axis transforms to itself, and numpy
    holds at most 64 axes."""
    return [n for n in orders if n > 1]


class NumpyOps(DiagonalOps):
    """The numpy backend: lifts into complex arrays, compares within tol."""

    def __init__(self, tol: float = DEFAULT_TOL):
        self.tol = tol
        self._cache: dict = {}

    def _diagonal(self, t: TensorElement) -> np.ndarray:
        lift = tensor_complex(t.spec, t)
        lift.flags.writeable = False  # every later lift of t is this array
        return lift

    def _take(self, lift: np.ndarray, index) -> np.ndarray:
        return lift[index]

    def matrix(self, m: Matrix) -> np.ndarray:
        return matrix_complex(m)

    def braided(self, b) -> np.ndarray:
        """A braidrep.BraidedRMatrix: built from its source when it has one
        (braided_complex, on the source's cached lift), so no exact matrix is
        built, else its matrix lifted."""
        if b.source is None:
            return matrix_complex(b.matrix)
        return braided_complex(b.source, diagonal=self.tensor(b.source))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b

    def kron(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.kron(a, b)

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=complex)

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= self.tol)

    def invertible(self, m: np.ndarray) -> bool:
        # a square matrix's smallest singular value (|det| of a well-conditioned one can
        # be far below tol); a lifted tensor is a diagonal, whose smallest is its least |entry|
        s = np.abs(m) if m.ndim == 1 else np.linalg.svd(m, compute_uv=False)
        return m.shape[0] == m.shape[-1] and bool(s.min() > self.tol)
