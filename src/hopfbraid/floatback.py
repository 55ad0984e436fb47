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
from .linalg import Matrix, regular_representation

DEFAULT_TOL = 1e-9


def matrix_complex(m: Matrix) -> np.ndarray:
    return np.array(m.to_complex(), dtype=complex)


def _basis_mats(spec: GroupSpec) -> dict:
    rep = regular_representation(spec)
    return {exps: matrix_complex(rep.on_basis(exps)) for exps in spec.basis()}


def tensor_complex(spec: GroupSpec, t: TensorElement, mats=None) -> np.ndarray:
    """Regular image of a tensor element as a numpy matrix."""
    if mats is None:
        mats = _basis_mats(spec)
    d = spec.dimension
    size = d ** t.legs
    out = np.zeros((size, size), dtype=complex)
    for key, coeff in t.terms.items():
        m = mats[key[0]]
        for leg in key[1:]:
            m = np.kron(m, mats[leg])
        out += coeff.to_complex() * m
    return out


class NumpyOps:
    """The numpy backend: lifts into complex arrays, compares within tol."""

    def __init__(self, tol: float = DEFAULT_TOL):
        self.tol = tol
        self._mats: dict = {}

    def tensor(self, t: TensorElement) -> np.ndarray:
        mats = self._mats.get(t.spec)
        if mats is None:
            mats = self._mats[t.spec] = _basis_mats(t.spec)
        return tensor_complex(t.spec, t, mats)

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
        return bool(abs(np.linalg.det(m)) > self.tol)
