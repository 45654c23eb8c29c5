"""Finite commutative C*-algebra modeled as complex tuples.

An `Algebra` fixes the number of characters d together with the two
tolerances used throughout the package: `eps_pos` for positivity checks
and `eps_nz` for strict nonzeroness.  Elements hold one complex value
per character.  Product, sum and involution act entrywise, so every
element is normal and the Gelfand picture is literal: character j reads
off coordinate j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositive, SpaceMismatch

DEFAULT_EPS_POS = 1e-10
DEFAULT_EPS_NZ = 1e-8
_ALLCLOSE_RTOL = 1e-12


@dataclass(frozen=True)
class Algebra:
    """Commutative C*-algebra of complex d-tuples with pointwise operations."""

    d: int
    eps_pos: float = DEFAULT_EPS_POS
    eps_nz: float = DEFAULT_EPS_NZ

    def __post_init__(self):
        if (not isinstance(self.d, int) or isinstance(self.d, bool)
                or self.d < 1):
            raise ValueError("character count d must be a positive integer")
        # Written so that NaN fails too.
        if not (0 < self.eps_pos < math.inf and 0 < self.eps_nz < math.inf):
            raise ValueError("tolerances must be positive and finite")

    def element(self, values) -> AlgebraElement:
        return AlgebraElement(self, values)

    def unit(self) -> AlgebraElement:
        return AlgebraElement(self, np.ones(self.d, dtype=np.complex128))

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, np.zeros(self.d, dtype=np.complex128))


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """One complex value per character; immutable after construction."""

    algebra: Algebra
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.complex128).reshape(-1)
        if arr.shape != (self.algebra.d,):
            raise ValueError(
                f"element needs {self.algebra.d} values, got {arr.shape[0]}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def star(self) -> AlgebraElement:
        """Involution: entrywise complex conjugation."""
        return AlgebraElement(self.algebra, np.conj(self.values))

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, AlgebraElement):
            if other.algebra != self.algebra:
                raise SpaceMismatch("elements belong to different algebras")
            return other.values
        if isinstance(other, (int, float, complex)):
            return np.full(self.algebra.d, other, dtype=np.complex128)
        return NotImplemented

    def __add__(self, other):
        vals = self._coerce(other)
        if vals is NotImplemented:
            return NotImplemented
        return AlgebraElement(self.algebra, self.values + vals)

    __radd__ = __add__

    def __sub__(self, other):
        vals = self._coerce(other)
        if vals is NotImplemented:
            return NotImplemented
        return AlgebraElement(self.algebra, self.values - vals)

    def __rsub__(self, other):
        vals = self._coerce(other)
        if vals is NotImplemented:
            return NotImplemented
        return AlgebraElement(self.algebra, vals - self.values)

    def __mul__(self, other):
        vals = self._coerce(other)
        if vals is NotImplemented:
            return NotImplemented
        return AlgebraElement(self.algebra, self.values * vals)

    __rmul__ = __mul__

    def __neg__(self):
        return AlgebraElement(self.algebra, -self.values)

    def allclose(self, other: AlgebraElement) -> bool:
        if other.algebra != self.algebra:
            raise SpaceMismatch("elements belong to different algebras")
        scale = max(1.0, float(np.max(np.abs(self.values))),
                    float(np.max(np.abs(other.values))))
        return bool(np.max(np.abs(self.values - other.values))
                    <= _ALLCLOSE_RTOL * scale)


def _of_values(alg: Algebra, values: np.ndarray) -> AlgebraElement:
    """The element with `values`, a read-only (d,) complex array, built
    without a copy or a check."""
    el = object.__new__(AlgebraElement)
    object.__setattr__(el, "algebra", alg)
    object.__setattr__(el, "values", values)
    return el


def alg_abs(a: AlgebraElement) -> AlgebraElement:
    """Modulus |a| = (a* a)^(1/2), entrywise the complex modulus."""
    return AlgebraElement(a.algebra, np.abs(a.values).astype(np.complex128))


def alg_is_positive(a: AlgebraElement) -> bool:
    """Whether a is positive within the algebra's eps_pos tolerance.

    Coordinate j passes when |imag(a_j)| <= eps_pos * (1 + |a_j|) and
    real(a_j) >= -eps_pos * (1 + |a_j|).
    """
    return bool(positive_rows(a.values, a.algebra.eps_pos))


def positive_rows(values: np.ndarray, eps_pos: float) -> np.ndarray:
    """alg_is_positive for each row of a (..., d) array of element values,
    its two tests in one: negation and maximum are exact and keep NaN."""
    worst = np.maximum(np.abs(values.imag), -values.real)
    return (worst <= eps_pos * (1.0 + np.abs(values))).all(axis=-1)


def alg_is_strictly_nonzero(a: AlgebraElement) -> bool:
    """Whether every coordinate has modulus above eps_nz.

    This is the invertibility margin: strictly nonzero elements are
    exactly the invertible ones in the tuple model, and only those may
    serve as frame bounds.
    """
    return bool(np.all(np.abs(a.values) > a.algebra.eps_nz))


def alg_sqrt(a: AlgebraElement) -> AlgebraElement:
    """Entrywise principal square root of a positive element.

    Raises NotPositive unless alg_is_positive(a).  Tiny negative real
    parts inside the tolerance are clipped to zero before the root.
    """
    if not alg_is_positive(a):
        raise NotPositive("square root requires a positive element")
    vals = np.sqrt(np.clip(a.values.real, 0.0, None))
    return AlgebraElement(a.algebra, vals.astype(np.complex128))


def alg_norm(a: AlgebraElement) -> float:
    """C*-norm: largest coordinate modulus."""
    return float(np.max(np.abs(a.values)))
