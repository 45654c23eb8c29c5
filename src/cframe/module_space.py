"""Finite Hilbert modules over the tuple algebra.

A module is a direct sum of one finite-dimensional complex space per
character, each carrying a Hermitian positive-definite weight.  The
algebra-valued inner product reads, fiber by fiber,

    <x, y>_j = y_j^H W_j x_j

which is linear in the first slot and conjugate-linear in the second.
All positivity and adjoint formulas downstream are stated against these
weights, so the space precomputes W^(1/2), W^(-1/2) and W^(-1) once.
It also groups its fibers by dimension once (`groups`); the frame forms
and the commutation checks keep one stack per group.

A vector keeps its parts end to end in one read-only buffer (`flat`),
made by the one copy its constructor takes of the input, with the parts
as read-only views into it; check_at reads a group's parts from that
buffer without stacking them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import Algebra, AlgebraElement
from .errors import SpaceMismatch
from .spectral import (_as_matrix, _require_definite, _require_hermitian,
                       size_groups)

_HERM_RTOL = 1e-12


def _check_weight(w, j: int):
    """Hermitian part and eigh of w, checked square, Hermitian within
    _HERM_RTOL and definite by spectral._require_definite."""
    name = f"fiber {j}: weight"
    w = _require_hermitian(_as_matrix(w, name), name, _HERM_RTOL)
    return (w, *_require_definite(w, name))


@dataclass(frozen=True, eq=False)
class ModuleSpace:
    """Direct sum of weighted fibers, one per algebra character."""

    algebra: Algebra
    dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.dims) != self.algebra.d:
            raise ValueError("need one fiber per algebra character")
        if len(self.weights) != self.algebra.d:
            raise ValueError("need one weight per fiber")
        dims = tuple(int(n) for n in self.dims)
        if any(n < 1 for n in dims):
            raise ValueError("fiber dimensions must be positive")
        ws, sq, isq, inv = [], [], [], []
        for j, (n, w) in enumerate(zip(dims, self.weights)):
            w, lam, u = _check_weight(w, j)
            if w.shape[0] != n:
                raise ValueError(f"fiber {j}: weight shape does not match dim")
            root = np.sqrt(lam)
            ws.append(_frozen(w))
            sq.append(_frozen((u * root) @ u.conj().T))
            isq.append(_frozen((u / root) @ u.conj().T))
            inv.append(_frozen((u / lam) @ u.conj().T))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "weights", tuple(ws))
        object.__setattr__(self, "_w_sqrt", tuple(sq))
        object.__setattr__(self, "_w_isqrt", tuple(isq))
        object.__setattr__(self, "_w_inv", tuple(inv))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ModuleSpace):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.dims == other.dims
            and all(np.array_equal(a, b) for a, b in zip(self.weights, other.weights))
        )

    def __hash__(self):
        return hash((self.algebra, self.dims))

    @cached_property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Fiber indices grouped by dimension, in order of first
        appearance and ascending within a group; the unit of stacked
        work (one (g, n, n) stack per group)."""
        return tuple(tuple(idx) for idx in size_groups(self.weights))

    def weight_sqrt(self, j: int) -> np.ndarray:
        return self._w_sqrt[j]

    def weight_isqrt(self, j: int) -> np.ndarray:
        return self._w_isqrt[j]

    def weight_inv(self, j: int) -> np.ndarray:
        return self._w_inv[j]

    def vector(self, parts) -> ModuleVector:
        return ModuleVector(self, tuple(parts))

    def zero_vector(self) -> ModuleVector:
        return ModuleVector(
            self, tuple(np.zeros(n, dtype=np.complex128) for n in self.dims)
        )


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    arr.setflags(write=False)
    return arr


def make_space(algebra: Algebra, fibers) -> ModuleSpace:
    """Build a space from a list of fiber specs.

    Each entry is either an int (dimension, identity weight) or a pair
    (dimension, weight matrix).
    """
    dims, weights = [], []
    for spec in fibers:
        if isinstance(spec, tuple):
            n, w = spec
            dims.append(int(n))
            weights.append(np.array(w, dtype=np.complex128))
        else:
            n = int(spec)
            dims.append(n)
            weights.append(np.eye(n, dtype=np.complex128))
    return ModuleSpace(algebra, tuple(dims), tuple(weights))


@dataclass(frozen=True, eq=False)
class ModuleVector:
    """One complex column per fiber, held in one buffer.

    flat: the parts end to end in fiber order, a read-only copy of the
        input made once, by the constructor.
    parts: read-only views into flat, part j of length dims[j].
    """

    space: ModuleSpace
    parts: tuple[np.ndarray, ...]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dims = self.space.dims
        if len(self.parts) != len(dims):
            raise ValueError("need one part per fiber")
        arrs = [np.asarray(p, dtype=np.complex128).reshape(-1)
                for p in self.parts]
        for j, (n, arr) in enumerate(zip(dims, arrs)):
            if arr.shape != (n,):
                raise ValueError(f"fiber {j}: part has wrong length")
        flat = np.concatenate(arrs)
        flat.setflags(write=False)
        # Slices of a read-only array are read-only views.
        parts = []
        end = 0
        for n in dims:
            parts.append(flat[end:end + n])
            end += n
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "parts", tuple(parts))

    def _check(self, other: ModuleVector):
        if not isinstance(other, ModuleVector):
            raise SpaceMismatch("expected a module vector")
        if other.space != self.space:
            raise SpaceMismatch("vectors live in different spaces")

    def __add__(self, other):
        self._check(other)
        return ModuleVector(
            self.space, tuple(a + b for a, b in zip(self.parts, other.parts))
        )

    def __sub__(self, other):
        self._check(other)
        return ModuleVector(
            self.space, tuple(a - b for a, b in zip(self.parts, other.parts))
        )

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return ModuleVector(self.space, tuple(scalar * p for p in self.parts))

    __rmul__ = __mul__

    def __neg__(self):
        return ModuleVector(self.space, tuple(-p for p in self.parts))


def inner_product(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """Algebra-valued inner product, linear in x.

    Coordinate j is y_j^H W_j x_j.
    """
    if x.space != y.space:
        raise SpaceMismatch("inner product needs vectors from one space")
    vals = np.array(
        [
            y.parts[j].conj() @ (x.space.weights[j] @ x.parts[j])
            for j in range(len(x.space.dims))
        ],
        dtype=np.complex128,
    )
    return AlgebraElement(x.space.algebra, vals)


def module_action(a: AlgebraElement, x: ModuleVector) -> ModuleVector:
    """Scale fiber j of x by coordinate j of a."""
    if a.algebra != x.space.algebra:
        raise SpaceMismatch("element and vector belong to different algebras")
    return ModuleVector(
        x.space, tuple(a.values[j] * x.parts[j] for j in range(a.algebra.d))
    )


def module_norm(x: ModuleVector) -> float:
    """Norm induced by the inner product: sqrt of the largest fiber energy."""
    worst = 0.0
    for j in range(len(x.space.dims)):
        e = float((x.parts[j].conj() @ (x.space.weights[j] @ x.parts[j])).real)
        worst = max(worst, e)
    return float(np.sqrt(max(worst, 0.0)))
