"""Finite Hilbert modules over the tuple algebra.

A module is a direct sum of one finite-dimensional complex space per
character, each carrying a Hermitian positive-definite weight.  The
algebra-valued inner product reads, fiber by fiber,

    <x, y>_j = y_j^H W_j x_j

which is linear in the first slot and conjugate-linear in the second.
All positivity and adjoint formulas downstream are stated against these
weights.  The space groups its fibers by dimension once (`groups`) and
keeps one read-only (4, g, n, n) stack per group, of W, W^(-1), W^(1/2)
and W^(-1/2), from one stacked eigh; `weights` are per-fiber views into
it.  Operators hold their blocks the same way, and every stacked
computation downstream reads these stacks.

A vector keeps its parts end to end in one read-only buffer (`flat`),
made by the one copy its constructor takes of the input, with the parts
as read-only views into it; check_at reads a group's parts from that
buffer without stacking them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, AlgebraElement
from .errors import NotDefinite, NotHermitian, SpaceMismatch
from .spectral import (_adjoint, _as_matrix, _fiber_views, _require_definite,
                       _require_hermitian)

_HERM_RTOL = 1e-12


def _groups(keys) -> tuple[tuple[int, ...], ...]:
    """Indices of keys grouped by equal key, in order of first
    appearance and ascending within a group."""
    out: dict = {}
    for j, key in enumerate(keys):
        out.setdefault(key, []).append(j)
    return tuple(tuple(idx) for idx in out.values())


def _weight_stacks(dims, weights, groups) -> tuple[np.ndarray, ...]:
    """The (4, g, n, n) stacks of the groups' weights, each checked to
    be an n x n matrix, Hermitian within _HERM_RTOL and definite by
    _require_definite, with one eigh per group.  When a group fails, the
    weights are checked again fiber by fiber, so the error raised is the
    first failing check of the lowest faulty fiber."""
    stacks = []
    try:
        for idx in groups:
            raw = np.stack([np.asarray(weights[j], dtype=np.complex128)
                            for j in idx])
            if raw.shape[1:] != (dims[idx[0]],) * 2:
                raise ValueError("weight shape does not match dim")
            w = _require_hermitian(raw, "W", _HERM_RTOL)
            lam, u = _require_definite(w, "W")
            lam, uh = lam[:, None, :], _adjoint(u)
            root = np.sqrt(lam)
            stack = np.stack([w, (u / lam) @ uh, (u * root) @ uh,
                              (u / root) @ uh])
            stack.setflags(write=False)
            stacks.append(stack)
        return tuple(stacks)
    except (ValueError, NotHermitian, NotDefinite) as exc:
        error = exc
    for j, (n, w) in enumerate(zip(dims, weights)):
        name = f"fiber {j}: weight"
        w = _require_hermitian(_as_matrix(w, name), name, _HERM_RTOL)
        _require_definite(w, name)
        if w.shape[0] != n:
            raise ValueError(f"fiber {j}: weight shape does not match dim")
    raise error


@dataclass(frozen=True, eq=False)
class ModuleSpace:
    """Direct sum of weighted fibers, one per algebra character.

    groups: the fiber indices grouped by dimension, in order of first
        appearance and ascending within a group; the unit of stacked
        work.
    stacks: per group, one read-only (4, g, n, n) array that holds W,
        W^(-1), W^(1/2) and W^(-1/2) of its g fibers, in that order.
    weights: per fiber, W_j as a read-only view into its group's stack.
    """

    algebra: Algebra
    dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    groups: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    stacks: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.dims) != self.algebra.d:
            raise ValueError("need one fiber per algebra character")
        if len(self.weights) != self.algebra.d:
            raise ValueError("need one weight per fiber")
        dims = tuple(int(n) for n in self.dims)
        if any(n < 1 for n in dims):
            raise ValueError("fiber dimensions must be positive")
        groups = _groups(dims)
        stacks = _weight_stacks(dims, self.weights, groups)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "stacks", stacks)
        object.__setattr__(self, "weights",
                           _fiber_views(groups, [s[0] for s in stacks]))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ModuleSpace):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.dims == other.dims
            and all(np.array_equal(a[0], b[0])
                    for a, b in zip(self.stacks, other.stacks))
        )

    def __hash__(self):
        return hash((self.algebra, self.dims))

    def group_stacks(self, groups) -> tuple[np.ndarray, ...]:
        """The (4, g, n, n) weight stacks of other groups of fibers of
        equal dimension, such as an operator's block-shape groups: the
        space's own stacks for its own groups, else gathered from them."""
        if groups == self.groups:
            return self.stacks
        fibers = _fiber_views(self.groups,
                              [s.swapaxes(0, 1) for s in self.stacks])
        return tuple(np.stack([fibers[j] for j in idx], axis=1)
                     for idx in groups)

    def vector(self, parts) -> ModuleVector:
        return ModuleVector(self, tuple(parts))

    def zero_vector(self) -> ModuleVector:
        return ModuleVector(
            self, tuple(np.zeros(n, dtype=np.complex128) for n in self.dims)
        )


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
