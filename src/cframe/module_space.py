"""Finite Hilbert modules over the tuple algebra.

A module is a direct sum of one finite-dimensional complex space per
character, each carrying a Hermitian positive-definite weight.  The
algebra-valued inner product reads, fiber by fiber,

    <x, y>_j = y_j^H W_j x_j

which is linear in the first slot and conjugate-linear in the second.
All positivity and adjoint formulas downstream are stated against these
weights.  The space groups its fibers by dimension once (`groups`) and
keeps one read-only (4, g, n, n) stack per group, of W, W^(-1), W^(1/2)
and W^(-1/2), from one stacked eigh, or I without one for a group whose
every W is I (unweighted, so products skip its factors: group_stacks);
`weights` are per-fiber views into it.  Operators hold their blocks the
same way, and every stacked computation downstream reads these stacks.

A vector keeps its parts end to end in one read-only buffer (`flat`),
the parts being views into it, in a layout the space owns (`spans`,
`gathers`, `order`).  Arithmetic acts on `flat`; operators, inner
products and norms run once per group.  Only the public constructor
checks; vectors computed here are built by _of_flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, AlgebraElement
from .errors import NotDefinite, NotHermitian, SpaceMismatch
from .spectral import (_adjoint, _as_matrix, _fiber_views, _finite_fibers,
                       _require_definite, _require_hermitian)

_HERM_RTOL = 1e-12
_UNWEIGHTED = (None,) * 4  # its factors, which spectral._chain skips


def _groups(keys) -> tuple[tuple[int, ...], ...]:
    """Indices of keys grouped by equal key, in order of first
    appearance and ascending within a group."""
    out: dict = {}
    for j, key in enumerate(keys):
        out.setdefault(key, []).append(j)
    return tuple(tuple(idx) for idx in out.values())


def _gathers(dims, groups) -> tuple[slice | np.ndarray, ...]:
    """Per group, where its fibers' parts lie in a vector's flat, one
    member after the other: a slice when the fibers are consecutive,
    else an index array."""
    starts = np.cumsum((0,) + tuple(dims))
    return tuple(
        slice(int(starts[idx[0]]), int(starts[idx[-1] + 1]))
        if idx[-1] - idx[0] == len(idx) - 1
        else np.add.outer(starts[list(idx)], np.arange(dims[idx[0]])).ravel()
        for idx in groups)


def _weight_stacks(dims, weights, groups):
    """The (4, g, n, n) stacks of the groups' weights, each checked to
    be an n x n matrix, Hermitian within _HERM_RTOL and definite by
    _require_definite, with one eigh per group, and per group whether
    every W equals I: its stack is then I, the bytes the eigh gives,
    without one.  When a group fails, the weights are checked again
    fiber by fiber, so the error raised is the first failing check of
    the lowest faulty fiber."""
    stacks, unweighted = [], []
    try:
        for idx in groups:
            raw = np.stack([np.asarray(weights[j], dtype=np.complex128)
                            for j in idx])
            if raw.shape[1:] != (dims[idx[0]],) * 2:
                raise ValueError("weight shape does not match dim")
            eye = np.eye(dims[idx[0]], dtype=np.complex128)
            unweighted.append(bool((raw == eye).all()))
            if unweighted[-1]:
                stack = np.tile(eye, (4, len(idx), 1, 1))
            else:
                w = _require_hermitian(raw, "W", _HERM_RTOL)
                lam, u = _require_definite(w, "W")
                lam, uh = lam[:, None, :], _adjoint(u)
                root = np.sqrt(lam)
                stack = np.stack([w, (u / lam) @ uh, (u * root) @ uh,
                                  (u / root) @ uh])
            stack.setflags(write=False)
            stacks.append(stack)
        return tuple(stacks), tuple(unweighted)
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
    _unweighted: per group, whether its every W equals I.
    weights: per fiber, W_j as a read-only view into its group's stack.
    spans: per fiber, the slice of ModuleVector.flat that holds its part.
    gathers: per group, where its parts lie in ModuleVector.flat.
    order: the permutation that puts values listed group by group back
        in fiber order, None when the groups list the fibers in order.
    """

    algebra: Algebra
    dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    groups: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    stacks: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _unweighted: tuple[bool, ...] = field(init=False, repr=False)
    spans: tuple[slice, ...] = field(init=False, repr=False)
    gathers: tuple[slice | np.ndarray, ...] = field(init=False, repr=False)
    order: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.dims) != self.algebra.d:
            raise ValueError("need one fiber per algebra character")
        if len(self.weights) != self.algebra.d:
            raise ValueError("need one weight per fiber")
        dims = tuple(int(n) for n in self.dims)
        if any(n < 1 for n in dims):
            raise ValueError("fiber dimensions must be positive")
        groups = _groups(dims)
        stacks, unweighted = _weight_stacks(dims, self.weights, groups)
        listed, ends = np.concatenate(groups), np.cumsum(dims).tolist()
        for name, value in (
                ("dims", dims), ("groups", groups), ("stacks", stacks),
                ("_unweighted", unweighted),
                ("weights", _fiber_views(groups, [s[0] for s in stacks])),
                ("spans", tuple(slice(e - n, e) for n, e in zip(dims, ends))),
                ("gathers", _gathers(dims, groups)),
                ("order", None if np.array_equal(listed, np.arange(len(dims)))
                 else np.argsort(listed))):
            object.__setattr__(self, name, value)

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

    def group_stacks(self, groups) -> tuple:
        """The weight factors of groups of fibers of equal dimension,
        such as an operator's block-shape groups: _UNWEIGHTED for a
        group whose fibers all lie in unweighted groups, else its
        (4, g, n, n) stack, the space's own or gathered from them."""
        if groups == self.groups:
            return tuple(_UNWEIGHTED if u else s
                         for u, s in zip(self._unweighted, self.stacks))
        fibers = _fiber_views(self.groups,
                              [s.swapaxes(0, 1) for s in self.stacks])
        plain = {j for u, idx in zip(self._unweighted, self.groups) if u
                 for j in idx}
        return tuple(_UNWEIGHTED if plain.issuperset(idx)
                     else np.stack([fibers[j] for j in idx], axis=1)
                     for idx in groups)

    def group_gathers(self, groups) -> tuple[slice | np.ndarray, ...]:
        """The gathers of other groups, such as an operator's."""
        return (self.gathers if groups == self.groups
                else _gathers(self.dims, groups))

    def zero_vector(self) -> ModuleVector:
        return _of_flat(self, np.zeros(sum(self.dims), dtype=np.complex128))


def make_space(algebra: Algebra, fibers) -> ModuleSpace:
    """Build a space from a list of fiber specs.

    Each entry is either an int (dimension, identity weight) or a pair
    (dimension, weight matrix).
    """
    dims, weights = [], []
    for spec in fibers:
        n, w = spec if isinstance(spec, tuple) else (spec, np.eye(int(spec)))
        dims.append(int(n))
        weights.append(np.array(w, dtype=np.complex128))
    return ModuleSpace(algebra, tuple(dims), tuple(weights))


@dataclass(frozen=True, eq=False)
class ModuleVector:
    """One complex column per fiber, held in one buffer.

    flat: the parts end to end in fiber order, read-only; the public
        constructor makes it as one checked copy of the input.
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
        self._hold(self.space, np.concatenate(arrs))

    def _hold(self, space, flat) -> ModuleVector:
        """Take `flat`, which nothing else holds, as the read-only buffer."""
        flat.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "flat", flat)
        # Slices of a read-only array are read-only views.
        object.__setattr__(self, "parts",
                           tuple([flat[s] for s in space.spans]))
        return self

    def _check(self, other: ModuleVector):
        if not isinstance(other, ModuleVector):
            raise SpaceMismatch("expected a module vector")
        if other.space != self.space:
            raise SpaceMismatch("vectors live in different spaces")

    def __add__(self, other):
        self._check(other)
        return _of_flat(self.space, self.flat + other.flat)

    def __sub__(self, other):
        self._check(other)
        return _of_flat(self.space, self.flat - other.flat)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return _of_flat(self.space, scalar * self.flat)

    __rmul__ = __mul__

    def __neg__(self):
        return _of_flat(self.space, -self.flat)


def _of_flat(space: ModuleSpace, flat: np.ndarray) -> ModuleVector:
    """The vector with buffer `flat`, built without a copy or a check."""
    return object.__new__(ModuleVector)._hold(space, flat)


def _form_values(space: ModuleSpace, mats, x: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """The (k, d) values y_j^H M x_j, in fiber order, of k forms M per
    fiber, x and y the buffers of two vectors of space and mats per
    group a (g, k n, n) stack, fiber i's k forms one above the other in
    its block i: one matmul and one vecdot per group."""
    chunks = []
    for gather, m in zip(space.gathers, mats):
        g, n = len(m), m.shape[-1]
        p = x[gather].reshape(g, n)
        q = p if y is x else y[gather].reshape(g, n)
        chunks.append(np.vecdot(q[:, None, :],
                                (m @ p[..., None]).reshape(g, -1, n)))
    vals = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return (vals if space.order is None else vals[space.order]).T


def inner_product(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """Algebra-valued inner product, linear in x.

    Coordinate j is y_j^H W_j x_j.
    """
    if x.space != y.space:
        raise SpaceMismatch("inner product needs vectors from one space")
    return AlgebraElement(x.space.algebra, _form_values(
        x.space, [w[0] for w in x.space.stacks], x.flat, y.flat)[0])


def module_action(a: AlgebraElement, x: ModuleVector) -> ModuleVector:
    """Scale fiber j of x by coordinate j of a."""
    if a.algebra != x.space.algebra:
        raise SpaceMismatch("element and vector belong to different algebras")
    return _of_flat(x.space, np.repeat(a.values, x.space.dims) * x.flat)


def module_norm(x: ModuleVector) -> float:
    """Norm induced by the inner product: sqrt of the largest fiber
    energy.  NotFinite names the lowest fiber whose energy is not
    finite, or overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        energy = _form_values(x.space, [w[0] for w in x.space.stacks],
                              x.flat, x.flat)[0].real
    _finite_fibers((range(len(energy)),), [energy],
                   lambda j: f"fiber {j}: the energy of a vector")
    return float(np.sqrt(max(0.0, float(energy.max()))))
