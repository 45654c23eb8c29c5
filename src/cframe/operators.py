"""Adjointable operators between finite Hilbert modules.

Operators are fiber-preserving: one complex block per character, acting
on the matching fiber.  End*_A(H) is the direct sum of the fiber matrix
algebras, so an operator keeps one read-only (g, m, n) stack of blocks
per group of fibers of one block shape (an endomorphism's groups are
its space's), and the functions here run once per group.

Adjoints and norms are taken in the weighted geometry of the spaces,
never in the raw Euclidean one, so the block of the adjoint is
W^(-1) M^H V and the operator norm is the largest singular value of
V^(1/2) M W^(-1/2) over the fibers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotFinite, NotInvertible, NotPositive, SpaceMismatch
from .module_space import ModuleSpace, ModuleVector, _groups, _of_flat
from .spectral import (_CHECK_RTOL, _adjoint, _chain, _fiber_views,
                       _finite_fibers, _frobenius, _plus_zeros,
                       _valid_pencil_eigvals, hermitian_part)

_SINGULAR_RTOL = 1e-12
# Below this a Frobenius norm's square is below 1e-300, where its
# entries' squares may have underflowed: _largest_svs does not trust it.
_FROBENIUS_FLOOR = 1e-150


def _block_groups(domain: ModuleSpace, codomain: ModuleSpace):
    """Fibers grouped by block shape; the domain's groups for equal dims."""
    if codomain.dims == domain.dims:
        return domain.groups
    return _groups(zip(codomain.dims, domain.dims))


@dataclass(frozen=True, eq=False)
class ModuleOperator:
    """Blockwise linear map between two modules over one algebra.

    groups: the fiber indices grouped by block shape, in order of first
        appearance and ascending within a group.
    stacks: per group, one read-only (g, m, n) stack of its blocks.
    blocks: per fiber, its block as a read-only view into the stacks.
    """

    domain: ModuleSpace
    codomain: ModuleSpace
    blocks: tuple[np.ndarray, ...]
    groups: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    stacks: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.domain.algebra != self.codomain.algebra:
            raise SpaceMismatch("domain and codomain use different algebras")
        if len(self.blocks) != len(self.domain.dims):
            raise ValueError("need one block per fiber")
        blocks = []
        for j, b in enumerate(self.blocks):
            arr = np.asarray(b, dtype=np.complex128)
            if arr.ndim != 2:
                raise ValueError(f"fiber {j}: block must be a matrix")
            want = (self.codomain.dims[j], self.domain.dims[j])
            if arr.shape != want:
                raise ValueError(
                    f"fiber {j}: block shape {arr.shape}, expected {want}"
                )
            blocks.append(arr)
        self._hold(self.domain, self.codomain,
                   [np.stack([blocks[j] for j in idx])
                    for idx in _block_groups(self.domain, self.codomain)])

    def _hold(self, domain, codomain, stacks) -> ModuleOperator:
        """Make the arrays `stacks`, which nothing else holds, this
        operator's read-only group stacks, with blocks viewing them."""
        groups, stacks = _block_groups(domain, codomain), tuple(stacks)
        for stack in stacks:
            stack.setflags(write=False)
        for name, value in (("domain", domain), ("codomain", codomain),
                            ("groups", groups), ("stacks", stacks),
                            ("blocks", _fiber_views(groups, stacks))):
            object.__setattr__(self, name, value)
        return self

    def __call__(self, x: ModuleVector) -> ModuleVector:
        if x.space != self.domain:
            raise SpaceMismatch("vector is not in the operator domain")
        return _apply(self, x, np.matmul)

    def __matmul__(self, other: ModuleOperator) -> ModuleOperator:
        return op_compose(self, other)

    def _elementwise(self, other, fn, what: str):
        if not isinstance(other, ModuleOperator):
            return NotImplemented
        if other.domain != self.domain or other.codomain != self.codomain:
            raise SpaceMismatch(f"operator {what} needs matching spaces")
        return _of_stacks(
            self.domain, self.codomain,
            [fn(a, b) for a, b in zip(self.stacks, other.stacks)])

    def __add__(self, other: ModuleOperator):
        return self._elementwise(other, np.add, "sum")

    def __sub__(self, other: ModuleOperator):
        return self._elementwise(other, np.subtract, "difference")

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return _of_stacks(
            self.domain, self.codomain, [scalar * s for s in self.stacks])

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def _of_stacks(domain: ModuleSpace, codomain: ModuleSpace,
               stacks) -> ModuleOperator:
    """The operator with group stacks `stacks`, built without a copy."""
    return object.__new__(ModuleOperator)._hold(domain, codomain, stacks)


def _apply(t: ModuleOperator, x: ModuleVector, fn) -> ModuleVector:
    """fn(stack, parts) per group of t, the parts of x as a (g, n, 1)
    stack: t(x) with np.matmul, z with t(z) = x with np.linalg.solve."""
    flat = np.empty(sum(t.codomain.dims), dtype=np.complex128)
    for into, fro, m in zip(t.codomain.group_gathers(t.groups),
                            t.domain.group_gathers(t.groups), t.stacks):
        flat[into] = fn(m, x.flat[fro].reshape(len(m), -1, 1)).reshape(-1)
    return _of_flat(t.codomain, flat)


@dataclass(frozen=True)
class OperatorFlags:
    selfadjoint: bool
    positive: bool
    invertible: bool
    glplus: bool


def identity(space: ModuleSpace) -> ModuleOperator:
    return _of_stacks(space, space, [np.eye(w.shape[-1]) + np.zeros_like(w[0])
                                     for w in space.stacks])


def zero_operator(domain: ModuleSpace, codomain: ModuleSpace | None = None) -> ModuleOperator:
    codomain = domain if codomain is None else codomain
    return _of_stacks(domain, codomain, [
        np.zeros((len(idx), codomain.dims[idx[0]], domain.dims[idx[0]]),
                 dtype=np.complex128)
        for idx in _block_groups(domain, codomain)])


def scalar_operator(space: ModuleSpace, value: complex | float) -> ModuleOperator:
    return identity(space) * value


def op_adjoint(t: ModuleOperator) -> ModuleOperator:
    """Adjoint in the weighted inner products: block W^(-1) M^H V, kept
    C-contiguous where it is M^H, so products with it sum alike."""
    w, v = t.domain.group_stacks(t.groups), t.codomain.group_stacks(t.groups)
    return _of_stacks(t.codomain, t.domain, [
        np.ascontiguousarray(_chain(a[1], _adjoint(m), b[0]))
        for a, m, b in zip(w, t.stacks, v)])


def op_compose(t: ModuleOperator, u: ModuleOperator) -> ModuleOperator:
    """Composition t after u, group by group when t, u and the result
    share their groups, else block by block."""
    if u.codomain != t.domain:
        raise SpaceMismatch("inner spaces do not match for composition")
    if t.groups == u.groups == _block_groups(u.domain, t.codomain):
        return _of_stacks(
            u.domain, t.codomain, [a @ b for a, b in zip(t.stacks, u.stacks)])
    return ModuleOperator(
        u.domain,
        t.codomain,
        tuple(a @ b for a, b in zip(t.blocks, u.blocks)),
    )


def _largest_svs(domain: ModuleSpace, codomain: ModuleSpace, groups, stacks,
                 what, exact: bool = True) -> list[tuple[float, float]]:
    """Per member b of a batch of maps from domain to codomain, given as
    stacks[k] of shape (B, g, m, n), the blocks of every member at the
    fibers groups[k]: the largest singular value s of V^(1/2) M W^(-1/2)
    over the member's blocks M, with W of the domain and V of the
    codomain, as the pair (s, s).  The product is M where both spaces
    leave the group unweighted (ModuleSpace.group_stacks).

    With exact unset, no SVD: the pair is the bracket (max_j F_j /
    sqrt(min(m, n)), max_j F_j) around s, F_j the Frobenius norm of the
    product at fiber j (Golub and Van Loan 2.3); its upper end is inf
    if an F_j overflows or is below _FROBENIUS_FLOOR for a nonzero
    product, and its lower end is then taken over the other fibers.

    A member whose stack of a group is exactly zero adds 0 there without
    a product or an SVD.  Raises NotFinite naming what(b, j) for the
    lowest member b, and in it the lowest fiber j, whose product is not
    finite, or overflows.
    """
    w, v = domain.group_stacks(groups), codomain.group_stacks(groups)
    lives, prods = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for a, m, b in zip(w, stacks, v):
            live = np.flatnonzero(m.reshape(len(m), -1).any(axis=1))
            lives.append(live)
            prods.append(_chain(b[2], m if len(live) == len(m)
                                else m[live], a[3]))
    bad = [(int(live[i]), idx[f])
           for live, idx, p in zip(lives, groups, prods)
           for i, f in zip(*np.nonzero(~np.isfinite(p).all(axis=(-2, -1))))]
    if bad:
        raise NotFinite(f"{what(*min(bad))} is not finite")
    lo, hi = np.zeros((2, len(stacks[0])))
    for live, p in zip(lives, prods):
        if len(live):
            if exact:
                top = least = np.linalg.svd(
                    _plus_zeros(p), compute_uv=False).max(-1)
            else:
                f = _frobenius(p)  # callers ignore overflow: inf is blind
                blind = np.isinf(f) | ((f < _FROBENIUS_FLOOR)
                                       & p.any(axis=(-2, -1)))
                top = np.where(blind, np.inf, f)
                least = np.where(blind, 0.0, f) / np.sqrt(min(p.shape[-2:]))
            hi[live] = np.maximum(hi[live], top.max(axis=1))
            lo[live] = np.maximum(lo[live], least.max(axis=1))
    return list(zip(lo.tolist(), hi.tolist()))


def op_norm(t: ModuleOperator) -> float:
    """Operator norm between the weighted geometries.

    Raises NotFinite naming the lowest fiber whose block is not finite,
    or overflows.
    """
    return _largest_svs(t.domain, t.codomain, t.groups,
                        [s[None] for s in t.stacks],
                        lambda b, j: f"fiber {j} of an operator")[0][1]


def op_classify(t: ModuleOperator) -> OperatorFlags:
    """Selfadjointness, positivity and invertibility of an endomorphism.

    Selfadjointness asks W M to be Hermitian fiberwise and positivity
    asks it to be PSD, both within _CHECK_RTOL; invertibility uses the
    smallest block singular value with a relative cutoff.  Raises
    NotFinite naming the lowest fiber where |W M|_F is not finite.
    """
    if t.domain != t.codomain:
        raise SpaceMismatch("classification needs an endomorphism")
    with np.errstate(over="ignore", invalid="ignore"):
        wms = [_chain(w[0], m)
               for w, m in zip(t.domain.group_stacks(t.groups), t.stacks)]
        norms = [_frobenius(wm) for wm in wms]
    _finite_fibers(t.groups, norms, lambda j: f"fiber {j}: the norm of W M")
    selfadjoint = True
    positive = True
    invertible = True
    for wm, norm, m in zip(wms, norms, t.stacks):
        bound = _CHECK_RTOL * np.maximum(1.0, norm)
        skew = _frobenius(wm - _adjoint(wm)) > bound
        lam = np.linalg.eigvalsh(hermitian_part(wm))[:, 0]
        if skew.any():
            selfadjoint = False
            positive = False
        elif np.any(lam < -bound):
            positive = False
        sv = np.linalg.svd(m, compute_uv=False)
        if np.any(sv[:, -1] <= _SINGULAR_RTOL * np.maximum(1.0, sv[:, 0])):
            invertible = False
    return OperatorFlags(
        selfadjoint=selfadjoint,
        positive=positive,
        invertible=invertible,
        glplus=positive and invertible,
    )


def op_sqrt(t: ModuleOperator) -> ModuleOperator:
    """Principal square root of a positive endomorphism.

    Computed through the Hermitian conjugate W^(1/2) M W^(-1/2): its
    eigenvalue square root is pulled back to a positive operator whose
    square reproduces t.
    """
    flags = op_classify(t)
    if not flags.positive:
        raise NotPositive("square root requires a positive operator")
    stacks = []
    for w, m in zip(t.domain.group_stacks(t.groups), t.stacks):
        lam, u = np.linalg.eigh(hermitian_part(_chain(w[2], m, w[3])))
        root = np.sqrt(np.clip(lam, 0.0, None))[:, None, :]
        stacks.append(_chain(w[3], (u * root) @ _adjoint(u), w[2]))
    return _of_stacks(t.domain, t.domain, stacks)


def op_inverse(t: ModuleOperator) -> ModuleOperator:
    if t.domain != t.codomain:
        raise SpaceMismatch("inverse needs an endomorphism")
    if not op_classify(t).invertible:
        raise NotInvertible("operator has a singular fiber block")
    return _of_stacks(
        t.codomain, t.domain, [np.linalg.inv(s) for s in t.stacks])


def _adjoint_grams(t: ModuleOperator) -> list[np.ndarray]:
    """Per group of t, the stack of the Hermitian part of V M W^(-1) M^H V."""
    w, v = t.domain.group_stacks(t.groups), t.codomain.group_stacks(t.groups)
    return [hermitian_part(_chain(b[0], m, a[1], _adjoint(m), b[0]))
            for a, m, b in zip(w, t.stacks, v)]


def adjoint_lower_bound(t: ModuleOperator) -> float:
    """Largest m with <t* x, t* x> >= m <x, x> for every x.

    Positive exactly when t is surjective.  Computed as the smallest
    eigenvalue over fibers of the pencil (V M W^(-1) M^H V, V), one
    stacked solve per group.
    """
    if t.domain != t.codomain:
        raise SpaceMismatch("adjoint lower bound needs an endomorphism")
    spectra = _valid_pencil_eigvals(t.groups, _adjoint_grams(t), [
        w[0] for w in t.domain.group_stacks(t.groups)])
    return max(min(float(lam[0]) for lam in spectra), 0.0)
