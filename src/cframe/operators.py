"""Adjointable operators between finite Hilbert modules.

Operators are fiber-preserving: one complex block per character, acting
on the matching fiber.  Adjoints and norms are taken in the weighted
geometry of the spaces, never in the raw Euclidean one, so the block of
the adjoint is W^(-1) M^H V and the operator norm is the largest
singular value of V^(1/2) M W^(-1/2) over the fibers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotFinite, NotInvertible, NotPositive, SpaceMismatch
from .module_space import ModuleSpace, ModuleVector
from .spectral import (_CHECK_RTOL, _finite, fiberwise_pencil_eigvals,
                       hermitian_part)

_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class ModuleOperator:
    """Blockwise linear map between two modules over one algebra."""

    domain: ModuleSpace
    codomain: ModuleSpace
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.domain.algebra != self.codomain.algebra:
            raise SpaceMismatch("domain and codomain use different algebras")
        if len(self.blocks) != len(self.domain.dims):
            raise ValueError("need one block per fiber")
        blocks = []
        for j, b in enumerate(self.blocks):
            arr = np.array(b, dtype=np.complex128)
            if arr.ndim != 2:
                raise ValueError(f"fiber {j}: block must be a matrix")
            want = (self.codomain.dims[j], self.domain.dims[j])
            if arr.shape != want:
                raise ValueError(
                    f"fiber {j}: block shape {arr.shape}, expected {want}"
                )
            arr.setflags(write=False)
            blocks.append(arr)
        object.__setattr__(self, "blocks", tuple(blocks))

    def __call__(self, x: ModuleVector) -> ModuleVector:
        if x.space != self.domain:
            raise SpaceMismatch("vector is not in the operator domain")
        return ModuleVector(
            self.codomain,
            tuple(self.blocks[j] @ x.parts[j] for j in range(len(self.blocks))),
        )

    def __matmul__(self, other: ModuleOperator) -> ModuleOperator:
        return op_compose(self, other)

    def __add__(self, other: ModuleOperator):
        if not isinstance(other, ModuleOperator):
            return NotImplemented
        if other.domain != self.domain or other.codomain != self.codomain:
            raise SpaceMismatch("operator sum needs matching spaces")
        return ModuleOperator(
            self.domain,
            self.codomain,
            tuple(a + b for a, b in zip(self.blocks, other.blocks)),
        )

    def __sub__(self, other: ModuleOperator):
        if not isinstance(other, ModuleOperator):
            return NotImplemented
        if other.domain != self.domain or other.codomain != self.codomain:
            raise SpaceMismatch("operator difference needs matching spaces")
        return ModuleOperator(
            self.domain,
            self.codomain,
            tuple(a - b for a, b in zip(self.blocks, other.blocks)),
        )

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return ModuleOperator(
            self.domain, self.codomain, tuple(scalar * b for b in self.blocks)
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


@dataclass(frozen=True)
class OperatorFlags:
    selfadjoint: bool
    positive: bool
    invertible: bool
    glplus: bool


def identity(space: ModuleSpace) -> ModuleOperator:
    return ModuleOperator(
        space, space, tuple(np.eye(n, dtype=np.complex128) for n in space.dims)
    )


def zero_operator(domain: ModuleSpace, codomain: ModuleSpace | None = None) -> ModuleOperator:
    codomain = domain if codomain is None else codomain
    return ModuleOperator(
        domain,
        codomain,
        tuple(
            np.zeros((m, n), dtype=np.complex128)
            for m, n in zip(codomain.dims, domain.dims)
        ),
    )


def scalar_operator(space: ModuleSpace, value: complex | float) -> ModuleOperator:
    return identity(space) * value


def op_adjoint(t: ModuleOperator) -> ModuleOperator:
    """Adjoint in the weighted inner products: block W^(-1) M^H V."""
    blocks = tuple(
        t.domain.weight_inv(j) @ t.blocks[j].conj().T @ t.codomain.weights[j]
        for j in range(len(t.blocks))
    )
    return ModuleOperator(t.codomain, t.domain, blocks)


def op_compose(t: ModuleOperator, u: ModuleOperator) -> ModuleOperator:
    """Composition t after u."""
    if u.codomain != t.domain:
        raise SpaceMismatch("inner spaces do not match for composition")
    return ModuleOperator(
        u.domain,
        t.codomain,
        tuple(a @ b for a, b in zip(t.blocks, u.blocks)),
    )


def op_norm(t: ModuleOperator) -> float:
    """Operator norm between the weighted geometries.

    Raises NotFinite for a block that is not finite, or overflows.
    """
    worst = 0.0
    for j in range(len(t.blocks)):
        with np.errstate(over="ignore", invalid="ignore"):
            m = (t.codomain.weight_sqrt(j) @ t.blocks[j]
                 @ t.domain.weight_isqrt(j))
        _finite(m, f"fiber {j} of an operator")
        if m.size:
            worst = max(worst, float(np.linalg.norm(m, 2)))
    return worst


def op_classify(t: ModuleOperator) -> OperatorFlags:
    """Selfadjointness, positivity and invertibility of an endomorphism.

    Selfadjointness asks W M to be Hermitian fiberwise and positivity
    asks it to be PSD, both within _CHECK_RTOL; invertibility uses the
    smallest block singular value with a relative cutoff.
    """
    if t.domain != t.codomain:
        raise SpaceMismatch("classification needs an endomorphism")
    selfadjoint = True
    positive = True
    invertible = True
    for j in range(len(t.blocks)):
        with np.errstate(over="ignore", invalid="ignore"):
            wm = t.domain.weights[j] @ t.blocks[j]
            norm = float(np.linalg.norm(wm))
        if not np.isfinite(norm):
            raise NotFinite(f"fiber {j}: the norm of W M is not finite")
        bound = _CHECK_RTOL * max(1.0, norm)
        if np.linalg.norm(wm - wm.conj().T) > bound:
            selfadjoint = False
            positive = False
        elif float(np.linalg.eigvalsh(hermitian_part(wm))[0]) < -bound:
            positive = False
        sv = np.linalg.svd(t.blocks[j], compute_uv=False)
        if sv.size == 0 or sv[-1] <= _SINGULAR_RTOL * max(1.0, sv[0]):
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
    blocks = []
    for j in range(len(t.blocks)):
        s = hermitian_part(
            t.domain.weight_sqrt(j) @ t.blocks[j] @ t.domain.weight_isqrt(j)
        )
        lam, u = np.linalg.eigh(s)
        root = np.sqrt(np.clip(lam, 0.0, None))
        r = (u * root) @ u.conj().T
        blocks.append(t.domain.weight_isqrt(j) @ r @ t.domain.weight_sqrt(j))
    return ModuleOperator(t.domain, t.domain, tuple(blocks))


def op_inverse(t: ModuleOperator) -> ModuleOperator:
    if t.domain != t.codomain:
        raise SpaceMismatch("inverse needs an endomorphism")
    if not op_classify(t).invertible:
        raise NotInvertible("operator has a singular fiber block")
    return ModuleOperator(
        t.codomain, t.domain, tuple(np.linalg.inv(b) for b in t.blocks)
    )


def adjoint_gram_matrix(t: ModuleOperator, j: int) -> np.ndarray:
    """Form matrix of y -> <t* y, t* y> at fiber j: V M W^(-1) M^H V."""
    v = t.codomain.weights[j]
    return hermitian_part(
        v @ t.blocks[j] @ t.domain.weight_inv(j) @ t.blocks[j].conj().T @ v
    )


def adjoint_lower_bound(t: ModuleOperator) -> float:
    """Largest m with <t* x, t* x> >= m <x, x> for every x.

    Positive exactly when t is surjective.  Computed as the smallest
    eigenvalue over fibers of the pencil (V M W^(-1) M^H V, V).
    """
    if t.domain != t.codomain:
        raise SpaceMismatch("adjoint lower bound needs an endomorphism")
    grams = [adjoint_gram_matrix(t, j) for j in range(len(t.blocks))]
    spectra = fiberwise_pencil_eigvals(grams, t.codomain.weights)
    return max(min(float(lam[0]) for lam in spectra), 0.0)
