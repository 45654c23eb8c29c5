"""Seeded generators for random algebras, spaces, operators and systems.

Shared between the test suites and the CLI selftest, so both exercise
the same distribution of instances.  Systems produced here satisfy the
commutation hypotheses by construction: either the controls are fiber
scalars, or the family members have diagonal Gram blocks so diagonal
controls slide through them.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra
from .frames import ControlledFrameSystem, frame_system
from .module_space import ModuleSpace, ModuleVector, make_space
from .operators import ModuleOperator, identity


def random_hpd(rng, n: int, *, cond: float = 10.0) -> np.ndarray:
    """Hermitian positive definite with eigenvalues spread up to cond."""
    q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(q)
    lam = np.exp(rng.uniform(0.0, np.log(cond), size=n))
    lam = lam / np.sqrt(lam.min() * lam.max())
    return (u * lam) @ u.conj().T


def random_unitary(rng, n: int) -> np.ndarray:
    q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, r = np.linalg.qr(q)
    return u * (np.diag(r) / np.abs(np.diag(r)))


def random_space(rng, algebra: Algebra, dims, *,
                 weights: str = "identity") -> ModuleSpace:
    fibers = []
    for n in dims:
        if weights == "identity":
            fibers.append(int(n))
        elif weights == "random":
            fibers.append((int(n), random_hpd(rng, int(n))))
        else:
            raise ValueError(f"unknown weight style {weights!r}")
    return make_space(algebra, fibers)


def random_vector(rng, space: ModuleSpace) -> ModuleVector:
    parts = tuple(
        (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        for n in space.dims
    )
    return ModuleVector(space, parts)


def random_operator(rng, domain: ModuleSpace,
                    codomain: ModuleSpace | None = None) -> ModuleOperator:
    codomain = domain if codomain is None else codomain
    blocks = tuple(
        (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        / np.sqrt(2.0)
        for m, n in zip(codomain.dims, domain.dims)
    )
    return ModuleOperator(domain, codomain, blocks)


def random_operator_rank_deficient(rng, space: ModuleSpace) -> ModuleOperator:
    """One rank-deficient block per fiber, for inclusion tests."""
    blocks = []
    for n in space.dims:
        r = max(1, n - 1)
        a = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
        b = (rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n)))
        blocks.append((a @ b) / np.sqrt(2.0))
    return ModuleOperator(space, space, tuple(blocks))


def random_operator_in_range(rng, t: ModuleOperator) -> ModuleOperator:
    """t composed with a random factor, so ranges nest by construction."""
    blocks = tuple(
        b @ ((rng.standard_normal((b.shape[1], b.shape[1]))
              + 1j * rng.standard_normal((b.shape[1], b.shape[1])))
             / np.sqrt(2.0))
        for b in t.blocks
    )
    return ModuleOperator(t.domain, t.codomain, blocks)


def escape_operator(rng, t: ModuleOperator) -> ModuleOperator:
    """Adds a rank-one piece orthogonal to each deficient range."""
    blocks = []
    for b in t.blocks:
        u, s, _ = np.linalg.svd(b)
        rank = int(np.sum(s > 1e-10 * max(1.0, s[0] if s.size else 1.0)))
        if rank >= b.shape[0]:
            blocks.append(b)
            continue
        w = u[:, -1]
        v = rng.standard_normal(b.shape[1]) + 1j * rng.standard_normal(b.shape[1])
        blocks.append(b + np.outer(w, v))
    return ModuleOperator(t.domain, t.codomain, tuple(blocks))


def scalar_glplus(rng, space: ModuleSpace, *, lo: float = 0.5,
                  hi: float = 2.0) -> ModuleOperator:
    """One positive scalar per fiber; commutes with everything."""
    blocks = tuple(
        rng.uniform(lo, hi) * np.eye(n, dtype=np.complex128)
        for n in space.dims
    )
    return ModuleOperator(space, space, blocks)


def diagonal_glplus(rng, space: ModuleSpace, *, lo: float = 0.5,
                    hi: float = 2.0) -> ModuleOperator:
    """Entrywise positive diagonal; positive invertible for flat weights."""
    blocks = tuple(
        np.diag(rng.uniform(lo, hi, size=n)).astype(np.complex128)
        for n in space.dims
    )
    return ModuleOperator(space, space, blocks)


def diagonal_operator(rng, space: ModuleSpace, *, lo: float = 0.5,
                      hi: float = 2.0, complex_phase: bool = True) -> ModuleOperator:
    mods = [rng.uniform(lo, hi, size=n) for n in space.dims]
    if complex_phase:
        phases = [np.exp(2j * np.pi * rng.uniform(size=n)) for n in space.dims]
    else:
        phases = [np.ones(n) for n in space.dims]
    blocks = tuple(
        np.diag(m * p).astype(np.complex128) for m, p in zip(mods, phases)
    )
    return ModuleOperator(space, space, blocks)


def unitary_diag_family(rng, space: ModuleSpace, count: int, *,
                        lo: float = 0.5, hi: float = 1.5) -> tuple[ModuleOperator, ...]:
    """Family members U diag(s): their Gram blocks are diagonal.

    Diagonal controls therefore commute with every T* T, which keeps
    the commutation flags green without collapsing to scalars.
    """
    fam = []
    for _ in range(count):
        blocks = []
        for n in space.dims:
            u = random_unitary(rng, n)
            s = rng.uniform(lo, hi, size=n)
            blocks.append((u * s).astype(np.complex128))
        fam.append(ModuleOperator(space, space, tuple(blocks)))
    return tuple(fam)


def generic_family(rng, space: ModuleSpace,
                   count: int) -> tuple[ModuleOperator, ...]:
    return tuple(random_operator(rng, space) for _ in range(count))


def random_system(rng, *, d: int = 2, dims=None, ops: int = 3,
                  controls: str = "diagonal", comparison: str = "diagonal",
                  weights: str = "identity", family: str = "unitary_diag",
                  cmp_lo: float = 0.5,
                  cmp_hi: float = 2.0) -> ControlledFrameSystem:
    """A certifiable random system with the requested structure.

    controls: "diagonal" (needs flat weights and a unitary_diag family),
    "scalar" (commutes with anything), or "identity".
    comparison: "diagonal", "identity", or "generic".
    """
    alg = Algebra(d)
    if dims is None:
        dims = [int(rng.integers(1, 5)) for _ in range(d)]
    space = random_space(rng, alg, dims, weights=weights)
    if family == "unitary_diag":
        fam = unitary_diag_family(rng, space, ops)
    elif family == "generic":
        fam = generic_family(rng, space, ops)
    else:
        raise ValueError(f"unknown family style {family!r}")
    if controls == "diagonal":
        c = diagonal_glplus(rng, space)
        cp = diagonal_glplus(rng, space)
    elif controls == "scalar":
        c = scalar_glplus(rng, space)
        cp = scalar_glplus(rng, space)
    elif controls == "identity":
        c = identity(space)
        cp = identity(space)
    else:
        raise ValueError(f"unknown control style {controls!r}")
    if comparison == "diagonal":
        k = diagonal_operator(rng, space, lo=cmp_lo, hi=cmp_hi)
    elif comparison == "identity":
        k = identity(space)
    elif comparison == "generic":
        k = random_operator(rng, space)
    else:
        raise ValueError(f"unknown comparison style {comparison!r}")
    return frame_system(space, fam, control=c, control_prime=cp, comparison=k)
