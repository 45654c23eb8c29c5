"""Seeded inputs for the benchmark workloads, built with numpy alone.

A generated system keeps its raw numpy blocks, which the output checks
read, and renders the JSON document cframe parses. Every system is a
frame by construction: the controls are positive and invertible, they
commute with the family Gram blocks and with the comparison operator,
and the comparison operator is invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS_POS = 1e-10
EPS_NZ = 1e-8


@dataclass(frozen=True)
class GeneratedSystem:
    """Blocks indexed by fiber; family[i][j] is member i at fiber j."""

    weights: tuple[np.ndarray, ...]
    family: tuple[tuple[np.ndarray, ...], ...]
    control: tuple[np.ndarray, ...]
    control_prime: tuple[np.ndarray, ...]
    comparison: tuple[np.ndarray, ...]
    q: tuple[np.ndarray, ...] | None = None

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w in self.weights)


def rng_for(seed: int, salt: int) -> np.random.Generator:
    """Independent stream per (benchmark seed, input kind)."""
    return np.random.default_rng([seed, salt])


def _cgauss(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _unitary(rng, n: int) -> np.ndarray:
    u, r = np.linalg.qr(_cgauss(rng, (n, n)))
    return u * (np.diag(r) / np.abs(np.diag(r)))


def _hpd(rng, n: int, cond: float = 10.0) -> np.ndarray:
    lam = np.exp(rng.uniform(0.0, np.log(cond), size=n))
    u = _unitary(rng, n)
    return (u * lam) @ u.conj().T


def _phased_diag(rng, n: int) -> np.ndarray:
    mod = rng.uniform(0.5, 2.0, size=n)
    return np.diag(mod * np.exp(2j * np.pi * rng.uniform(size=n)))


def diagonal_system(rng, dims, family_size: int, *,
                    with_q: bool = False) -> GeneratedSystem:
    """Flat weights, members U diag(s), diagonal controls and comparison.

    Each member's Gram block is diagonal, so the diagonal controls
    commute with it; the comparison is diagonal with complex phases.
    """
    dims = [int(n) for n in dims]
    fam = tuple(
        tuple(_unitary(rng, n) * rng.uniform(0.5, 1.5, size=n) for n in dims)
        for _ in range(family_size)
    )
    return GeneratedSystem(
        weights=tuple(np.eye(n, dtype=complex) for n in dims),
        family=fam,
        control=tuple(np.diag(rng.uniform(0.5, 2.0, size=n)) + 0j
                      for n in dims),
        control_prime=tuple(np.diag(rng.uniform(0.5, 2.0, size=n)) + 0j
                            for n in dims),
        comparison=tuple(_phased_diag(rng, n) for n in dims),
        q=tuple(_phased_diag(rng, n) for n in dims) if with_q else None,
    )


def dense_system(rng, fibers: int, dim: int,
                 family_size: int) -> GeneratedSystem:
    """Random HPD weights, dense real family, scalar controls, dense K.

    Scalar controls commute with everything. The comparison is a
    unitary times a diagonal with moduli in [0.5, 2], so it is
    invertible and well conditioned. Family entries are real numbers
    in the file, which keeps the JSON to one number per entry.
    """
    scale = 1.0 / np.sqrt(dim)
    fam = tuple(
        tuple(rng.standard_normal((dim, dim)) * scale + 0j
              for _ in range(fibers))
        for _ in range(family_size)
    )
    return GeneratedSystem(
        weights=tuple(_hpd(rng, dim) for _ in range(fibers)),
        family=fam,
        control=tuple(rng.uniform(0.5, 2.0) * np.eye(dim, dtype=complex)
                      for _ in range(fibers)),
        control_prime=tuple(rng.uniform(0.5, 2.0) * np.eye(dim, dtype=complex)
                            for _ in range(fibers)),
        comparison=tuple(_unitary(rng, dim) * rng.uniform(0.5, 2.0, size=dim)
                         for _ in range(fibers)),
    )


def _matrix_doc(m: np.ndarray) -> list:
    """Row-major entries: plain numbers when real, else [re, im] pairs."""
    if not np.any(m.imag):
        return m.real.tolist()
    return np.stack((m.real, m.imag), axis=-1).tolist()


def to_doc(gs: GeneratedSystem) -> dict:
    """The system description file cframe reads, as a parsed JSON value."""
    fibers = []
    for w in gs.weights:
        f: dict = {"dim": w.shape[0]}
        if not np.array_equal(w, np.eye(w.shape[0])):
            f["weight"] = _matrix_doc(w)
        fibers.append(f)
    ops = {f"T{i}": [_matrix_doc(b) for b in member]
           for i, member in enumerate(gs.family)}
    ops["C"] = [_matrix_doc(b) for b in gs.control]
    ops["Cp"] = [_matrix_doc(b) for b in gs.control_prime]
    ops["K"] = [_matrix_doc(b) for b in gs.comparison]
    doc = {
        "algebra": {"d": len(gs.weights), "eps_pos": EPS_POS,
                    "eps_nz": EPS_NZ},
        "space": {"fibers": fibers},
        "operators": ops,
        "frame": {"family": [f"T{i}" for i in range(len(gs.family))],
                  "control": "C", "control_prime": "Cp", "comparison": "K"},
    }
    if gs.q is not None:
        ops["Q"] = [_matrix_doc(b) for b in gs.q]
        doc["task"] = {"q": "Q"}
    return doc
