"""Hermitian pencil solvers and the pseudo-inverse.

Everything bound-shaped in this package reduces to extremal eigenvalues
of a pencil (P, G): two-sided bounds use a definite G, the lower frame
bound against a possibly singular comparison form uses the restricted
variant.  Definite pencils are solved with numpy alone by the Cholesky
reduction G = L L^H: the eigenvalues of (P, G) are those of the
Hermitian L^-1 P L^-H, and an eigenvector y of it maps back to L^-H y
(Golub and Van Loan, Matrix Computations, section 8.7); for G = I, an
unweighted group's W, it is the plain eigvalsh of P.  numpy's
cholesky, solve and eigh broadcast over (m, n, n) stacks, so fibers of
one dimension share one call.  The public solvers check their
arguments; internal callers pass stacks valid by construction (a
hermitian_part, a space's checked W) to one unchecked solver per
problem, _valid_pencil_eigvals or _restricted_mins.  This module also
owns the kernel bookkeeping, the exact semantics of the restricted
infimum, and the helpers every group stack uses: per-fiber views into
the stacks, products that skip identity weights, the check that names
the lowest non-finite fiber, and +0.0 zeros for a LAPACK operand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import NotDefinite, NotFinite, NotHermitian, NotPSD

_CHECK_RTOL = 1e-10
_RANK_RTOL = 1e-12


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(m, -1, -2).conj()


def _chain(*factors) -> np.ndarray:
    """a @ b @ c ... over the factors that are not None (identity
    weights), associated from the left as Python's @ is."""
    return reduce(np.matmul, [f for f in factors if f is not None])


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + _adjoint(m))


def _as_matrix(m, name: str, *, stacked: bool = False) -> np.ndarray:
    arr = np.array(m, dtype=np.complex128)
    ndims = (2, 3) if stacked else (2,)
    if arr.ndim not in ndims or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"{name} must be a square matrix"
                         + (" or a stack of them" if stacked else ""))
    return arr


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NotFinite(f"{what} is not finite")
    return arr


def _plus_zeros(m: np.ndarray) -> np.ndarray:
    """m with every -0.0 made +0.0: LAPACK's Householder step takes a
    zero's sign, so array_equal operands could decompose differently."""
    return m + 0.0


def _norms(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of a matrix, or of each matrix in a stack.

    A norm that overflows is taken again after dividing by the largest
    modulus, so entries beyond 1e154 keep a finite scale.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(m, axis=(-2, -1))
    if np.isinf(norms).any():
        big = np.abs(m).max(axis=(-2, -1))
        big = np.where(big > 0.0, big, 1.0)  # a zero matrix keeps norm 0
        norms = big * np.linalg.norm(m / big[..., None, None], axis=(-2, -1))
    return norms


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, bit for bit what
    np.linalg.norm gives the matrix alone: the square root of two BLAS
    dots, of the real and of the imaginary entries.  Overflows to inf."""
    flat = m.reshape(*m.shape[:-2], -1)
    return np.sqrt(np.vecdot(flat.real, flat.real)
                   + np.vecdot(flat.imag, flat.imag))


def _fiber_views(groups, stacks) -> tuple[np.ndarray, ...]:
    """Per fiber j = groups[k][i], the view stacks[k][i]."""
    views: list = [None] * sum(map(len, groups))
    for idx, stack in zip(groups, stacks):
        for j, m in zip(idx, stack):
            views[j] = m
    return tuple(views)


def _finite_fibers(groups, arrays, what) -> None:
    """NotFinite naming what(j) for the lowest fiber j whose entry in the
    per-group arrays (entry i of arrays[k] is fiber groups[k][i], a
    matrix or a number) is not finite."""
    bad = [idx[i] for idx, a in zip(groups, arrays) if not np.isfinite(a).all()
           for i in np.flatnonzero(~np.isfinite(a.reshape(len(a), -1)).all(1))]
    if bad:
        raise NotFinite(f"{what(min(bad))} is not finite")


def _require_hermitian(m: np.ndarray, name: str, tol: float) -> np.ndarray:
    scale = np.maximum(1.0, _norms(m))
    if np.any(_norms(m - _adjoint(m)) > tol * scale):
        raise NotHermitian(f"{name} is not Hermitian")
    return hermitian_part(m)


def _require_definite(m: np.ndarray, name: str):
    """eigh of a Hermitian m (or stack) whose smallest eigenvalues all
    exceed _CHECK_RTOL max(1, |m|_F); else NotDefinite names m."""
    lam, u = np.linalg.eigh(m)
    if np.any(lam[..., 0] <= _CHECK_RTOL * np.maximum(1.0, _norms(m))):
        raise NotDefinite(f"{name} is not positive definite")
    return lam, u


@dataclass(frozen=True, eq=False)
class PencilResult:
    """Extremal generalized eigenvalues of (P, G) with their vectors.

    Vectors are normalized in the G-inner product, v^H G v = 1.
    """

    lambda_min: float
    lambda_max: float
    vec_min: np.ndarray
    vec_max: np.ndarray


def pencil_eigh(p, g, *, vectors: bool = False):
    """All eigenvalues of P v = lambda G v, ascending, matrix by matrix.

    p and g are one (n, n) matrix each or two (m, n, n) stacks; each
    pair (p[i], g[i]) is its own pencil, and a stacked call returns
    what the calls on the single pairs return, bit for bit.

    Returns the eigenvalues, shape (n,) or (m, n).  With vectors set it
    returns (eigenvalues, vectors), the vectors as the columns of each
    (n, n) matrix, normalized so that v^H G v = 1.

    Raises
    ------
    NotHermitian
        If a matrix of p (or g) fails the symmetry check.
    NotDefinite
        If a matrix of g fails _require_definite.
    NotFinite
        If a matrix of p, or of the reduced L^-1 P L^-H, is not finite.
    """
    p = _require_hermitian(_as_matrix(p, "P", stacked=True), "P", _CHECK_RTOL)
    g = _require_hermitian(_as_matrix(g, "G", stacked=True), "G", _CHECK_RTOL)
    if p.shape != g.shape:
        raise ValueError("P and G must have the same shape")
    _require_definite(g, "G")
    return _reduced_eigh(p, g, vectors)


def _reduced_eigh(p: np.ndarray, g: np.ndarray, vectors: bool = False):
    """pencil_eigh after its checks: p and g are equal-shape Hermitian
    stacks, g definite by _require_definite."""
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise NotDefinite("G is not positive definite") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.linalg.solve(chol, p)
        reduced = hermitian_part(np.linalg.solve(chol, _adjoint(half)))
    _finite(reduced, "pencil (P, G)")
    if not vectors:
        return np.linalg.eigvalsh(reduced)
    lam, y = np.linalg.eigh(reduced)
    return lam, np.linalg.solve(_adjoint(chol), y)


def _valid_pencil_eigvals(groups, ps, gs) -> tuple[np.ndarray, ...]:
    """pencil_eigh(ps[k], gs[k]) for the (m, n, n) stacks of fibers
    groups[k], unchecked: ps are hermitian_parts, gs a space's checked W
    or None for G = I, which reduces to the checked P.  One read-only
    row of eigenvalues per fiber, in fiber order."""
    lams = [np.linalg.eigvalsh(_finite(p, "pencil (P, G)")) if g is None
            else _reduced_eigh(p, g) for p, g in zip(ps, gs)]
    for lam in lams:
        lam.setflags(write=False)
    return _fiber_views(groups, lams)


def pencil_extremes(p, g) -> PencilResult:
    """Solve P v = lambda G v for the smallest and largest eigenvalue.

    Parameters
    ----------
    p : array_like
        Hermitian matrix.
    g : array_like
        Hermitian positive-definite matrix of the same shape.

    Raises
    ------
    NotHermitian
        If p (or g) fails the symmetry check.
    NotDefinite
        If g is not positive definite.
    """
    w, v = pencil_eigh(_as_matrix(p, "P"), _as_matrix(g, "G"), vectors=True)
    return PencilResult(
        lambda_min=float(w[0]),
        lambda_max=float(w[-1]),
        vec_min=v[:, 0].copy(),
        vec_max=v[:, -1].copy(),
    )


def _require_psd(m: np.ndarray, name: str) -> np.ndarray:
    """Hermitian part of m (or of each matrix in a stack), checked PSD."""
    m = _require_hermitian(m, name, _CHECK_RTOL)
    _check_psd(np.linalg.eigvalsh(m), m, name)
    return m


def _check_psd(lam: np.ndarray, m: np.ndarray, name: str) -> None:
    """NotPSD naming m unless the smallest eigenvalues lam[..., 0] of the
    Hermitian m (or stack) are all >= -_CHECK_RTOL max(1, |m|_F)."""
    if np.any(lam[..., 0] < -_CHECK_RTOL * np.maximum(1.0, _norms(m))):
        raise NotPSD(f"{name} is not positive semidefinite within tolerance")


def restricted_pencil_min(p, g) -> float:
    """Infimum of x^H P x / x^H G x over all x with x^H G x > 0.

    Both matrices must be Hermitian PSD.  When G is definite this equals
    the smallest eigenvalue of the pencil (P, G).  When G is singular
    the kernel directions of G still enter the numerator, so the
    infimum is taken after eliminating them: the value is the smallest
    eigenvalue of the Schur complement of P onto range(G), measured
    against G there.  Returns +inf exactly when G has no positive
    eigenvalue (empty constraint set).
    """
    return restricted_pencil_mins(_as_matrix(p, "P")[None],
                                  _as_matrix(g, "G")[None])[0]


def restricted_pencil_mins(p, g) -> list[float]:
    """restricted_pencil_min(p[i], g[i]) for two (m, n, n) stacks.

    One eigh of the G stack decides every pair.  The pairs whose G
    keeps full rank, every eigenvalue above _RANK_RTOL times the largest
    and that one positive, are solved in one stacked call; a G with a
    kernel takes the Schur complement one pair at a time, and a G
    without a positive eigenvalue gives +inf.
    """
    ps = _require_psd(_as_matrix(p, "P", stacked=True), "P")
    gs = _as_matrix(g, "G", stacked=True)
    return _restricted_mins(ps, _require_hermitian(gs, "G", _CHECK_RTOL))


def _restricted_mins(ps: np.ndarray, gs: np.ndarray) -> list[float]:
    """restricted_pencil_mins for stacks that pass its checks by
    construction, save G's PSD check: ps Hermitian PSD, gs exactly
    Hermitian.  The one eigh of gs decides that check, by _check_psd's
    rule, and the solve."""
    lam, u = np.linalg.eigh(gs)
    _check_psd(lam, gs, "G")
    if ps.shape != gs.shape:
        raise ValueError("P and G must have the same shape")
    out = [float("inf")] * len(gs)
    keep = lam > _RANK_RTOL * lam[..., -1:]
    positive = lam[..., -1] > 0.0
    full = positive & keep.all(axis=-1)
    if full.any():
        u_f = u[full]
        vals = _range_mins(_adjoint(u_f) @ ps[full] @ u_f, lam[full])
        for i, val in zip(np.flatnonzero(full), vals):
            out[i] = val
    for i in np.flatnonzero(positive & ~full):
        u_r, u_k = u[i][:, keep[i]], u[i][:, ~keep[i]]
        p_rr = _adjoint(u_r) @ ps[i] @ u_r
        p_rk = _adjoint(u_r) @ ps[i] @ u_k
        p_kk = _adjoint(u_k) @ ps[i] @ u_k
        # PSD P guarantees range(P_kr) inside range(P_kk), so the Schur
        # complement below is the exact minimum over kernel components.
        s = p_rr - p_rk @ pinv(p_kk) @ _adjoint(p_rk)
        out[i] = _range_mins(s[None], lam[i][keep[i]][None])[0]
    return out


def _range_mins(s: np.ndarray, lam: np.ndarray) -> list[float]:
    """Smallest eigenvalue of lam^(-1/2) S lam^(-1/2) per pair of a
    stack, clamped at 0: the pencil (S, diag(lam)) in G's eigenbasis."""
    root = np.sqrt(lam)
    scaled = (s / root[:, None, :]) / root[:, :, None]
    vals = np.linalg.eigvalsh(hermitian_part(scaled))[:, 0]
    return [max(float(val), 0.0) for val in vals]


def loewner_margins(groups, stacks, low_sq, up_sq) -> np.ndarray:
    """Relative margins of a_j^2 Gamma_j <= Phi_raw,j <= b_j^2 W_j.

    stacks holds per fiber group the (g, 4, n, n) forms phi_raw, gamma,
    W, phi (FiberForms.stacks), low_sq and up_sq a_j^2, b_j^2 by fiber.
    Column j of the (3, d) result: lambda_min(phi_j - a_j^2 gamma_j) and
    lambda_min(b_j^2 W_j - phi_j) over max(1, |phi_j|_F, |b_j^2 W_j|_F),
    and the skew |phi_raw,j - phi_raw,j^H|_F / max(1, |phi_raw,j|_F).
    The inequality holds at every x exactly when the margins are >= 0
    and the skew is 0 (Loewner order; Horn and Johnson, Matrix Analysis,
    7.7).  NotFinite names the lowest fiber whose scaled forms overflow.
    """
    diffs, forms = [], [s.swapaxes(0, 1) for s in stacks]
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, (_, gamma, weight, phi) in zip(groups, forms):
            a2, b2 = (sq[list(idx), None, None] for sq in (low_sq, up_sq))
            up = b2 * weight
            diffs.append((np.stack([phi - a2 * gamma, up - phi]), up))
    _finite_fibers(groups, [t.swapaxes(0, 1) for t, _ in diffs],
                   lambda j: f"bound forms at fiber {j}")
    out = np.empty((3, sum(map(len, groups))))
    for idx, (raw, _, _, phi), (t, up) in zip(groups, forms, diffs):
        scale = np.maximum(1.0, np.maximum(_norms(phi), _norms(up)))
        out[:2, list(idx)] = np.linalg.eigvalsh(t)[..., 0] / scale
        out[2, list(idx)] = (_norms(raw - _adjoint(raw))
                             / np.maximum(1.0, _norms(raw)))
    return out


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with a relative singular-value cutoff.

    Singular values below _RANK_RTOL * sigma_max are treated as zero.
    """
    return np.linalg.pinv(np.array(m, dtype=np.complex128), rcond=_RANK_RTOL)
