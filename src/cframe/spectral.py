"""Hermitian pencil solvers and the pseudo-inverse.

Everything bound-shaped in this package reduces to extremal eigenvalues
of a pencil (P, G): two-sided bounds use a definite G, the lower frame
bound against a possibly singular comparison form uses the restricted
variant.  scipy's generalized Hermitian solver does the heavy lifting;
this module owns the validation, the kernel bookkeeping, and the exact
semantics of the restricted infimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NotDefinite, NotHermitian, NotPSD

_CHECK_RTOL = 1e-10


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _as_matrix(m, name: str) -> np.ndarray:
    arr = np.array(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    return arr


def _require_hermitian(m: np.ndarray, name: str, tol: float) -> np.ndarray:
    scale = max(1.0, float(np.linalg.norm(m)))
    if np.linalg.norm(m - m.conj().T) > tol * scale:
        raise NotHermitian(f"{name} is not Hermitian within tolerance")
    return hermitian_part(m)


@dataclass(frozen=True, eq=False)
class PencilResult:
    """Extremal generalized eigenvalues of (P, G) with their vectors.

    Vectors are normalized in the G-inner product, v^H G v = 1.
    """

    lambda_min: float
    lambda_max: float
    vec_min: np.ndarray
    vec_max: np.ndarray


def pencil_extremes(p, g, *, tol: float = _CHECK_RTOL) -> PencilResult:
    """Solve P v = lambda G v for the smallest and largest eigenvalue.

    Parameters
    ----------
    p : array_like
        Hermitian matrix.
    g : array_like
        Hermitian positive-definite matrix of the same shape.
    tol : float
        Relative tolerance for the Hermitian and definiteness checks.

    Raises
    ------
    NotHermitian
        If p (or g) fails the symmetry check.
    NotDefinite
        If g is not positive definite.
    """
    p = _require_hermitian(_as_matrix(p, "P"), "P", tol)
    g = _require_hermitian(_as_matrix(g, "G"), "G", tol)
    if p.shape != g.shape:
        raise ValueError("P and G must have the same shape")
    gscale = max(1.0, float(np.linalg.norm(g)))
    if np.linalg.eigvalsh(g)[0] <= tol * gscale:
        raise NotDefinite("G is not positive definite")
    w, v = scipy.linalg.eigh(p, g)
    return PencilResult(
        lambda_min=float(w[0]),
        lambda_max=float(w[-1]),
        vec_min=v[:, 0].copy(),
        vec_max=v[:, -1].copy(),
    )


def _require_psd(m: np.ndarray, name: str, tol: float) -> np.ndarray:
    m = _require_hermitian(m, name, tol)
    scale = max(1.0, float(np.linalg.norm(m)))
    if np.linalg.eigvalsh(m)[0] < -tol * scale:
        raise NotPSD(f"{name} is not positive semidefinite within tolerance")
    return m


def restricted_pencil_min(p, g, *, tol: float = _CHECK_RTOL,
                          rank_rtol: float = 1e-12) -> float:
    """Infimum of x^H P x / x^H G x over all x with x^H G x > 0.

    Both matrices must be Hermitian PSD.  When G is definite this equals
    the smallest eigenvalue of the pencil (P, G).  When G is singular
    the kernel directions of G still enter the numerator, so the
    infimum is taken after eliminating them: the value is the smallest
    eigenvalue of the Schur complement of P onto range(G), measured
    against G there.  Returns +inf when G vanishes (empty constraint
    set).
    """
    p = _require_psd(_as_matrix(p, "P"), "P", tol)
    g = _require_psd(_as_matrix(g, "G"), "G", tol)
    if p.shape != g.shape:
        raise ValueError("P and G must have the same shape")

    lam, u = np.linalg.eigh(g)
    gmax = float(lam[-1]) if lam.size else 0.0
    if gmax <= max(rank_rtol, tol * max(1.0, float(np.linalg.norm(g)))):
        return float("inf")
    keep = lam > rank_rtol * gmax
    u_r = u[:, keep]
    lam_r = lam[keep]
    if not np.all(keep):
        u_k = u[:, ~keep]
        p_rr = u_r.conj().T @ p @ u_r
        p_rk = u_r.conj().T @ p @ u_k
        p_kk = u_k.conj().T @ p @ u_k
        # PSD P guarantees range(P_kr) inside range(P_kk), so the Schur
        # complement below is the exact minimum over kernel components.
        s = p_rr - p_rk @ np.linalg.pinv(p_kk, rcond=rank_rtol) @ p_rk.conj().T
    else:
        s = u.conj().T @ p @ u
    scaled = (s / np.sqrt(lam_r)[None, :]) / np.sqrt(lam_r)[:, None]
    val = float(np.linalg.eigvalsh(hermitian_part(scaled))[0])
    return max(val, 0.0)


def pinv(m, rtol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with a relative singular-value cutoff.

    Singular values below rtol * sigma_max are treated as zero.
    """
    return np.linalg.pinv(np.array(m, dtype=np.complex128), rcond=rtol)
