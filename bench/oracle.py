"""Output checks computed apart from cframe, with numpy alone.

Every fiber form is rebuilt from the generated blocks:

    Phi   = C'^H (sum_i M_i^H W M_i) C     the family form
    Gamma = W K W^-1 K^H W                 the form of x -> <K* x, K* x>
    W                                      the weight, the form of <x, x>

The optimal squared bounds are extremal eigenvalues of the definite
pencils (Phi, Gamma) and (Phi, W). They are computed by the Cholesky
reduction G = L L^H, eigvalsh(L^-1 Phi L^-H) (Golub and Van Loan,
Matrix Computations, section 8.7), never by calling cframe and never
from a saved copy of its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BOUND_RTOL = 1e-8
RESIDUAL_MAX = 1e-9
SLACK_RTOL = 1e-9
ATTAINED_RTOL = 1e-8
IDENTITY_RESIDUAL_MAX = 1e-12


@dataclass(frozen=True)
class FiberForms:
    phi: np.ndarray
    gamma: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True)
class Oracle:
    """Forms per fiber and the optimal squared bounds they imply."""

    forms: tuple[FiberForms, ...]
    lower_sq: np.ndarray
    upper_sq: np.ndarray


def _herm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def fiber_forms(gs) -> tuple[FiberForms, ...]:
    out = []
    for j, w in enumerate(gs.weights):
        gram = sum(member[j].conj().T @ w @ member[j] for member in gs.family)
        phi = gs.control_prime[j].conj().T @ gram @ gs.control[j]
        k = gs.comparison[j]
        gamma = _herm(w @ k @ np.linalg.solve(w, k.conj().T @ w))
        out.append(FiberForms(phi, gamma, w))
    return tuple(out)


def _reduce(p: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L^-1 P L^-H, L) for the Cholesky factor of the definite g."""
    chol = np.linalg.cholesky(g)
    half = np.linalg.solve(chol, _herm(p))
    return _herm(np.linalg.solve(chol, half.conj().T)), chol


def pencil_eigvals(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(_reduce(p, g)[0])


def oracle(gs) -> Oracle:
    forms = fiber_forms(gs)
    low = np.array([pencil_eigvals(f.phi, f.gamma)[0] for f in forms])
    up = np.array([pencil_eigvals(f.phi, f.weight)[-1] for f in forms])
    return Oracle(forms, low, up)


def extremal_vector(p: np.ndarray, g: np.ndarray, which: str) -> np.ndarray:
    """A vector x with x^H g x = 1 at which x^H p x / x^H g x is extremal."""
    reduced, chol = _reduce(p, g)
    _, vecs = np.linalg.eigh(reduced)
    y = vecs[:, 0] if which == "min" else vecs[:, -1]
    return np.linalg.solve(chol.conj().T, y)


def _rel_gap(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def certificate_problems(orc: Oracle, status, lower, upper, lower_residual,
                         upper_residual) -> list[str]:
    """Everything wrong with a certificate for a generated frame.

    lower and upper are the per-fiber bound values (complex numbers).
    """
    problems = []
    if status != "frame":
        problems.append(f"status {status!r}, expected 'frame'")
    for name, res in (("lower_residual", lower_residual),
                      ("upper_residual", upper_residual)):
        if not res <= RESIDUAL_MAX:
            problems.append(f"{name} {res!r} above {RESIDUAL_MAX}")
    lower = np.asarray(lower, dtype=complex)
    upper = np.asarray(upper, dtype=complex)
    if lower.shape != orc.lower_sq.shape or upper.shape != orc.upper_sq.shape:
        return problems + ["bound length does not match the fiber count"]
    for j in range(orc.lower_sq.size):
        for side, got, want in (("lower", lower[j], orc.lower_sq[j]),
                                ("upper", upper[j], orc.upper_sq[j])):
            gap = _rel_gap(abs(got) ** 2, want)
            if not gap <= BOUND_RTOL:
                problems.append(f"fiber {j}: |{side}|^2 off the oracle "
                                f"eigenvalue by relative {gap:.3g}")
    return problems


def form_values(orc: Oracle, xs: np.ndarray):
    """x^H Phi x, x^H Gamma x and x^H W x per vector and fiber.

    xs has shape (count, fibers, dim); all fibers share one dimension.
    """
    phi = np.stack([f.phi for f in orc.forms])
    gamma = np.stack([f.gamma for f in orc.forms])
    w = np.stack([f.weight for f in orc.forms])

    def quad(m):
        return np.einsum("sjn,jnm,sjm->sj", xs.conj(), m, xs)

    return quad(phi), quad(gamma).real, quad(w).real


def slack_problems(orc: Oracle, a_sq, b_sq, xs, slack_lower, slack_upper,
                   lower_ok, upper_ok) -> list[list[str]]:
    """Problems per check_at call at the certified bounds.

    slack_lower and slack_upper are cframe's slacks, shape (count,
    fibers); the oracle recomputes them from the forms.
    """
    mid, gam, wx = form_values(orc, xs)
    want_low = mid - a_sq[None, :] * gam
    want_up = b_sq[None, :] * wx - mid
    scale = 1.0 + np.abs(mid) + a_sq[None, :] * gam + b_sq[None, :] * wx
    bad_low = np.abs(slack_lower - want_low) > SLACK_RTOL * scale
    bad_up = np.abs(slack_upper - want_up) > SLACK_RTOL * scale
    out = []
    for s in range(xs.shape[0]):
        p = []
        if not lower_ok[s]:
            p.append("lower inequality reported violated")
        if not upper_ok[s]:
            p.append("upper inequality reported violated")
        if bad_low[s].any() or bad_up[s].any():
            p.append("slacks differ from the numpy evaluation")
        out.append(p)
    return out


def attained_problems(orc: Oracle, xs, slack, side: str) -> list[str]:
    """At extremal eigenvectors one slack must vanish on every fiber."""
    mid = form_values(orc, xs[None])[0][0]
    gap = np.abs(slack) / np.maximum(np.abs(mid), 1e-300)
    if np.all(gap <= ATTAINED_RTOL):
        return []
    return [f"{side} slack at the extremal eigenvector is "
            f"{float(gap.max()):.3g} of the form, the bound is not attained"]


# -- the command line reports ---------------------------------------------

def _pairs(value) -> np.ndarray:
    return np.array([complex(re, im) for re, im in value])


def certify_report_problems(doc: dict, orc: Oracle) -> list[str]:
    res = doc.get("result", {})
    if doc.get("command") != "certify":
        return ["report is not a certify report"]
    return certificate_problems(
        orc, res.get("status"), _pairs(res.get("lower", [])),
        _pairs(res.get("upper", [])), res.get("lower_residual"),
        res.get("upper_residual"))


def invq_report_problems(doc: dict, orc: Oracle, q) -> list[str]:
    """Verified bracket with bounds A/|q^-1| and B|q| (flat weights)."""
    res = doc.get("result", {})
    if doc.get("command") != "transform-invq":
        return ["report is not a transform-invq report"]
    problems = [] if res.get("verified") is True else ["invq not verified"]
    moduli = np.concatenate([np.abs(np.diag(b)) for b in q])
    q_norm, q_inv_norm = moduli.max(), 1.0 / moduli.min()
    want_low = np.sqrt(orc.lower_sq) / q_inv_norm
    want_up = np.sqrt(orc.upper_sq) * q_norm
    for side, got, want in (("lower", res.get("lower", []), want_low),
                            ("upper", res.get("upper", []), want_up)):
        got = np.abs(_pairs(got))
        if got.shape != want.shape or not np.all(
                np.abs(got - want) <= BOUND_RTOL * want):
            problems.append(f"invq {side} is not the bracket corner")
    return problems


def example_report_problems(doc: dict, alpha: float, beta: float) -> list[str]:
    res = doc.get("result", {})
    if doc.get("command") != "example":
        return ["report is not an example report"]
    n = res.get("n")
    problems = []
    if not isinstance(n, int) or n < 3:
        return ["example report without a truncation length"]
    fitted = np.abs(_pairs(res.get("fitted_lower", [])))
    odd = range(3, n + 1, 2)
    want = np.array([math.sqrt(alpha * beta / m) for m in odd])
    got = fitted[[m - 1 for m in odd]] if fitted.size == n else None
    if got is None or not np.all(np.abs(got - want) <= BOUND_RTOL * want):
        problems.append("fitted_lower is not sqrt(alpha beta / n) on the "
                        "odd fibers")
    nominal = all(
        math.isclose(math.sqrt(alpha * beta / k),
                     math.sqrt(alpha * beta / (2 * k + 1)), rel_tol=1e-12)
        for k in range(1, (n - 1) // 2 + 1))
    if res.get("nominal_matches") is not nominal:
        problems.append(f"nominal_matches is {res.get('nominal_matches')!r}, "
                        f"expected {nominal}")
    ident = res.get("identity_residual")
    if not (isinstance(ident, float) and ident <= IDENTITY_RESIDUAL_MAX):
        problems.append(f"identity_residual {ident!r} above "
                        f"{IDENTITY_RESIDUAL_MAX}")
    return problems


def selftest_report_problems(doc: dict) -> list[str]:
    if doc.get("command") != "selftest":
        return ["report is not a selftest report"]
    if doc.get("result", {}).get("all_pass") is not True:
        return ["selftest all_pass is not true"]
    return []
