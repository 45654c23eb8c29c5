"""Worked example: odd-coordinate sampling on a weighted sequence space.

The module space truncates the weighted sequence module with inner
product <x, y>_n = x_n conj(y_n)/n to N coordinates, one fiber per
index.  The family member for index k picks out coordinate 2k+1 and
scales it by 1/sqrt(2k+1); the controls are the scalars alpha and
beta.  The comparison map reads off the odd coordinates, which is not
algebra-linear fiber by fiber, so its two displayed forms are evaluated
directly rather than through an operator block.

The family form collapses to alpha beta |x_{2k+1}|^2/(2k+1)^2 on the
odd fibers.  Fitting the tight lower scaling against the comparison
form gives sqrt(alpha beta/(2k+1)) per odd fiber; the nominal scaling
sqrt(alpha beta)/sqrt(k) that is usually quoted for this construction
does not reproduce the sum, and the certificate records that
discrepancy instead of hiding it.

Every fiber is one-dimensional, so each form is one coefficient per
fiber times |x_n|^2, its value at x = (1, ..., 1), and every check the
certificate reports is a scalar identity per fiber.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import Algebra, AlgebraElement, alg_is_strictly_nonzero
from .errors import BadParameters
from .frames import (ControlledFrameSystem, FrameCertificate, _bound_status,
                     frame_system)
from .module_space import ModuleSpace, ModuleVector, make_space
from .operators import ModuleOperator, _of_stacks, scalar_operator

_EQ_RTOL = 1e-12
# Largest truncation length build_example accepts; its arrays grow as n^2.
_N_MAX = 1001


@dataclass(frozen=True, eq=False)
class ExampleSystem:
    n_max: int
    alpha: float
    beta: float
    space: ModuleSpace
    family: tuple[ModuleOperator, ...]

    @property
    def sample_indices(self) -> tuple[int, ...]:
        """The odd coordinates 2k+1 the family touches, k >= 1."""
        return tuple(2 * k + 1 for k in range(1, (self.n_max - 1) // 2 + 1))

    @cached_property
    def _terms(self):
        """The sampled indices, their columns, each member's block entry
        at its column, and the weight of every fiber."""
        hits = np.array(self.sample_indices, dtype=np.int64)
        cols = hits - 1
        coef = np.array([t.blocks[j][0, 0]
                         for t, j in zip(self.family, cols)],
                        dtype=np.complex128)
        weights = np.concatenate([w.ravel() for w in self.space.weights])
        return hits, cols, coef, weights


def build_example(n_max: int, alpha: float, beta: float) -> ExampleSystem:
    """Assemble the truncated sequence system.

    n_max is the truncation length (at least 3 so the family is
    nonempty, at most _N_MAX); alpha and beta must be positive, and
    alpha, beta and alpha beta finite.
    """
    if not isinstance(n_max, (int, np.integer)) or n_max < 3:
        raise BadParameters("truncation length must be an integer >= 3")
    if n_max > _N_MAX:
        raise BadParameters(f"truncation length must be at most {_N_MAX}")
    if not (alpha > 0 and beta > 0):
        raise BadParameters("control scalars must be positive")
    try:
        alpha, beta = float(alpha), float(beta)
    except OverflowError:  # an int beyond the float range
        alpha = beta = np.inf
    # With both positive, alpha beta is infinite when alpha or beta is.
    if not np.isfinite(alpha * beta):
        raise BadParameters("control scalars and their product must be finite")
    alg = Algebra(int(n_max))
    space = make_space(alg, [(1, [[1.0 / n]]) for n in range(1, n_max + 1)])
    # All fibers are 1-dim: one group, one (n, 1, 1) stack per member.
    family = []
    for k in range(1, (n_max - 1) // 2 + 1):
        hit = 2 * k + 1
        stack = np.zeros((n_max, 1, 1), dtype=np.complex128)
        stack[hit - 1] = 1.0 / np.sqrt(hit)
        family.append(_of_stacks(space, space, [stack]))
    return ExampleSystem(int(n_max), alpha, beta, space, tuple(family))


def as_system(es: ExampleSystem) -> ControlledFrameSystem:
    """The same data as a controlled frame system with scalar controls."""
    return frame_system(
        es.space,
        es.family,
        control=scalar_operator(es.space, es.alpha),
        control_prime=scalar_operator(es.space, es.beta),
    )


def _family_values(es: ExampleSystem, x: np.ndarray) -> np.ndarray:
    """sum_k <L_k C x, L_k C' x> at the flat vector x, term by term.

    Each member is supported on its single sampled fiber, so the term
    is read off the stored block and weight there; the untouched fibers
    contribute exact zeros.
    """
    _, cols, coef, weights = es._terms
    vals = np.zeros(x.shape, dtype=np.complex128)
    vals[cols] = (np.conj(coef * (es.beta * x[cols])) * weights[cols]
                  * (coef * (es.alpha * x[cols])))
    return vals


def _closed_values(es: ExampleSystem, x: np.ndarray) -> np.ndarray:
    """alpha beta |x_{2k+1}|^2/(2k+1)^2 at coordinate 2k+1."""
    hits, cols, _, _ = es._terms
    vals = np.zeros(x.shape, dtype=np.complex128)
    vals[cols] = es.alpha * es.beta * np.abs(x[cols]) ** 2 / hits**2
    return vals


def family_form_element(es: ExampleSystem, x: ModuleVector) -> AlgebraElement:
    """The family sum sum_k <L_k C x, L_k C' x>, term by term."""
    return AlgebraElement(es.space.algebra, _family_values(es, x.flat))


def closed_form_element(es: ExampleSystem, x: ModuleVector) -> AlgebraElement:
    """The closed form alpha beta |x_{2k+1}|^2/(2k+1)^2 of the family sum."""
    return AlgebraElement(es.space.algebra, _closed_values(es, x.flat))


def _gap(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """max |lhs - rhs| / max(1, max |rhs|)."""
    return float(np.abs(lhs - rhs).max()) / max(1.0, float(np.abs(rhs).max()))


@dataclass(frozen=True, eq=False)
class SumIdentity:
    lhs: AlgebraElement
    rhs: AlgebraElement
    residual: float


def example_sum_identity(es: ExampleSystem, x: ModuleVector) -> SumIdentity:
    """Term-by-term family sum against its closed form, with residual."""
    lhs = family_form_element(es, x)
    rhs = closed_form_element(es, x)
    return SumIdentity(lhs=lhs, rhs=rhs, residual=_gap(lhs.values, rhs.values))


@dataclass(frozen=True, eq=False)
class ExampleCertificate:
    certificate: FrameCertificate
    fitted_lower: AlgebraElement
    nominal_lower: AlgebraElement
    nominal_matches: bool
    nominal_residual: float
    equality_residual: float
    bessel_min_slack: float
    identity_residual: float


def example_certificate(es: ExampleSystem) -> ExampleCertificate:
    """Tight certificate for the sequence system.

    The fitted scaling per sampled fiber is the ratio of the family sum
    to the comparison form |x_{2k+1}|^2/(2k+1); it is independent of
    the vector.  The nominal sqrt(alpha beta)/sqrt(k) scaling is
    evaluated against the same equality and flagged when it fails.
    Fibers the comparison form never touches carry the largest fitted
    value and are listed as vacuous.  The status applies certify's rule
    to these lower and upper elements.

    Each form is a per-fiber coefficient times |x_n|^2, so every figure
    is its per-vector formula at x = (1, ..., 1), which holds for every
    x: identity_residual is example_sum_identity's residual there, and
    the equality, nominal and Bessel figures are scaled by
    max(1, max |family coefficient|).
    """
    ab = es.alpha * es.beta
    odd = es.sample_indices
    fitted = np.zeros(es.n_max, dtype=np.complex128)
    nominal = np.zeros(es.n_max, dtype=np.complex128)
    for n in odd:
        k = (n - 1) // 2
        fitted[n - 1] = np.sqrt(ab / n)
        nominal[n - 1] = np.sqrt(ab) / np.sqrt(k)
    fill = np.sqrt(ab / 3.0) if odd else 1.0
    vacuous = tuple(j for j in range(es.n_max) if (j + 1) not in odd)
    lower_vals = fitted.copy()
    for j in vacuous:
        lower_vals[j] = fill

    hits, cols, _, weights = es._terms
    ones = np.ones(es.n_max, dtype=np.complex128)
    fam = _family_values(es, ones)
    ident_res = _gap(fam, _closed_values(es, ones))
    kf = np.zeros(es.n_max)
    kf[cols] = 1.0 / hits
    eq_res = _gap(np.abs(fitted) ** 2 * kf, fam)
    nom_res = _gap(np.abs(nominal) ** 2 * kf, fam)
    # <x, x> at the ones vector is the weight of each fiber.
    bessel_slack = (float((ab * weights.real - fam.real).min())
                    / max(1.0, float(np.abs(fam).max())))

    alg = es.space.algebra
    fitted_el = AlgebraElement(alg, fitted)
    nominal_el = AlgebraElement(alg, nominal)
    upper = alg.element(np.full(es.n_max, np.sqrt(ab), dtype=np.complex128))
    lower = AlgebraElement(alg, lower_vals)
    cert = FrameCertificate(
        lower=lower,
        upper=upper,
        tight=eq_res <= _EQ_RTOL,
        lower_residual=max(eq_res, 0.0),
        upper_residual=max(-bessel_slack, 0.0),
        status=_bound_status(alg_is_strictly_nonzero(lower), upper),
        vacuous=vacuous,
    )
    return ExampleCertificate(
        certificate=cert,
        fitted_lower=fitted_el,
        nominal_lower=nominal_el,
        nominal_matches=nom_res <= _EQ_RTOL,
        nominal_residual=nom_res,
        equality_residual=eq_res,
        bessel_min_slack=bessel_slack,
        identity_residual=ident_res,
    )
