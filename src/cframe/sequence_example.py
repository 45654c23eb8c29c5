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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, AlgebraElement
from .errors import BadParameters
from .frames import (STATUS_FRAME, ControlledFrameSystem, FrameCertificate,
                     frame_system)
from .module_space import ModuleSpace, ModuleVector, inner_product, make_space
from .operators import ModuleOperator, scalar_operator
from .testing import random_vector

_EQ_RTOL = 1e-12


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


def build_example(n_max: int, alpha: float, beta: float) -> ExampleSystem:
    """Assemble the truncated sequence system.

    n_max is the truncation length (at least 3 so the family is
    nonempty); alpha and beta must be positive, and alpha, beta and
    alpha beta finite.
    """
    if not isinstance(n_max, (int, np.integer)) or n_max < 3:
        raise BadParameters("truncation length must be an integer >= 3")
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
    family = []
    for k in range(1, (n_max - 1) // 2 + 1):
        hit = 2 * k + 1
        blocks = tuple(
            np.array([[1.0 / np.sqrt(hit)]] if n == hit else [[0.0]],
                     dtype=np.complex128)
            for n in range(1, n_max + 1)
        )
        family.append(ModuleOperator(space, space, blocks))
    return ExampleSystem(int(n_max), alpha, beta, space, tuple(family))


def as_system(es: ExampleSystem) -> ControlledFrameSystem:
    """The same data as a controlled frame system with scalar controls."""
    return frame_system(
        es.space,
        es.family,
        control=scalar_operator(es.space, es.alpha),
        control_prime=scalar_operator(es.space, es.beta),
    )


def family_form_element(es: ExampleSystem, x: ModuleVector) -> AlgebraElement:
    """sum_k <L_k C x, L_k C' x>, accumulated term by term.

    Each member is supported on its single sampled fiber, so the term
    is read off the stored block and weight there; the untouched fibers
    contribute exact zeros.
    """
    vals = np.zeros(es.n_max, dtype=np.complex128)
    for t, hit in zip(es.family, es.sample_indices):
        j = hit - 1
        left = t.blocks[j][0, 0] * (es.alpha * x.parts[j][0])
        right = t.blocks[j][0, 0] * (es.beta * x.parts[j][0])
        vals[j] += np.conj(right) * es.space.weights[j][0, 0] * left
    return AlgebraElement(es.space.algebra, vals)


def comparison_form_element(es: ExampleSystem, x: ModuleVector) -> AlgebraElement:
    """The displayed adjoint form of the odd-coordinate map.

    Coordinate 2k+1 carries |x_{2k+1}|^2/(2k+1); everything else is 0.
    """
    vals = np.zeros(es.n_max, dtype=np.complex128)
    for n in es.sample_indices:
        vals[n - 1] = np.abs(x.parts[n - 1][0]) ** 2 / n
    return AlgebraElement(es.space.algebra, vals)


def closed_form_element(es: ExampleSystem, x: ModuleVector) -> AlgebraElement:
    """Closed form of the family sum: alpha beta |x_{2k+1}|^2/(2k+1)^2."""
    vals = np.zeros(es.n_max, dtype=np.complex128)
    for n in es.sample_indices:
        vals[n - 1] = es.alpha * es.beta * np.abs(x.parts[n - 1][0]) ** 2 / n**2
    return AlgebraElement(es.space.algebra, vals)


@dataclass(frozen=True, eq=False)
class SumIdentity:
    lhs: AlgebraElement
    rhs: AlgebraElement
    residual: float


def example_sum_identity(es: ExampleSystem, x: ModuleVector) -> SumIdentity:
    """Term-by-term family sum against its closed form, with residual."""
    lhs = family_form_element(es, x)
    rhs = closed_form_element(es, x)
    scale = max(1.0, float(np.max(np.abs(rhs.values))))
    res = float(np.max(np.abs(lhs.values - rhs.values))) / scale
    return SumIdentity(lhs=lhs, rhs=rhs, residual=res)


@dataclass(frozen=True, eq=False)
class ExampleCertificate:
    certificate: FrameCertificate
    fitted_lower: AlgebraElement
    nominal_lower: AlgebraElement
    nominal_matches: bool
    nominal_residual: float
    equality_residual: float
    bessel_min_slack: float


def example_certificate(es: ExampleSystem, *, samples: int = 100,
                        seed: int = 0) -> ExampleCertificate:
    """Tight certificate for the sequence system.

    The fitted scaling per sampled fiber is the ratio of the family sum
    to the comparison form; it is independent of the vector, which the
    sampling re-checks.  The nominal sqrt(alpha beta)/sqrt(k) scaling
    is evaluated against the same equality and flagged when it fails.
    Fibers the comparison form never touches carry the largest fitted
    value and are listed as vacuous.
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

    rng = np.random.default_rng(seed)
    eq_res = 0.0
    nom_res = 0.0
    bessel_slack = np.inf
    for _ in range(max(samples, 1)):
        x = random_vector(rng, es.space)
        lhs = family_form_element(es, x)
        kf = comparison_form_element(es, x)
        xx = inner_product(x, x)
        scale = max(1.0, float(np.max(np.abs(lhs.values))))
        eq_res = max(eq_res, float(np.max(np.abs(
            np.abs(fitted) ** 2 * kf.values - lhs.values))) / scale)
        nom_res = max(nom_res, float(np.max(np.abs(
            np.abs(nominal) ** 2 * kf.values - lhs.values))) / scale)
        slack = ab * xx.values.real - lhs.values.real
        bessel_slack = min(bessel_slack, float(slack.min() / scale))

    alg = es.space.algebra
    fitted_el = AlgebraElement(alg, fitted)
    nominal_el = AlgebraElement(alg, nominal)
    upper = alg.element(np.full(es.n_max, np.sqrt(ab), dtype=np.complex128))
    cert = FrameCertificate(
        lower=AlgebraElement(alg, lower_vals),
        upper=upper,
        tight=eq_res <= _EQ_RTOL,
        lower_residual=max(eq_res, 0.0),
        upper_residual=max(-bessel_slack, 0.0),
        status=STATUS_FRAME,
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
    )
