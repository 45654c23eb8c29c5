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

Every fiber is one-dimensional, so a batch of vectors is one (count, n)
array, and the forms are evaluated on the whole batch at once.
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
from .operators import ModuleOperator, scalar_operator

_EQ_RTOL = 1e-12
# Largest truncation length build_example accepts; its arrays grow as n^2.
_N_MAX = 1001
# Array elements per chunk of sampled vectors in example_certificate.
_CHUNK_ELEMS = 1 << 16


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


def draw_vectors(es: ExampleSystem, count: int, rng) -> np.ndarray:
    """count random vectors of the example space as a (count, n) array.

    Row s equals the parts of the s-th of count testing.random_vector
    calls on rng, bit for bit: with one-dimensional fibers those calls
    draw, vector by vector and fiber by fiber, a real and an imaginary
    part, which is the order of one (count, n, 2) draw.
    """
    z = rng.standard_normal((count, es.n_max, 2))
    return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)


def _row(x: ModuleVector) -> np.ndarray:
    return x.flat[None, :]


def family_form_values(es: ExampleSystem, xs: np.ndarray) -> np.ndarray:
    """sum_k <L_k C x, L_k C' x> for every row x of xs, term by term.

    Each member is supported on its single sampled fiber, so the term
    is read off the stored block and weight there; the untouched fibers
    contribute exact zeros.
    """
    _, cols, coef, weights = es._terms
    x = xs[:, cols]
    left = coef * (es.alpha * x)
    right = coef * (es.beta * x)
    vals = np.zeros(xs.shape, dtype=np.complex128)
    vals[:, cols] += np.conj(right) * weights[cols] * left
    return vals


def comparison_form_values(es: ExampleSystem, xs: np.ndarray) -> np.ndarray:
    """The displayed adjoint form of the odd-coordinate map, per row.

    Coordinate 2k+1 carries |x_{2k+1}|^2/(2k+1); everything else is 0.
    """
    hits, cols, _, _ = es._terms
    vals = np.zeros(xs.shape, dtype=np.complex128)
    vals[:, cols] = np.abs(xs[:, cols]) ** 2 / hits
    return vals


def closed_form_values(es: ExampleSystem, xs: np.ndarray) -> np.ndarray:
    """alpha beta |x_{2k+1}|^2/(2k+1)^2 at coordinate 2k+1, per row."""
    hits, cols, _, _ = es._terms
    vals = np.zeros(xs.shape, dtype=np.complex128)
    vals[:, cols] = es.alpha * es.beta * np.abs(xs[:, cols]) ** 2 / hits**2
    return vals


def family_form_element(es: ExampleSystem, x: ModuleVector) -> AlgebraElement:
    """family_form_values at one vector."""
    return AlgebraElement(es.space.algebra, family_form_values(es, _row(x))[0])


def comparison_form_element(es: ExampleSystem, x: ModuleVector) -> AlgebraElement:
    """comparison_form_values at one vector."""
    return AlgebraElement(es.space.algebra,
                          comparison_form_values(es, _row(x))[0])


def closed_form_element(es: ExampleSystem, x: ModuleVector) -> AlgebraElement:
    """closed_form_values at one vector."""
    return AlgebraElement(es.space.algebra, closed_form_values(es, _row(x))[0])


def _row_gaps(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """max |lhs - rhs| / max(1, max |rhs|) per row."""
    scale = np.maximum(1.0, np.abs(rhs).max(axis=1))
    return np.abs(lhs - rhs).max(axis=1) / scale


@dataclass(frozen=True, eq=False)
class SumIdentity:
    lhs: AlgebraElement
    rhs: AlgebraElement
    residual: float


def example_sum_identity(es: ExampleSystem, x: ModuleVector) -> SumIdentity:
    """Term-by-term family sum against its closed form, with residual."""
    lhs = family_form_element(es, x)
    rhs = closed_form_element(es, x)
    res = float(_row_gaps(lhs.values[None], rhs.values[None])[0])
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
    identity_residual: float


def example_certificate(es: ExampleSystem, *, samples: int = 100,
                        seed: int = 0) -> ExampleCertificate:
    """Tight certificate for the sequence system.

    The fitted scaling per sampled fiber is the ratio of the family sum
    to the comparison form; it is independent of the vector, which the
    sampling re-checks on max(samples, 1) vectors drawn from seed, a
    bounded number of rows at a time whatever samples is.  The
    nominal sqrt(alpha beta)/sqrt(k) scaling is evaluated against the
    same equality and flagged when it fails.  Fibers the comparison
    form never touches carry the largest fitted value and are listed as
    vacuous.  The status applies certify's rule to these lower and
    upper elements.  identity_residual is the worst example_sum_identity
    residual over the first samples of those vectors (0.0 for none).
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

    weights = es._terms[-1]
    rng = np.random.default_rng(seed)
    total = max(samples, 1)
    step = max(1, _CHUNK_ELEMS // es.n_max)
    ident_res = eq_res = nom_res = 0.0
    bessel_slack = np.inf
    # Consecutive draws continue one stream, so the chunks see the same
    # vectors as one draw of all of them.
    for start in range(0, total, step):
        xs = draw_vectors(es, min(step, total - start), rng)
        lhs = family_form_values(es, xs)
        kf = comparison_form_values(es, xs)
        # <x, x> per fiber: x^H W x, as inner_product takes it.
        xx = xs.conj() * (weights * xs)
        ident = _row_gaps(lhs, closed_form_values(es, xs))[:samples - start]
        ident_res = max(ident_res, float(ident.max(initial=0.0)))
        eq_res = max(eq_res, float(
            _row_gaps(np.abs(fitted) ** 2 * kf, lhs).max()))
        nom_res = max(nom_res, float(
            _row_gaps(np.abs(nominal) ** 2 * kf, lhs).max()))
        scale = np.maximum(1.0, np.abs(lhs).max(axis=1))
        slack = ab * xx.real - lhs.real
        bessel_slack = min(bessel_slack,
                           float((slack.min(axis=1) / scale).min()))

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
