import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cframe import (Algebra, AlgebraElement, alg_abs, alg_is_positive,
                    alg_is_strictly_nonzero, alg_norm, alg_sqrt)
from cframe.algebra import positive_rows
from cframe.errors import NotPositive

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
complexes = st.builds(complex, finite, finite)


def elem(values, **kw):
    vals = np.array(values, dtype=np.complex128)
    return AlgebraElement(Algebra(len(vals), **kw), vals)


def test_abs_zero_element():
    np.testing.assert_array_equal(alg_abs(elem([0, 0])).values, [0, 0])


def test_abs_moduli():
    np.testing.assert_allclose(alg_abs(elem([1j, -2])).values, [1, 2])


def test_abs_three_four():
    # oracle: sqrt(re^2 + im^2) computed without going through alg_abs
    z = 3 + 4j
    expected = np.sqrt(z.real**2 + z.imag**2)
    assert expected == 5.0
    np.testing.assert_allclose(alg_abs(elem([z])).values, [expected])


def test_positive_accepts_zero_and_tiny_imag():
    assert alg_is_positive(elem([0, 0]))
    assert alg_is_positive(elem([1, 1e-30]))


def test_positive_rejects_negative_coordinate():
    assert not alg_is_positive(elem([1, -1]))


def test_positive_rejects_large_imaginary_part():
    assert not alg_is_positive(elem([1 + 1e-3j, 1]))


def test_positive_tolerance_scales_with_magnitude():
    # slack grows like eps*(1+|a|), so a big value tolerates more noise
    assert alg_is_positive(elem([1e8 * (1 + 1e-12j)]))
    assert not alg_is_positive(elem([1 + 1e-8j]))


def test_strictly_nonzero():
    assert alg_is_strictly_nonzero(elem([1, 1]))
    assert not alg_is_strictly_nonzero(elem([1, 0]))
    assert alg_is_strictly_nonzero(elem([1e-3, 2], eps_nz=1e-8))


def test_sqrt_perfect_squares():
    np.testing.assert_allclose(alg_sqrt(elem([4, 9])).values, [2, 3])
    np.testing.assert_allclose(alg_sqrt(elem([0, 1])).values, [0, 1])


def test_sqrt_two_by_squaring():
    # oracle: the result must square back to the input
    r = alg_sqrt(elem([2]))
    np.testing.assert_allclose((r * r).values, [2], atol=1e-14)
    np.testing.assert_allclose(r.values, [1.41421356237309515], atol=1e-12)


def test_sqrt_rejects_negative():
    with pytest.raises(NotPositive):
        alg_sqrt(elem([-1, 1]))


def test_norm_is_max_modulus():
    assert alg_norm(elem([3j, -4, 1])) == 4.0


def test_unit_and_zero():
    alg = Algebra(3)
    np.testing.assert_array_equal(alg.unit().values, [1, 1, 1])
    np.testing.assert_array_equal(alg.zero().values, [0, 0, 0])
    assert alg_is_positive(alg.unit())


def test_algebra_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Algebra(0)
    with pytest.raises(ValueError):
        Algebra(2, eps_pos=0.0)
    # NaN failed every positivity test, inf passed every one; a bool d
    # built an algebra with d=True.
    for bad in (math.nan, math.inf, -math.inf):
        for kw in ({"eps_pos": bad}, {"eps_nz": bad}):
            with pytest.raises(ValueError):
                Algebra(2, **kw)
    for d in (True, False):
        with pytest.raises(ValueError):
            Algebra(d)


@settings(max_examples=200, deadline=None)
@given(st.lists(complexes, min_size=1, max_size=6))
def test_star_is_involution(vals):
    a = elem(vals)
    assert np.array_equal(a.star().star().values, a.values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(complexes, complexes), min_size=1, max_size=6))
def test_star_antihomomorphism_and_commutativity(pairs):
    a = elem([p[0] for p in pairs])
    b = elem([p[1] for p in pairs])
    np.testing.assert_allclose((a * b).star().values,
                               (b.star() * a.star()).values,
                               rtol=1e-12, atol=1e-12)
    # products agree up to summation order inside the complex multiply
    np.testing.assert_allclose((a * b).values, (b * a).values,
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(complexes, min_size=1, max_size=6))
def test_abs_squared_is_star_times_self(vals):
    a = elem(vals)
    lhs = alg_abs(a) * alg_abs(a)
    rhs = a.star() * a
    scale = np.maximum(1.0, np.abs(rhs.values))
    assert np.max(np.abs(lhs.values - rhs.values) / scale) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(complexes, min_size=1, max_size=6))
def test_star_times_self_is_positive(vals):
    a = elem(vals)
    assert alg_is_positive(a.star() * a)


def test_elementwise_arithmetic():
    a = elem([1 + 1j, 2])
    b = elem([2, -1j])
    np.testing.assert_array_equal((a + b).values, [3 + 1j, 2 - 1j])
    np.testing.assert_array_equal((a - b).values, [-1 + 1j, 2 + 1j])
    np.testing.assert_array_equal((a * b).values, [2 + 2j, -2j])
    np.testing.assert_array_equal((2.0 * a).values, [2 + 2j, 4])
    assert a.allclose(elem([1 + 1j, 2]))


def positive_rows_reference(values, eps_pos):
    """positivity as two comparisons per coordinate."""
    slack = eps_pos * (1.0 + np.abs(values))
    return np.all((np.abs(values.imag) <= slack) & (values.real >= -slack),
                  axis=-1)


SPECIALS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0]
EPS = [1e-10, 1e-6, 0.25]


@st.composite
def near_tolerance(draw, eps):
    """A coordinate whose -real or |imag| lies within a few ulp of
    eps (1 + |v|), the other part drawn freely."""
    other = draw(st.one_of(finite, st.sampled_from(SPECIALS)))
    t = 0.0
    for _ in range(60):  # a contraction for eps < 1
        t = eps * (1.0 + math.hypot(t, other))
    for _ in range(draw(st.integers(0, 3))):
        t = math.nextafter(t, draw(st.sampled_from([0.0, math.inf])))
    if draw(st.booleans()):
        return complex(-t, other)
    return complex(other, draw(st.sampled_from([t, -t])))


@st.composite
def positivity_cases(draw):
    eps = draw(st.sampled_from(EPS))
    part = st.one_of(finite, st.sampled_from(SPECIALS))
    coord = st.one_of(st.builds(complex, part, part), near_tolerance(eps))
    rows, d = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    vals = draw(st.lists(coord, min_size=rows * d, max_size=rows * d))
    return np.array(vals, dtype=np.complex128).reshape(rows, d), eps


@settings(max_examples=400, deadline=None)
@given(positivity_cases())
def test_one_comparison_positivity_equals_the_two_comparisons(case):
    values, eps = case
    with np.errstate(invalid="ignore", over="ignore"):
        want = positive_rows_reference(values, eps)
        got = positive_rows(values, eps)
        assert np.array_equal(got, want)
        for row, ok in zip(values, want):
            alg = Algebra(len(row), eps_pos=eps)
            assert alg_is_positive(alg.element(row)) == ok
