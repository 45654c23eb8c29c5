import numpy as np
import pytest

from cframe import (ModuleVector, build_example, as_system, certify,
                    closed_form_element, example_certificate,
                    example_sum_identity, family_form_element,
                    frame_operator, inner_product)
from cframe.errors import BadParameters

ALPHA = 2.0
BETA = 3.0


def vec(es, coords):
    parts = tuple(np.array([c], dtype=np.complex128) for c in coords)
    return ModuleVector(es.space, parts)


def comparison_form(es, x):
    """The displayed comparison form: |x_n|^2/n at each sampled n."""
    vals = np.zeros(es.n_max)
    for n in es.sample_indices:
        vals[n - 1] = abs(x.parts[n - 1][0]) ** 2 / n
    return vals


def test_smallest_example_hand_values():
    # one family member, hitting coordinate 3: the summed form is
    # alpha beta |x_3|^2 / 9 there and nothing anywhere else
    es = build_example(3, ALPHA, BETA)
    assert len(es.family) == 1
    assert es.sample_indices == (3,)
    x = vec(es, [1.0, 2.0, 3.0 - 4.0j])
    fam = family_form_element(es, x)
    np.testing.assert_allclose(
        fam.values, [0.0, 0.0, ALPHA * BETA * 25.0 / 9.0], atol=1e-13)
    # the fitted lower scaling squared times the comparison form
    # |x_3|^2/3 = 25/3 reproduces the family sum
    fitted = example_certificate(es).fitted_lower.values[2]
    assert abs(fitted) ** 2 * 25.0 / 3.0 == pytest.approx(fam.values[2].real,
                                                          rel=1e-13)


@pytest.mark.parametrize("alpha, beta", [(ALPHA, BETA), (10.0, 10.0)])
def test_smallest_example_certificate_hand_values(alpha, beta):
    # fibers 1, 2, 3 have weights 1, 1/2, 1/3 and family coefficients
    # 0, 0, alpha beta/9; the nominal scaling at k = 1 is alpha beta
    # against the comparison coefficient 1/3
    ab = alpha * beta
    ec = example_certificate(build_example(3, alpha, beta))
    scale = max(1.0, ab / 9.0)
    assert ec.bessel_min_slack == pytest.approx((2 * ab / 9) / scale,
                                                rel=1e-14)
    assert ec.nominal_residual == pytest.approx((2 * ab / 9) / scale,
                                                rel=1e-14)
    assert ec.equality_residual <= 1e-15
    assert ec.identity_residual <= 1e-15


def test_weights_are_reciprocal_index():
    es = build_example(6, 1.0, 1.0)
    for n in range(1, 7):
        np.testing.assert_allclose(es.space.weights[n - 1],
                                   [[1.0 / n]])


def test_family_counts():
    assert len(build_example(3, 1, 1).family) == 1
    assert len(build_example(4, 1, 1).family) == 1
    assert len(build_example(5, 1, 1).family) == 2
    assert len(build_example(101, 1, 1).family) == 50
    assert build_example(9, 1, 1).sample_indices == (3, 5, 7, 9)


def test_forms_vanish_off_the_sampled_coordinates():
    es = build_example(7, ALPHA, BETA)
    # supported on coordinates the family never reads
    x = vec(es, [1.0, 2.0, 0.0, 5.0, 0.0, -1.0, 0.0])
    assert np.all(family_form_element(es, x).values == 0)
    zero = vec(es, [0.0] * 7)
    assert np.all(family_form_element(es, zero).values == 0)
    assert example_sum_identity(es, zero).residual == 0.0


def test_sum_identity_random_vectors():
    es = build_example(11, ALPHA, BETA)
    rng = np.random.default_rng(70)
    for _ in range(50):
        coords = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        ident = example_sum_identity(es, vec(es, coords))
        assert ident.residual <= 1e-12
        # support is exactly the odd coordinates from 3 on
        hit = {n - 1 for n in es.sample_indices}
        for j in range(11):
            if j not in hit:
                assert ident.lhs.values[j] == 0


def test_closed_form_scales_with_alpha_beta():
    base = build_example(9, ALPHA, BETA)
    doubled = build_example(9, 2 * ALPHA, BETA)
    rng = np.random.default_rng(71)
    coords = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    f1 = closed_form_element(base, vec(base, coords))
    f2 = closed_form_element(doubled, vec(doubled, coords))
    np.testing.assert_allclose(f2.values, 2.0 * f1.values, rtol=1e-12)


def test_fitted_scaling_values():
    es = build_example(9, ALPHA, BETA)
    ec = example_certificate(es)
    ab = ALPHA * BETA
    for n in es.sample_indices:
        assert ec.fitted_lower.values[n - 1] == pytest.approx(
            np.sqrt(ab / n), rel=1e-12)
        k = (n - 1) // 2
        assert ec.nominal_lower.values[n - 1] == pytest.approx(
            np.sqrt(ab) / np.sqrt(k), rel=1e-12)


def test_fitted_ratio_is_vector_independent():
    es = build_example(9, ALPHA, BETA)
    rng = np.random.default_rng(72)
    ab = ALPHA * BETA
    for _ in range(100):
        coords = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        x = vec(es, coords)
        fam = family_form_element(es, x)
        cmp_form = comparison_form(es, x)
        for n in es.sample_indices:
            if np.abs(cmp_form[n - 1]) > 1e-12:
                ratio = fam.values[n - 1] / cmp_form[n - 1]
                assert ratio.real == pytest.approx(ab / n, rel=1e-10)


def test_certificate_is_tight_and_nominal_is_not():
    es = build_example(15, ALPHA, BETA)
    ec = example_certificate(es)
    assert ec.equality_residual <= 1e-12
    assert ec.certificate.tight
    assert not ec.nominal_matches
    assert ec.nominal_residual > 1e-3
    assert ec.certificate.status == "frame"


def test_bessel_slack_and_constant_upper():
    es = build_example(15, ALPHA, BETA)
    ec = example_certificate(es)
    assert ec.bessel_min_slack >= -1e-12
    ab = ALPHA * BETA
    np.testing.assert_allclose(ec.certificate.upper.values,
                               np.full(15, np.sqrt(ab)), rtol=1e-12)


def test_vacuous_fibers_are_the_untouched_indices():
    es = build_example(5, ALPHA, BETA)
    ec = example_certificate(es)
    # coordinates 3 and 5 are sampled; 1, 2, 4 are not
    assert ec.certificate.vacuous == (0, 1, 3)
    fill = np.sqrt(ALPHA * BETA / 3.0)
    for j in ec.certificate.vacuous:
        assert ec.certificate.lower.values[j] == pytest.approx(fill)


def test_bad_parameters():
    with pytest.raises(BadParameters):
        build_example(2, 1.0, 1.0)
    with pytest.raises(BadParameters):
        build_example(3.5, 1.0, 1.0)
    with pytest.raises(BadParameters):
        build_example(5, 0.0, 1.0)
    with pytest.raises(BadParameters):
        build_example(5, 1.0, -2.0)
    for alpha, beta in ((float("inf"), 1.0), (1.0, float("inf")),
                        (1e200, 1e200), (10 ** 400, 1.0)):
        with pytest.raises(BadParameters, match="finite"):
            build_example(5, alpha, beta)


def test_numpy_integer_length_accepted():
    es = build_example(np.int64(5), 1.0, 1.0)
    assert es.n_max == 5


def test_as_system_flags_and_operator_identity():
    # scalar controls commute with everything, and the frame operator
    # reproduces the summed form exactly
    es = build_example(9, ALPHA, BETA)
    sys9 = as_system(es)
    assert sys9.flags.controls_commute
    assert sys9.flags.controls_with_family
    assert sys9.flags.controls_with_k
    s = frame_operator(sys9)
    rng = np.random.default_rng(73)
    for _ in range(20):
        coords = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        x = vec(es, coords)
        want = family_form_element(es, x)
        got = inner_product(s(x), x)
        assert np.max(np.abs(got.values - want.values)) <= 1e-12


# -- the figures are read off the per-fiber coefficients ---------------------

def figures_at_ones(es):
    """The certificate's four figures by their per-vector formulas at
    x = (1, ..., 1), one unit of |x_n|^2 on every fiber."""
    x = vec(es, np.ones(es.n_max))
    ab = es.alpha * es.beta
    fitted = np.zeros(es.n_max)
    nominal = np.zeros(es.n_max)
    for n in es.sample_indices:
        fitted[n - 1] = np.sqrt(ab / n) ** 2
        nominal[n - 1] = (np.sqrt(ab) / np.sqrt((n - 1) // 2)) ** 2
    lhs = family_form_element(es, x).values
    kf = comparison_form(es, x)
    xx = inner_product(x, x).values
    scale = max(1.0, float(np.max(np.abs(lhs))))
    return (example_sum_identity(es, x).residual,
            float(np.max(np.abs(fitted * kf - lhs))) / scale,
            float(np.max(np.abs(nominal * kf - lhs))) / scale,
            float((ab * xx.real - lhs.real).min()) / scale)


@pytest.mark.parametrize("n, alpha, beta", [
    (101, 1.0, 1.0), (101, 2.0, 3.0), (9, 2.0, 3.0), (21, 2.0, 3.0),
    (3, 0.5, 3.0), (1001, 1.7, 3.1), (101, 2.9, 0.51),
])
def test_certificate_figures_are_the_formulas_at_the_ones_vector(n, alpha,
                                                                 beta):
    ec = example_certificate(build_example(n, alpha, beta))
    got = (ec.identity_residual, ec.equality_residual, ec.nominal_residual,
           ec.bessel_min_slack)
    want = figures_at_ones(build_example(n, alpha, beta))
    assert got == want
    assert max(got[:2]) <= 2.3e-16
    assert 0.22 <= got[2] <= 1.34 and not ec.nominal_matches
    assert got[3] > 0.005


# -- the status is derived from the bound elements ---------------------------

@pytest.mark.parametrize("n, alpha, beta, status", [
    (9, 1e-10, 1e-10, "not_frame"),   # upper 1e-10 is below eps_nz
    (11, 1e-15, 1.0, "bessel_only"),  # lower sqrt(1e-15/11) is below it
    (9, ALPHA, BETA, "frame"),
])
def test_certificate_status_follows_the_bounds(n, alpha, beta, status):
    es = build_example(n, alpha, beta)
    assert example_certificate(es).certificate.status == status
    if status == "not_frame":
        assert certify(as_system(es)).status == status


def test_truncation_length_is_bounded():
    with pytest.raises(BadParameters, match="at most 1001"):
        build_example(1002, 1.0, 1.0)
    with pytest.raises(BadParameters, match="at most 1001"):
        build_example(10 ** 9, 1.0, 1.0)
