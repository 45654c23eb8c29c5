from dataclasses import replace
import gc
import math
import os
import sys
from types import SimpleNamespace
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cframe import (Algebra, ModuleOperator, ModuleVector, STATUS_BESSEL,
                    STATUS_FRAME, STATUS_NOT_FRAME, adjoint_lower_bound,
                    analysis, certify,
                    check_at, commutation_residual, comparison_form_matrix,
                    frame_form_matrix, frame_operator, frame_system,
                    identity, inner_product, make_space,
                    module_norm, op_adjoint, op_compose, op_norm,
                    optimal_lower_bound, optimal_upper_bound, parse_system,
                    reconstruct,
                    scalar_operator, synthesis, verify_bounds,
                    with_comparison, with_controls, with_family,
                    zero_operator)
from cframe.algebra import AlgebraElement, alg_is_positive, positive_rows
from cframe.errors import (BadParameters, NotCommuting, NotFinite, NotGLPlus,
                           SingularFrameOperator, SpaceMismatch)
import cframe.frames
import cframe.spectral
from cframe.frames import (_COMMUTE_RTOL, _SKEW_RTOL, CheckReport,
                           _build_forms, _operator_spectrum, _require_algebra,
                           _require_finite_forms)
from cframe.operators import _adjoint_grams
from cframe.spectral import (_adjoint, _fiber_views, _finite, hermitian_part,
                             pencil_eigh, restricted_pencil_min)
from cframe.transforms import compose_with_q, invertible_q_bounds
from cframe.testing import (diagonal_glplus, diagonal_operator, random_hpd,
                            random_operator, random_space, random_system,
                            random_vector, scalar_glplus, unitary_diag_family)


def parseval_system(dims=(2, 3)):
    space = make_space(Algebra(len(dims)), list(dims))
    return frame_system(space, [identity(space)])


# -- frame operator -------------------------------------------------------

def test_frame_operator_of_empty_family_is_bad_parameters():
    space = make_space(Algebra(1), [2])
    with pytest.raises(BadParameters, match="nonempty family"):
        frame_operator(frame_system(space, []))


def test_frame_operator_single_identity():
    sys1 = parseval_system()
    s = frame_operator(sys1)
    for b, n in zip(s.blocks, sys1.space.dims):
        np.testing.assert_allclose(b, np.eye(n))


def test_frame_operator_doubled_family_scaled_control():
    space = make_space(Algebra(2), [2, 2])
    sys2 = frame_system(space, [identity(space), identity(space)],
                       control_prime=scalar_operator(space, 2.0))
    s = frame_operator(sys2)
    for b in s.blocks:
        np.testing.assert_allclose(b, 4.0 * np.eye(2))


def test_frame_operator_names_the_lowest_overflowing_fiber():
    # Dims [2, 3, 1, 2, 3]: fiber 2 sits in the last group, fiber 3 in
    # the first.  There C' T* T C is about 1e400; T* T (1e200) and every
    # product the flags take stay finite.
    space = make_space(Algebra(5), [2, 3, 1, 2, 3])
    blocks = [1e-100 * np.eye(n) for n in space.dims]
    blocks[2] = np.array([[1e100]])
    blocks[3] = np.diag([1e100, 1.0])
    t = ModuleOperator(space, space, tuple(blocks))
    sysm = frame_system(space, [t], control=scalar_operator(space, 1e100),
                        control_prime=scalar_operator(space, 1e100))
    with pytest.raises(NotFinite) as err:
        frame_operator(sysm)
    assert str(err.value) == "frame operator at fiber 2 is not finite"


def test_frame_operator_matches_termwise_sum():
    # oracle: accumulate <T_i C x, T_i C' x> term by term and compare
    # with <S x, x>
    rng = np.random.default_rng(0)
    sysr = random_system(rng, d=2, dims=[3, 3], ops=4)
    s = frame_operator(sysr)
    for _ in range(25):
        x = random_vector(rng, sysr.space)
        acc = sysr.space.algebra.zero()
        for t in sysr.family:
            acc = acc + inner_product(t(sysr.control(x)),
                                      t(sysr.control_prime(x)))
        got = inner_product(s(x), x)
        scale = max(1.0, float(np.max(np.abs(acc.values))))
        assert np.max(np.abs(got.values - acc.values)) <= 1e-11 * scale


def test_frame_operator_positive_selfadjoint_for_commuting_system():
    rng = np.random.default_rng(1)
    sysr = random_system(rng, d=2, dims=[2, 4], ops=3)
    assert sysr.flags.controls_commute
    from cframe import op_classify
    flags = op_classify(frame_operator(sysr))
    assert flags.selfadjoint and flags.positive


# -- analysis and synthesis ----------------------------------------------

def test_analysis_identity_family():
    sys1 = parseval_system()
    x = random_vector(np.random.default_rng(2), sys1.space)
    coeffs = analysis(sys1, x)
    assert len(coeffs) == 1
    for p, q in zip(coeffs[0].parts, x.parts):
        np.testing.assert_allclose(p, q)


def test_analysis_zero_vector():
    sys1 = parseval_system()
    coeffs = analysis(sys1, sys1.space.zero_vector())
    assert all(module_norm(c) == 0.0 for c in coeffs)


def test_analysis_energy_matches_frame_operator():
    rng = np.random.default_rng(3)
    sysr = random_system(rng, d=2, dims=[3, 2], ops=3)
    s = frame_operator(sysr)
    for _ in range(20):
        x = random_vector(rng, sysr.space)
        total = sysr.space.algebra.zero()
        for c in analysis(sysr, x):
            total = total + inner_product(c, c)
        want = inner_product(s(x), x)
        scale = max(1.0, float(np.max(np.abs(want.values))))
        assert np.max(np.abs(total.values - want.values)) <= 1e-10 * scale


def test_synthesis_zero_and_single():
    sys1 = parseval_system()
    zeros = [sys1.space.zero_vector()]
    assert module_norm(synthesis(sys1, zeros)) == 0.0
    x = random_vector(np.random.default_rng(4), sys1.space)
    back = synthesis(sys1, [x])
    assert module_norm(back - x) <= 1e-12


def test_synthesis_after_analysis_is_frame_operator():
    rng = np.random.default_rng(5)
    sysr = random_system(rng, d=3, dims=[2, 2, 3], ops=4)
    s = frame_operator(sysr)
    for _ in range(20):
        x = random_vector(rng, sysr.space)
        got = synthesis(sysr, analysis(sysr, x))
        want = s(x)
        assert module_norm(got - want) <= 1e-10 * max(1.0, module_norm(want))


def test_analysis_requires_commuting_controls():
    rng = np.random.default_rng(6)
    space = make_space(Algebra(1), [3])
    c1 = ModuleOperator(space, space, (random_hpd(rng, 3),))
    c2 = ModuleOperator(space, space, (random_hpd(rng, 3),))
    sysnc = frame_system(space, [identity(space)], control=c1,
                        control_prime=c2)
    assert not sysnc.flags.controls_commute
    with pytest.raises(NotCommuting):
        analysis(sysnc, space.zero_vector())


def test_length_mismatch_in_synthesis():
    from cframe.errors import LengthMismatch
    sys1 = parseval_system()
    with pytest.raises(LengthMismatch):
        synthesis(sys1, [])


def synthesis_member_by_member(sysr, seq):
    """sum_i (C C')^(1/2) T_i* a_i with one op_adjoint per member, added
    in member order: the reference for the stacked synthesis."""
    out = sysr.space.zero_vector()
    for t, a in zip(sysr.family, seq):
        out = out + sysr.mixing_root(op_adjoint(t)(a))
    return out


@pytest.mark.parametrize("seed", range(8))
def test_synthesis_stacks_the_adjoints_bit_for_bit(monkeypatch, seed):
    rng = np.random.default_rng(600 + seed)
    dims = [int(n) for n in rng.integers(1, 5, size=int(rng.integers(1, 6)))]
    sysr = random_system(rng, d=len(dims), dims=dims,
                         ops=int(rng.integers(1, 9)),
                         weights=["identity", "random"][seed % 2],
                         controls=["diagonal", "scalar"][seed % 2],
                         family=["unitary_diag", "generic"][seed % 2])
    seq = [random_vector(rng, sysr.space) for _ in sysr.family]
    want = synthesis_member_by_member(sysr, seq).flat.tobytes()
    monkeypatch.setattr(cframe.frames, "op_adjoint", None)
    assert synthesis(sysr, seq).flat.tobytes() == want


# -- optimal bounds -------------------------------------------------------

def test_upper_bound_identity_family():
    sys1 = parseval_system()
    np.testing.assert_allclose(optimal_upper_bound(sys1).values, [1.0, 1.0])


def test_upper_bound_scaled_controls():
    # form is 6<x,x>, so B = sqrt(6) everywhere
    space = make_space(Algebra(2), [2, 1])
    sys6 = frame_system(space, [identity(space)],
                       control=scalar_operator(space, 2.0),
                       control_prime=scalar_operator(space, 3.0))
    np.testing.assert_allclose(optimal_upper_bound(sys6).values,
                               np.sqrt(6.0) * np.ones(2), rtol=1e-12)


def test_upper_bound_matches_brute_force():
    # oracle: maximize the form ratio directly, seeded by a large sample
    from scipy.optimize import minimize
    rng = np.random.default_rng(7)
    sysr = random_system(rng, d=2, dims=[3, 2], ops=3)
    b = optimal_upper_bound(sysr)
    for j in range(2):
        phi = frame_form_matrix(sysr, j)
        w = sysr.space.weights[j]
        n = sysr.space.dims[j]
        xs = (rng.standard_normal((n, 100_000))
              + 1j * rng.standard_normal((n, 100_000)))
        num = np.einsum("as,ab,bs->s", xs.conj(), phi, xs).real
        den = np.einsum("as,ab,bs->s", xs.conj(), w, xs).real
        quot = num / den
        best = xs[:, np.argmax(quot)]

        def neg_ratio(v):
            x = v[:n] + 1j * v[n:]
            return -float((x.conj() @ phi @ x).real
                          / (x.conj() @ w @ x).real)

        res = minimize(neg_ratio, np.concatenate([best.real, best.imag]),
                       method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14,
                                "maxiter": 20_000})
        target = np.abs(b.values[j]) ** 2
        # samples never exceed the certified square, refinement attains it
        assert np.max(quot) <= target + 1e-9
        assert -res.fun == pytest.approx(target, rel=1e-6)


def test_lower_bound_identity_family():
    sys1 = parseval_system()
    res = optimal_lower_bound(sys1)
    assert res.ok
    np.testing.assert_allclose(res.element.values, [1.0, 1.0])
    assert res.vacuous == ()


def test_lower_bound_fails_on_kernel_mismatch():
    # family kills a direction the comparison operator still sees
    space = make_space(Algebra(1), [2])
    proj = ModuleOperator(space, space, (np.diag([1.0, 0.0]),))
    sysp = frame_system(space, [proj])
    res = optimal_lower_bound(sysp)
    assert not res.ok
    assert res.failed == (0,)


def test_lower_bound_positive_for_diagonal_comparison():
    rng = np.random.default_rng(8)
    for _ in range(10):
        sysr = random_system(rng, d=2, dims=[2, 3], ops=3)
        res = optimal_lower_bound(sysr)
        assert res.ok
        assert np.all(np.abs(res.element.values) > 0)
        cert = certify(sysr, samples=1000)
        assert cert.lower_residual <= 1e-9


# -- certify --------------------------------------------------------------

def test_certify_parseval():
    cert = certify(parseval_system())
    assert cert.status == STATUS_FRAME
    assert cert.tight
    np.testing.assert_allclose(cert.lower.values, [1.0, 1.0])
    np.testing.assert_allclose(cert.upper.values, [1.0, 1.0])
    assert cert.lower_residual == 0.0
    assert cert.upper_residual == 0.0


def test_certify_zero_family_not_frame():
    space = make_space(Algebra(2), [2, 2])
    cert = certify(frame_system(space, [zero_operator(space)]))
    assert cert.status == STATUS_NOT_FRAME


def test_certify_bessel_only_for_rank_deficient_family():
    space = make_space(Algebra(1), [2])
    proj = ModuleOperator(space, space, (np.diag([1.0, 0.0]),))
    cert = certify(frame_system(space, [proj]))
    assert cert.status == STATUS_BESSEL


def test_certify_skew_form_not_frame():
    # diagonal non-scalar controls around a generic family make the
    # exact form non-Hermitian, which voids the sandwich
    rng = np.random.default_rng(9)
    space = make_space(Algebra(1), [2])
    t = random_operator(rng, space)
    c = ModuleOperator(space, space, (np.diag([1.0, 2.0]),))
    cp = ModuleOperator(space, space, (np.diag([2.0, 1.0]),))
    sysk = frame_system(space, [t], control=c, control_prime=cp)
    phi = frame_form_matrix(sysk, 0, hermitian=False)
    assert np.linalg.norm(phi - phi.conj().T) > 1e-6 * np.linalg.norm(phi)
    assert certify(sysk).status == STATUS_NOT_FRAME


def test_certify_vacuous_fiber_with_zero_comparison_block():
    space = make_space(Algebra(2), [2, 2])
    k = ModuleOperator(space, space, (np.eye(2), np.zeros((2, 2))))
    sysv = frame_system(space, [identity(space)], comparison=k)
    cert = certify(sysv)
    assert cert.status == STATUS_FRAME
    assert cert.vacuous == (1,)
    # vacuous fiber gets the largest feasible fill, here the other
    # fiber's value 1
    np.testing.assert_allclose(cert.lower.values, [1.0, 1.0])
    assert cert.lower_residual <= 1e-12


def test_certify_all_vacuous_when_comparison_is_zero():
    space = make_space(Algebra(2), [2, 2])
    sys0 = frame_system(space, [identity(space)],
                       comparison=zero_operator(space))
    cert = certify(sys0)
    assert cert.status == STATUS_FRAME
    assert cert.vacuous == (0, 1)
    np.testing.assert_allclose(cert.lower.values, [1.0, 1.0])


def test_certify_singular_comparison_uses_restricted_infimum():
    # comparison form of rank 1 on a 2-dim fiber: the bound must come
    # from the kernel-excluded infimum, cross-checked by bisection on
    # the PSD cone
    rng = np.random.default_rng(10)
    space = make_space(Algebra(1), [2])
    fam = unitary_diag_family(rng, space, 3)
    k = ModuleOperator(space, space, (np.diag([1.0, 0.0]),))
    sysk = frame_system(space, [fam[0], fam[1], fam[2]], comparison=k)
    cert = certify(sysk)
    assert cert.status == STATUS_FRAME
    phi = frame_form_matrix(sysk, 0)
    gamma = comparison_form_matrix(sysk, 0)
    scale = max(1.0, float(np.linalg.norm(phi)))
    lo, hi = 0.0, 1.0
    while np.linalg.eigvalsh(phi - hi * gamma)[0] >= -1e-13 * scale:
        hi *= 2.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if np.linalg.eigvalsh(phi - mid * gamma)[0] >= -1e-13 * scale:
            lo = mid
        else:
            hi = mid
    assert np.abs(cert.lower.values[0]) ** 2 == pytest.approx(lo, rel=1e-8)


def test_certified_inequality_holds_on_samples():
    rng = np.random.default_rng(11)
    for _ in range(5):
        sysr = random_system(rng, d=3, dims=[2, 3, 2], ops=4)
        cert = certify(sysr, samples=0)
        ver = verify_bounds(sysr, cert.lower, cert.upper, samples=1000,
                            seed=17)
        assert ver.verified, ver.residual


def test_scaling_covariance():
    rng = np.random.default_rng(12)
    sysr = random_system(rng, d=2, dims=[2, 2], ops=3)
    cert = certify(sysr, samples=0)
    c = 3.0
    scaled = frame_system(
        sysr.space, [c * t for t in sysr.family], control=sysr.control,
        control_prime=sysr.control_prime, comparison=sysr.comparison)
    cert2 = certify(scaled, samples=0)
    np.testing.assert_allclose(cert2.lower.values, c * cert.lower.values,
                               rtol=1e-9)
    np.testing.assert_allclose(cert2.upper.values, c * cert.upper.values,
                               rtol=1e-9)


def test_uncontrolled_reduction_consistency():
    # explicit identity controls and defaults agree bound for bound
    rng = np.random.default_rng(13)
    space = random_space(rng, Algebra(2), [3, 2])
    fam = unitary_diag_family(rng, space, 3)
    ident = identity(space)
    a = frame_system(space, fam)
    b = frame_system(space, fam, control=ident, control_prime=ident,
                     comparison=ident)
    ca, cb = certify(a, samples=0), certify(b, samples=0)
    np.testing.assert_allclose(ca.lower.values, cb.lower.values, rtol=1e-12)
    np.testing.assert_allclose(ca.upper.values, cb.upper.values, rtol=1e-12)


def test_tightness_flag():
    space = make_space(Algebra(1), [2])
    tight_sys = frame_system(space, [identity(space), identity(space)])
    assert certify(tight_sys).tight
    rng = np.random.default_rng(14)
    loose = random_system(rng, d=1, dims=[3], ops=3, cmp_lo=0.3, cmp_hi=3.0)
    cert = certify(loose)
    if cert.status == STATUS_FRAME:
        phi = frame_form_matrix(loose, 0, hermitian=False)
        gam = comparison_form_matrix(loose, 0)
        a2 = np.abs(cert.lower.values[0]) ** 2
        mismatch = np.linalg.norm(a2 * gam - phi) / np.linalg.norm(phi)
        assert cert.tight == (mismatch <= 1e-8)


# -- check_at and verify_bounds ------------------------------------------

def test_check_at_zero_vector():
    sys1 = parseval_system()
    cert = certify(sys1)
    rep = check_at(sys1, cert, sys1.space.zero_vector())
    assert rep.lower_ok and rep.upper_ok
    assert np.all(rep.slack_lower.values == 0)
    assert np.all(rep.slack_upper.values == 0)


def test_check_at_parseval_equality():
    sys1 = parseval_system()
    cert = certify(sys1)
    x = random_vector(np.random.default_rng(15), sys1.space)
    rep = check_at(sys1, cert, x)
    assert rep.lower_ok and rep.upper_ok
    assert np.max(np.abs(rep.slack_lower.values)) <= 1e-12
    assert np.max(np.abs(rep.slack_upper.values)) <= 1e-12


def test_check_at_random_frames():
    rng = np.random.default_rng(16)
    sysr = random_system(rng, d=2, dims=[3, 3], ops=4)
    cert = certify(sysr)
    for _ in range(200):
        rep = check_at(sysr, cert, random_vector(rng, sysr.space))
        assert rep.lower_ok and rep.upper_ok


def test_check_at_detects_inflated_lower_bound():
    rng = np.random.default_rng(17)
    sysr = random_system(rng, d=2, dims=[2, 2], ops=3)
    cert = certify(sysr)
    bad = type(cert)(
        lower=2.0 * cert.lower, upper=cert.upper, tight=False,
        lower_residual=0.0, upper_residual=0.0, status=cert.status,
        vacuous=cert.vacuous)
    flagged = 0
    for _ in range(100):
        rep = check_at(sysr, bad, random_vector(rng, sysr.space))
        flagged += not rep.lower_ok
    assert flagged > 50


def test_check_at_verdicts_read_its_own_slacks():
    rng = np.random.default_rng(44)
    sysr = random_system(rng, d=3, dims=[2, 3, 2], ops=3)
    cert = certify(sysr)
    probe = replace(cert, lower=1.5 * cert.lower, upper=0.8 * cert.upper)
    seen = set()
    for _ in range(100):
        rep = check_at(sysr, probe, random_vector(rng, sysr.space))
        assert rep.lower_ok == alg_is_positive(rep.slack_lower)
        assert rep.upper_ok == alg_is_positive(rep.slack_upper)
        seen.add((rep.lower_ok, rep.upper_ok))
    assert len(seen) > 1


def test_verify_bounds_witness_on_violation():
    rng = np.random.default_rng(18)
    sysr = random_system(rng, d=2, dims=[2, 2], ops=3)
    cert = certify(sysr)
    res = verify_bounds(sysr, 2.0 * cert.lower, cert.upper, samples=500,
                        seed=3)
    assert not res.verified
    assert res.witness is not None
    rep = check_at(sysr, type(cert)(
        lower=2.0 * cert.lower, upper=cert.upper, tight=False,
        lower_residual=0.0, upper_residual=0.0, status=cert.status,
        vacuous=cert.vacuous), res.witness)
    assert not rep.lower_ok


def test_verify_bounds_without_samples():
    # samples=0 samples nothing, as in certify: residual 0.0, no witness
    rng = np.random.default_rng(19)
    sysr = random_system(rng, d=2, dims=[2, 2], ops=3)
    cert = certify(sysr, samples=0)
    assert cert.lower_residual == 0.0 and cert.upper_residual == 0.0
    for lower in (cert.lower, 2.0 * cert.lower):
        res = verify_bounds(sysr, lower, cert.upper, samples=0)
        assert res.verified
        assert res.residual == 0.0
        assert res.witness is None


def one_fiber_system(phi_diag):
    """One character and one fiber with W = I and K = I, and the family
    {diag(sqrt(phi_diag))}, so Phi = diag(phi_diag)."""
    space = make_space(Algebra(1), [len(phi_diag)])
    t = ModuleOperator(space, space,
                       (np.diag(np.sqrt(phi_diag)).astype(complex),))
    return frame_system(space, [t])


def test_lower_bound_failing_on_a_thin_set_is_refused():
    # Phi = diag(1, 2, ..., 2) in dim 32: |A|^2 = 1.5 fails exactly where
    # |x_1|^2 > sum_{k >= 2} |x_k|^2, a set of probability 2^-31 under a
    # complex Gaussian draw, so 1000 samples found no violation
    sysr = one_fiber_system([1.0] + [2.0] * 31)
    cert = certify(sysr)
    assert cert.status == STATUS_FRAME
    alg = sysr.space.algebra
    lower, upper = alg.element([np.sqrt(1.5)]), alg.element([np.sqrt(2.0)])
    for seed in range(5):
        for samples in (1, 1000):
            res = verify_bounds(sysr, lower, upper, samples=samples,
                                seed=seed)
            assert not res.verified
            # -0.5 over s = max(1, |Phi|_F, |2 I|_F) = 2 sqrt(32)
            assert res.residual == pytest.approx(0.5 / (2 * np.sqrt(32)),
                                                 rel=1e-12)
            rep = check_at(sysr, replace(cert, lower=lower, upper=upper),
                           res.witness)
            assert not rep.lower_ok and rep.upper_ok


def test_lower_bound_off_by_a_small_eigenvalue_is_refused():
    # Phi - A^2 Gamma = diag(-1e-6, 1, ..., 1) with n = 8
    sysr = one_fiber_system([1.0 - 1e-6] + [2.0] * 7)
    alg = sysr.space.algebra
    res = verify_bounds(sysr, alg.element([1.0]), alg.element([np.sqrt(2.0)]))
    assert not res.verified
    assert res.residual == pytest.approx(1e-6 / (2 * np.sqrt(8)), rel=1e-8)
    np.testing.assert_allclose(np.abs(res.witness.parts[0]),
                               np.eye(8)[0], atol=1e-12)


def test_exact_residuals_do_not_depend_on_samples_or_seed():
    sysr = random_system(np.random.default_rng(48), d=3, dims=[2, 3, 2],
                         ops=3)
    cert = certify(sysr)
    probe = (1.2 * cert.lower, 0.9 * cert.upper)
    seen = set()
    for samples in (1, 1000):
        c = certify(sysr, samples=samples)
        for seed in (0, 3):
            res = verify_bounds(sysr, *probe, samples=samples, seed=seed)
            assert not res.verified
            seen.add((c.lower_residual.hex(), c.upper_residual.hex(),
                      res.residual.hex()))
    assert len(seen) == 1


def test_status_reads_the_exact_margins(monkeypatch):
    # a lower bound inflated past the optimal one fails its side's margin,
    # so the verdict is not frame even though the bound path said ok
    sysr = random_system(np.random.default_rng(49), d=2, dims=[2, 3], ops=2)
    assert certify(sysr).status == STATUS_FRAME
    solve = cframe.frames.optimal_lower_bound

    def inflated(sysm):
        low = solve(sysm)
        return replace(low, element=low.element * (1.0 + 1e-6))

    monkeypatch.setattr(cframe.frames, "optimal_lower_bound", inflated)
    cert = certify(sysr)
    assert cert.status != STATUS_FRAME
    assert cert.lower_residual > cframe.frames._VERIFY_TOL
    assert certify(sysr, samples=0).status == cert.status


def test_identity_system_residuals_are_positive_zero():
    # the golden report prints 0.0 and selftest asks == 0.0: a -0.0
    # would change the golden bytes
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "golden",
                        "identity_system.json")
    sysg = parse_system(path).build_system()
    cert = certify(sysg)
    ver = verify_bounds(sysg, cert.lower, cert.upper)
    assert ver.verified and ver.witness is None
    for r in (cert.lower_residual, cert.upper_residual, ver.residual):
        assert r == 0.0 and math.copysign(1.0, r) == 1.0


def test_check_at_wrong_space():
    sys1 = parseval_system()
    other = make_space(Algebra(2), [2, 2])
    with pytest.raises(SpaceMismatch):
        check_at(sys1, certify(sys1), other.zero_vector())


# -- reconstruction -------------------------------------------------------

def test_reconstruct_parseval_is_identity():
    sys1 = parseval_system()
    x = random_vector(np.random.default_rng(19), sys1.space)
    rec = reconstruct(sys1, x)
    assert rec.method == "direct"
    assert module_norm(rec.vector - x) <= 1e-12
    assert rec.lambda_min == pytest.approx(1.0)
    assert rec.lambda_max == pytest.approx(1.0)


def test_reconstruct_doubled_family_round_trip():
    # S = 2I: the solver must undo the doubling exactly
    space = make_space(Algebra(1), [3])
    sys2 = frame_system(space, [identity(space), identity(space)])
    x = random_vector(np.random.default_rng(20), space)
    rec = reconstruct(sys2, x)
    assert module_norm(rec.vector - x) <= 1e-12
    assert rec.lambda_min == pytest.approx(2.0)


def test_reconstruct_richardson_meets_classical_rate():
    # condition number 10: contraction (kappa-1)/(kappa+1) = 9/11
    space = make_space(Algebra(1), [2])
    t = ModuleOperator(space, space, (np.diag([1.0, np.sqrt(10.0)]),))
    sysk = frame_system(space, [t])
    x = random_vector(np.random.default_rng(21), space)
    rec = reconstruct(sysk, x, method="richardson")
    assert rec.lambda_min == pytest.approx(1.0, rel=1e-12)
    assert rec.lambda_max == pytest.approx(10.0, rel=1e-12)
    assert rec.residual <= 1e-9
    kappa = 10.0
    rho = (kappa - 1.0) / (kappa + 1.0)
    classical = np.log(1e-9) / np.log(rho)
    assert rec.iterations <= classical + 10
    assert module_norm(rec.vector - x) <= 1e-7 * max(1.0, module_norm(x))


def test_reconstruct_rejects_singular_operator():
    space = make_space(Algebra(1), [2])
    proj = ModuleOperator(space, space, (np.diag([1.0, 0.0]),))
    sysp = frame_system(space, [proj])
    with pytest.raises(SingularFrameOperator):
        reconstruct(sysp, space.zero_vector())


def test_reconstruct_unknown_method():
    sys1 = parseval_system()
    with pytest.raises(BadParameters, match="unknown method 'cg'"):
        reconstruct(sys1, sys1.space.zero_vector(), method="cg")


# -- system construction checks ------------------------------------------

def test_controls_must_be_glplus():
    space = make_space(Algebra(1), [2])
    bad = ModuleOperator(space, space, (np.diag([1.0, -1.0]),))
    with pytest.raises(NotGLPlus):
        frame_system(space, [identity(space)], control=bad)


def test_commutation_flags_reflect_structure():
    rng = np.random.default_rng(22)
    space = make_space(Algebra(1), [3])
    fam = unitary_diag_family(rng, space, 2)
    c = diagonal_glplus(rng, space)
    cp = diagonal_glplus(rng, space)
    sysd = frame_system(space, list(fam), control=c, control_prime=cp)
    # diagonal controls commute with each other and the diagonal Gram
    assert sysd.flags.controls_commute
    assert sysd.flags.controls_with_family
    hpd = ModuleOperator(space, space, (random_hpd(rng, 3),))
    sysh = frame_system(space, list(fam), control=hpd)
    assert not sysh.flags.controls_with_family
    assert sysh.flags.worst_residual > 1e-10


def test_family_gram_additivity():
    rng = np.random.default_rng(23)
    space = make_space(Algebra(1), [3])
    fam = [random_operator(rng, space) for _ in range(3)]
    whole = frame_system(space, fam)
    total = np.zeros((3, 3), dtype=np.complex128)
    for t in fam:
        total += frame_form_matrix(frame_system(space, [t]), 0,
                                   hermitian=False)
    np.testing.assert_allclose(frame_form_matrix(whole, 0, hermitian=False),
                               total, atol=1e-12)


def test_with_comparison_swaps_operator():
    rng = np.random.default_rng(24)
    sysr = random_system(rng, d=2, dims=[2, 2], ops=2)
    k2 = scalar_glplus(rng, sysr.space)
    swapped = with_comparison(sysr, k2)
    assert swapped.comparison is k2
    assert swapped.family == sysr.family


def commutation_residual_reference(x, y):
    """The per-fiber commutation residual, built from op_compose and
    op_norm: the independent reference for the stacked one."""
    nx, ny = op_norm(x), op_norm(y)
    num = op_norm(op_compose(x, y) - op_compose(y, x))
    return num / max(nx * ny, 1e-300)


def test_flags_match_residuals_taken_one_by_one():
    rng = np.random.default_rng(25)
    space = make_space(Algebra(2), [3, 2])
    c = diagonal_glplus(rng, space)
    cp = ModuleOperator(space, space, tuple(random_hpd(rng, n)
                                            for n in space.dims))
    k = random_operator(rng, space)
    fam = [random_operator(rng, space) for _ in range(3)]
    sysr = frame_system(space, fam, control=c, control_prime=cp,
                        comparison=k)
    grams = [op_compose(op_adjoint(t), t) for t in fam]
    want = [commutation_residual_reference(c, cp)]
    want += [commutation_residual_reference(x, g)
             for g in grams for x in (c, cp)]
    want += [commutation_residual_reference(c, k),
             commutation_residual_reference(cp, k)]
    assert sysr.flags.worst_residual == max(want)


CONTROL_KINDS = ["identity", "scalar", "diagonal", "hpd"]


def weight_inv(space, j):
    """W_j^-1, read from the space's group stacks."""
    k = next(k for k, idx in enumerate(space.groups) if j in idx)
    return space.stacks[k][1][space.groups[k].index(j)]


def positive_control(rng, space, kind):
    """A GL+ control of the given kind; None is the identity default.

    Diagonal and HPD matrices P are positive only for flat weights; with
    HPD weights the control is W^-1 P, whose weighted form W W^-1 P = P
    is positive.  Scalars are positive under any weight.
    """
    if kind == "identity":
        return None
    blocks = []
    for j, n in enumerate(space.dims):
        if kind == "scalar":
            blocks.append(rng.uniform(0.5, 2.0) * np.eye(n, dtype=complex))
            continue
        p = (np.diag(rng.uniform(0.5, 2.0, size=n)) + 0j if kind == "diagonal"
             else random_hpd(rng, n))
        flat = np.array_equal(space.weights[j], np.eye(n))
        blocks.append(p if flat else weight_inv(space, j) @ p)
    return ModuleOperator(space, space, tuple(blocks))


# Random systems for the flag tests: mixed dims, flat or HPD weights, and
# identity, scalar, diagonal or HPD controls.
FLAG_SYSTEMS = given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    weights=st.sampled_from(["identity", "random"]),
    c_kind=st.sampled_from(CONTROL_KINDS),
    cp_kind=st.sampled_from(CONTROL_KINDS),
    k_kind=st.sampled_from(["identity", "scalar", "dense"]),
    fam_kind=st.sampled_from(["unitary_diag", "dense"]),
    members=st.integers(1, 3))


def flag_system(seed, dims, weights, c_kind, cp_kind, k_kind, fam_kind,
                members):
    rng = np.random.default_rng(seed)
    space = random_space(rng, Algebra(len(dims)), dims, weights=weights)
    fam = (unitary_diag_family(rng, space, members)
           if fam_kind == "unitary_diag"
           else [random_operator(rng, space) for _ in range(members)])
    k = {"identity": None, "scalar": scalar_glplus(rng, space),
         "dense": random_operator(rng, space)}[k_kind]
    return frame_system(space, fam,
                        control=positive_control(rng, space, c_kind),
                        control_prime=positive_control(rng, space, cp_kind),
                        comparison=k)


@settings(max_examples=80, deadline=None)
@FLAG_SYSTEMS
def test_stacked_flags_equal_one_by_one_residuals(seed, dims, weights, c_kind,
                                                  cp_kind, k_kind, fam_kind,
                                                  members):
    sysr = flag_system(seed, dims, weights, c_kind, cp_kind, k_kind,
                       fam_kind, members)
    c, cp, k = sysr.control, sysr.control_prime, sysr.comparison
    grams = [op_compose(op_adjoint(t), t) for t in sysr.family]
    r_cc = commutation_residual_reference(c, cp)
    r_fam = [commutation_residual_reference(x, g)
             for g in grams for x in (c, cp)]
    r_k = [commutation_residual_reference(c, k),
           commutation_residual_reference(cp, k)]
    flags = sysr.flags
    assert flags.controls_commute == (r_cc <= _COMMUTE_RTOL)
    assert flags.controls_with_family == (max(r_fam) <= _COMMUTE_RTOL)
    assert flags.controls_with_k == (max(r_k) <= _COMMUTE_RTOL)
    want = max([r_cc] + r_fam + r_k)
    assert flags.worst_residual.hex() == want.hex()
    if {c_kind, cp_kind} <= {"identity", "scalar"}:
        # Scalar controls commute exactly: every commutator is zero.
        assert flags.worst_residual == 0.0


@settings(max_examples=80, deadline=None)
@FLAG_SYSTEMS
def test_commutation_residual_equals_reference(**drawn):
    # Every pair the flags check: C with C', C and C' with each T^* T,
    # C and C' with K.
    sysr = flag_system(**drawn)
    c, cp, k = sysr.control, sysr.control_prime, sysr.comparison
    grams = [op_compose(op_adjoint(t), t) for t in sysr.family]
    pairs = [(c, cp), (c, k), (cp, k)]
    pairs += [(x, g) for g in grams for x in (c, cp)]
    for x, y in pairs:
        got = commutation_residual(x, y)
        assert got.hex() == commutation_residual_reference(x, y).hex()


def test_transform_not_commuting_residual_equals_reference():
    rng = np.random.default_rng(32)
    space = make_space(Algebra(2), [3, 2])
    sysr = frame_system(space, [identity(space)],
                        control=diagonal_glplus(rng, space))
    q = random_operator(rng, space)
    with pytest.raises(NotCommuting) as err:
        compose_with_q(sysr, q)
    want = commutation_residual_reference(q, sysr.control)
    assert want > _COMMUTE_RTOL
    assert err.value.residual.hex() == want.hex()


def test_commutation_residual_needs_endomorphisms_of_one_space():
    one = make_space(Algebra(1), [2])
    other = make_space(Algebra(1), [3])
    rect = ModuleOperator(one, other, (np.ones((3, 2)),))
    with pytest.raises(SpaceMismatch):
        commutation_residual(identity(one), identity(other))
    with pytest.raises(SpaceMismatch):
        commutation_residual(rect, identity(one))


def test_commutation_residual_overflow_is_not_finite():
    space = make_space(Algebra(1), [2])
    big = ModuleOperator(space, space, (np.array([[1e200, 1e200],
                                                  [0.0, 1e200]]),))
    other = ModuleOperator(space, space, (np.array([[1.0, 0.0],
                                                    [1e200, 1.0]]),))
    with pytest.raises(NotFinite, match="commutator"):
        commutation_residual(big, other)


class Calls(list):
    """Recorded calls; passes[i] names the pass of call i, "bracket" or
    "exact"."""

    def __init__(self):
        super().__init__()
        self.passes = []

    def record(self, entry, exact):
        self.append(entry)
        self.passes.append("exact" if exact else "bracket")


def count_gram_operands(monkeypatch):
    """Count the members whose T^* T stacks the flags build."""
    calls = Calls()
    real = cframe.frames._member_residual

    def counting(space, controls, family, batch, norms, exact=True):
        for i in batch:
            calls.record(f"family[{i}]", exact)
        return real(space, controls, family, batch, norms, exact)

    monkeypatch.setattr(cframe.frames, "_member_residual", counting)
    return calls


def count_residuals(monkeypatch):
    """Count the residuals the flags run, by operand pair."""
    calls = Calls()
    real = cframe.frames._residual

    def counting(space, x, y, norms, exact=True):
        calls.record((x[0], y[0]), exact)
        return real(space, x, y, norms, exact)

    monkeypatch.setattr(cframe.frames, "_residual", counting)
    return calls


def reference_flags(sysr):
    """The flags from commutation_residual_reference, pair by pair."""
    c, cp, k = sysr.control, sysr.control_prime, sysr.comparison
    grams = [op_compose(op_adjoint(t), t) for t in sysr.family]
    r_cc = commutation_residual_reference(c, cp)
    r_fam = max(commutation_residual_reference(x, g)
                for g in grams for x in (c, cp))
    r_k = max(commutation_residual_reference(c, k),
              commutation_residual_reference(cp, k))
    return (r_cc <= _COMMUTE_RTOL, r_fam <= _COMMUTE_RTOL,
            r_k <= _COMMUTE_RTOL, max(r_cc, r_fam, r_k))


def flag_tuple(sysr):
    f = sysr.flags
    return (f.controls_commute, f.controls_with_family, f.controls_with_k,
            f.worst_residual)


def test_real_scalar_controls_build_no_gram(monkeypatch):
    calls = count_gram_operands(monkeypatch)
    residuals = count_residuals(monkeypatch)
    rng = np.random.default_rng(40)
    space = random_space(rng, Algebra(3), [3, 1, 3], weights="random")
    fam = [random_operator(rng, space) for _ in range(4)]
    sysr = frame_system(space, fam, control=scalar_glplus(rng, space),
                        control_prime=scalar_glplus(rng, space),
                        comparison=random_operator(rng, space))
    assert calls == [] and residuals == []
    assert flag_tuple(sysr) == (True, True, True, 0.0)
    # The identity is a real scalar too.
    frame_system(space, fam)
    assert calls == [] and residuals == []


@pytest.mark.parametrize("big", [1e299, 1e308])
def test_scalar_controls_with_k_failing_the_screen_run_the_residuals(
        monkeypatch, big):
    # c = 10: c^2 |K|_F exceeds the screen's 1e300 in both cases; c K
    # is finite at 1e299 and overflows at 1e308.
    calls = count_gram_operands(monkeypatch)
    residuals = count_residuals(monkeypatch)
    space = make_space(Algebra(2), [2, 1])
    k = ModuleOperator(space, space, (np.array([[big, 1.0], [0.0, 1.0]]),
                                      np.eye(1)))
    build = lambda: frame_system(space, [identity(space)],
                                 control=scalar_operator(space, 10.0),
                                 comparison=k)
    if big == 1e308:
        with pytest.raises(NotFinite) as err:
            build()
        assert str(err.value) == ("commutator of control and comparison "
                                  "is not finite")
        assert residuals == [("control", "control_prime"),
                             ("control", "comparison")]
        return
    sysr = build()
    assert calls == []
    assert residuals == [("control", "control_prime"),
                         ("control", "comparison"),
                         ("control_prime", "comparison")]
    got, want = flag_tuple(sysr), reference_flags(sysr)
    assert got == (True, True, True, 0.0)
    assert got[:3] == want[:3]
    assert got[3].hex() == want[3].hex()


def test_scalar_controls_failing_the_screen_take_the_full_path(monkeypatch):
    calls = count_gram_operands(monkeypatch)
    rng = np.random.default_rng(41)
    space = make_space(Algebra(2), [2, 1])
    big = ModuleOperator(space, space, (np.full((2, 2), 1e150), [[1.0]]))
    fam = [random_operator(rng, space), big]
    sysr = frame_system(space, fam, control=scalar_glplus(rng, space),
                        control_prime=scalar_glplus(rng, space))
    # T^* T of the big member is finite, about 2e300.
    assert np.isfinite(op_compose(op_adjoint(big), big).blocks[0]).all()
    assert calls == ["family[0]", "family[1]"]
    got, want = flag_tuple(sysr), reference_flags(sysr)
    assert got[:3] == want[:3]
    assert got[3].hex() == want[3].hex()


@pytest.mark.parametrize("nudge", ["imaginary", "off_diagonal"])
def test_nearly_real_scalar_controls_take_the_full_path(monkeypatch, nudge):
    calls = count_gram_operands(monkeypatch)
    rng = np.random.default_rng(42)
    space = make_space(Algebra(2), [3, 2])
    c = scalar_glplus(rng, space)
    block = np.array(c.blocks[0])
    if nudge == "imaginary":
        block = block + 1e-14j * np.eye(3)
    else:
        block[0, 1] = 1e-300
    c = ModuleOperator(space, space, (block, c.blocks[1]))
    fam = [random_operator(rng, space) for _ in range(3)]
    sysr = frame_system(space, fam, control=c)  # passes the GL+ check
    assert calls == ["family[0]", "family[1]", "family[2]"]
    got, want = flag_tuple(sysr), reference_flags(sysr)
    assert got[:3] == want[:3]
    assert got[3].hex() == want[3].hex()


def family_residual_reference(sysr, c, cp):
    """max_i max(residual(C, T_i^* T_i), residual(C', T_i^* T_i)), one
    commutation_residual per pair."""
    grams = [op_compose(op_adjoint(t), t) for t in sysr.family]
    return max(commutation_residual(x, g) for g in grams for x in (c, cp))


def member_entries(space):
    return sum(n * n for n in space.dims)


@pytest.mark.parametrize("seed", [70, 71, 72])
@pytest.mark.parametrize("controls", ["diagonal", "scalar", "identity"])
@pytest.mark.parametrize("weights", ["identity", "random"])
@pytest.mark.parametrize("batch", [None, 2])
def test_batched_family_residual_equals_member_by_member(monkeypatch, seed,
                                                         controls, weights,
                                                         batch):
    # Mixed dims with two 1 x 1 fibers; with batch set, the family of 5
    # is taken two members at a time.
    rng = np.random.default_rng(seed)
    sysr = random_system(rng, d=5, dims=[3, 1, 2, 1, 3], ops=5,
                         controls="scalar", weights=weights,
                         family="generic", comparison="generic")
    space = sysr.space
    c, cp = {"diagonal": (diagonal_glplus(rng, space),
                          diagonal_glplus(rng, space)),
             "scalar": (scalar_glplus(rng, space), scalar_glplus(rng, space)),
             "identity": (identity(space), identity(space))}[controls]
    calls = count_gram_operands(monkeypatch)
    if batch:
        monkeypatch.setattr(cframe.frames, "_FLAG_BATCH_ENTRIES",
                            batch * member_entries(space))
    got = cframe.frames._family_residual(
        space, (("control", c.stacks), ("control_prime", cp.stacks)),
        sysr.family, {})
    assert got.hex() == family_residual_reference(sysr, c, cp).hex()
    assert calls == [f"family[{i}]" for i in range(5)]
    if controls != "diagonal" or weights == "identity":
        # GL+ controls: the system's own flags equal the reference too.
        flagged = with_controls(sysr, c, cp)
        got, want = flag_tuple(flagged), reference_flags(flagged)
        assert got[:3] == want[:3]
        assert got[3].hex() == want[3].hex()


def test_flags_of_a_family_beyond_one_batch_are_taken_in_batches(
        monkeypatch):
    rng = np.random.default_rng(73)
    sysr = random_system(rng, d=3, dims=[2, 1, 2], ops=7)
    calls = Calls()
    real = cframe.frames._member_residual
    monkeypatch.setattr(
        cframe.frames, "_member_residual",
        lambda space, controls, family, batch, norms, exact=True:
        calls.record(list(batch), exact)
        or real(space, controls, family, batch, norms, exact))
    monkeypatch.setattr(cframe.frames, "_FLAG_BATCH_ENTRIES",
                        3 * member_entries(sysr.space))
    flagged = with_family(sysr, sysr.family)
    assert calls == [[0, 1, 2], [3, 4, 5], [6]]
    assert flag_tuple(flagged) == flag_tuple(sysr)
    assert flag_tuple(flagged)[3].hex() == reference_flags(sysr)[3].hex()


def overflowing_family(case):
    """Diagonal controls and four members: member 2 holds a 1e200 block
    (its T^* T overflows), or member 1's T^* T is finite but overflows
    in the commutator with a control of entry 1e10 and member 3 holds a
    1e200 block."""
    rng = np.random.default_rng(60)
    space = random_space(rng, Algebra(3), [2, 1, 2], weights="identity")
    fam = [random_operator(rng, space) for _ in range(4)]
    c = diagonal_glplus(rng, space)
    big = {2: (0, 1e200)} if case == "gram" else {1: (0, 1e150),
                                                  3: (0, 1e200)}
    if case != "gram":
        c = ModuleOperator(space, space, (np.diag([1e10, 1.0]), np.eye(1),
                                          np.eye(2)))
    for i, (j, value) in big.items():
        blocks = list(fam[i].blocks)
        blocks[j] = np.full((2, 2), value)
        fam[i] = ModuleOperator(space, space, tuple(blocks))
    return space, fam, c


@pytest.mark.parametrize("case, message, calls", [
    ("gram", "family[2]^* family[2] is not finite",
     ["family[0]", "family[1]", "family[2]", "family[3]",
      "family[0]", "family[1]", "family[2]"]),
    # The batch's own checks meet member 3 first; member by member,
    # member 1 fails first, as the flags taken one by one do.
    ("commutator", "commutator of control and family[1]^* family[1] is "
                   "not finite",
     ["family[0]", "family[1]", "family[2]", "family[3]",
      "family[0]", "family[1]"]),
])
def test_overflow_in_a_batch_names_the_member_one_by_one_names(
        monkeypatch, case, message, calls):
    space, fam, c = overflowing_family(case)
    seen = count_gram_operands(monkeypatch)
    with pytest.raises(NotFinite) as err:
        frame_system(space, fam, control=c)
    assert str(err.value) == message
    assert seen == calls


# -- flag verdicts near the threshold ---------------------------------------

def near_commuting_system(rng, dims, weights, kind, pair, eps):
    """A GL+ control C = W^-1 P (P diagonal or HPD) and one operand that
    misses commuting with it by a term of size eps: C' = W^-1 (P + eps H)
    for pair "controls", the member I + eps E for "family", or
    K = C + eps E for "comparison", H Hermitian and E generic.  Every
    other pair commutes."""
    space = random_space(rng, Algebra(len(dims)), dims, weights=weights)
    p = [np.diag(rng.uniform(0.5, 2.0, size=n)) + 0j if kind == "diagonal"
         else random_hpd(rng, n) for n in dims]
    e = [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
         / np.sqrt(2.0) for n in dims]
    w_inv = [weight_inv(space, j) for j in range(len(dims))]
    c = ModuleOperator(space, space, tuple(a @ b for a, b in zip(w_inv, p)))
    if pair == "controls":
        cp = ModuleOperator(space, space, tuple(
            a @ (b + eps * hermitian_part(m)) for a, b, m in zip(w_inv, p, e)))
        return frame_system(space, [identity(space)], control=c,
                            control_prime=cp)
    bent = ModuleOperator(space, space, tuple(
        (np.eye(n) if pair == "family" else b) + eps * m
        for n, b, m in zip(dims, c.blocks, e)))
    if pair == "family":
        return frame_system(space, [bent], control=c, control_prime=c)
    return frame_system(space, [identity(space)], control=c,
                        control_prime=c, comparison=bent)


def near_threshold_system(seed, dims, weights, kind, pair, target):
    """near_commuting_system with eps scaled, by three secant steps on
    the reference residual, so that the residual lies near target."""
    eps = 1e-6
    for _ in range(3):
        sysr = near_commuting_system(np.random.default_rng(seed), dims,
                                     weights, kind, pair, eps)
        got = reference_flags(sysr)[3]
        if got == 0.0:
            return sysr
        eps *= target / got
    return near_commuting_system(np.random.default_rng(seed), dims, weights,
                                 kind, pair, eps)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       dims=st.lists(st.integers(1, 16), min_size=1, max_size=3),
       weights=st.sampled_from(["identity", "random"]),
       kind=st.sampled_from(["diagonal", "generic"]),
       pair=st.sampled_from(["controls", "family", "comparison"]),
       power=st.floats(-1.0, 1.0))
def test_flags_near_the_threshold_equal_the_spectral_rule(
        seed, dims, weights, kind, pair, power):
    sysr = near_threshold_system(seed, dims, weights, kind, pair,
                                 _COMMUTE_RTOL * 10.0 ** power)
    want = reference_flags(sysr)
    if max(dims) > 1:
        assert _COMMUTE_RTOL / 11 < want[3] < _COMMUTE_RTOL * 11
    got = flag_tuple(sysr)
    assert got[:3] == want[:3]
    assert got[3].hex() == want[3].hex()


def edge_system(pair, eps):
    """C = diag(1, 2) on one flat fiber of dim 2 and one operand whose
    commutator with it is exact: C' = [[1, eps], [eps, 2]], the member
    [[1, eps], [0, 1]] (its T^* T rounds to [[1, eps], [eps, 1]]), or
    K = [[1, eps], [0, 1]]."""
    space = make_space(Algebra(1), [2])
    c = ModuleOperator(space, space, (np.diag([1.0, 2.0]),))
    bent = ModuleOperator(space, space, (np.array(
        [[1.0, eps], [eps if pair == "controls" else 0.0,
                      2.0 if pair == "controls" else 1.0]]),))
    return frame_system(space, [bent if pair == "family" else identity(space)],
                        control=c,
                        control_prime=bent if pair == "controls" else None,
                        comparison=bent if pair == "comparison" else None)


@pytest.mark.parametrize("pair", ["controls", "family", "comparison"])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_flags_at_the_edge_of_the_bracket_slack(monkeypatch, pair, side):
    # The residual sits at tau (1 +- delta), where no bracket decides;
    # eps comes from secant steps on the reference residual.
    target = _COMMUTE_RTOL * (1.0 + side * cframe.frames._BRACKET_SLACK)
    eps = target
    for _ in range(4):
        eps *= target / reference_flags(edge_system(pair, eps))[3]
    residuals = count_residuals(monkeypatch)
    sysr = edge_system(pair, eps)
    assert "exact" in residuals.passes
    want = reference_flags(sysr)
    assert abs(want[3] / target - 1.0) < 1e-12
    assert want[:3].count(False) == (side > 0)
    got = flag_tuple(sysr)
    assert got[:3] == want[:3]
    assert got[3].hex() == want[3].hex()


def test_verdict_at_the_edges_of_the_slack():
    verdict, tau = cframe.frames._verdict, _COMMUTE_RTOL
    edge = 1.0 + cframe.frames._BRACKET_SLACK
    assert verdict(0.0, tau / edge) == cframe.frames._HOLDS
    assert verdict(0.0, tau) == cframe.frames._UNDECIDED
    assert verdict(tau * edge, tau * edge) == cframe.frames._UNDECIDED
    assert verdict(np.nextafter(tau * edge, 1.0), 1.0) == cframe.frames._FAILS
    assert verdict(np.nan, np.nan) == cframe.frames._UNDECIDED


@pytest.mark.parametrize("scale", [1e-170, 1e-160])
@pytest.mark.parametrize("operand", ["control_prime", "comparison"])
def test_flags_of_an_underflowing_commutator_take_the_exact_pass(
        monkeypatch, scale, operand):
    # Entries of size scale: their squares underflow (1e-340) or are
    # subnormal (1e-320), so no Frobenius norm of them is trusted.  A
    # tiny C' - C commutes within tau; a tiny K does not.
    residuals = count_residuals(monkeypatch)
    rng = np.random.default_rng(82)
    space = make_space(Algebra(2), [3, 2])
    c = diagonal_glplus(rng, space)
    tiny = [scale * (rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n))) for n in space.dims]
    if operand == "control_prime":
        cp = ModuleOperator(space, space, tuple(
            b + hermitian_part(m) for b, m in zip(c.blocks, tiny)))
        sysr = frame_system(space, [identity(space)], control=c,
                            control_prime=cp)
    else:
        sysr = frame_system(space, [identity(space)], control=c,
                            comparison=ModuleOperator(space, space,
                                                      tuple(tiny)))
    assert residuals.passes.count("exact") == 3
    want = reference_flags(sysr)
    assert want[:3] == ((True, True, True) if operand == "control_prime"
                        else (True, True, False))
    got = flag_tuple(sysr)
    assert got[:3] == want[:3]
    assert got[3].hex() == want[3].hex()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dims", [[3], [3, 2, 4]])
def test_random_hpd_controls_fail_every_flag_by_the_bracket(monkeypatch,
                                                            seed, dims):
    residuals = count_residuals(monkeypatch)
    gram_calls = count_gram_operands(monkeypatch)
    rng = np.random.default_rng(83 + seed)
    space = make_space(Algebra(len(dims)), dims)
    c1, c2 = (ModuleOperator(space, space, tuple(random_hpd(rng, n)
                                                 for n in dims))
              for _ in range(2))
    fam = [random_operator(rng, space) for _ in range(2)]
    sysr = frame_system(space, fam, control=c1, control_prime=c2,
                        comparison=random_operator(rng, space))
    assert set(residuals.passes) == set(gram_calls.passes) == {"bracket"}
    want = reference_flags(sysr)
    assert flag_tuple(sysr)[:3] == want[:3] == (False, False, False)
    with pytest.raises(NotCommuting) as err:
        analysis(sysr, space.zero_vector())
    assert err.value.residual.hex() == want[3].hex()
    assert set(residuals.passes) == {"bracket", "exact"}


def many_fibers_shaped_system(seed):
    """Diagonal controls and comparison, flat weights and a family of 12
    U diag(s) members on 64 fibers of dims 1 to 16, as certify-many-fibers
    has them."""
    return random_system(np.random.default_rng(seed), d=64,
                         dims=[1 + j % 16 for j in range(64)], ops=12)


def test_diagonal_controls_build_and_certify_without_an_svd(monkeypatch):
    callers = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    sysr = many_fibers_shaped_system(84)
    certify(sysr)
    assert set(callers) <= {"op_classify"}
    assert sysr.flags.controls_with_family


@pytest.mark.parametrize("read", [False, True])
def test_a_certified_system_is_freed_without_the_collector(read):
    sysr = many_fibers_shaped_system(85)
    certify(sysr)
    if read:
        assert sysr.flags.worst_residual < _COMMUTE_RTOL
    ref = weakref.ref(sysr)
    flags = sysr.flags
    enabled = gc.isenabled()
    gc.disable()
    try:
        del sysr
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    # The flags outlive their system and still read the residual.
    assert flags.worst_residual < _COMMUTE_RTOL


@pytest.mark.parametrize("weights", ["identity", "random"])
@pytest.mark.parametrize("c", [0.0, 1e-300, -1e-300, 1e-12, 1.0, 1e150,
                               -1.0])
def test_scalar_control_glplus_verdict_equals_op_classify(monkeypatch, c,
                                                          weights):
    space = random_space(np.random.default_rng(49), Algebra(3), [2, 3, 2],
                         weights=weights)
    control = scalar_operator(space, c)
    want = cframe.frames.op_classify(control).glplus
    classified = []
    real = cframe.frames.op_classify
    monkeypatch.setattr(cframe.frames, "op_classify",
                        lambda t: classified.append(t) or real(t))
    try:
        frame_system(space, [identity(space)], control=control)
        got = True
    except NotGLPlus as exc:
        assert str(exc) == "control must be positive and invertible"
        got = False
    assert got == want
    # a GL+ real scalar (and the identity control') skips op_classify
    assert classified == ([] if want else [control])


# -- the per-system form bundle --------------------------------------------

def test_form_bundle_is_read_only():
    rng = np.random.default_rng(26)
    sysr = random_system(rng, d=2, dims=[2, 3], ops=2)
    forms = sysr.forms
    assert frame_form_matrix(sysr, 1) is forms.phi[1]
    assert frame_form_matrix(sysr, 1, hermitian=False) is forms.phi_raw[1]
    assert comparison_form_matrix(sysr, 1) is forms.gamma[1]
    for mats in (forms.weight, forms.phi_raw, forms.phi, forms.gamma):
        for m in mats:
            with pytest.raises(ValueError):
                m[0, 0] = 1.0


def test_derived_systems_build_their_own_forms():
    space = make_space(Algebra(2), [2, 3])
    base = frame_system(space, [identity(space)])
    parent_forms = base.forms
    doubled = with_family(base, [identity(space), identity(space)])
    scaled = with_controls(base, scalar_operator(space, 2.0),
                           scalar_operator(space, 3.0))
    for derived, factor in ((doubled, 2.0), (scaled, 6.0)):
        assert derived.forms is not parent_forms
        for j, n in enumerate(space.dims):
            np.testing.assert_allclose(frame_form_matrix(derived, j),
                                       factor * np.eye(n))
    for j, n in enumerate(space.dims):
        np.testing.assert_array_equal(frame_form_matrix(base, j), np.eye(n))


def scipy_pencil(p, g):
    return scipy.linalg.eigh(p, g, eigvals_only=True)


def test_bounds_solve_each_fiber_group_once(monkeypatch):
    rng = np.random.default_rng(27)
    sysr = random_system(rng, d=5, dims=[2, 3, 2, 1, 3], ops=3,
                         weights="random", controls="scalar")
    calls = []
    solve = cframe.spectral._reduced_eigh

    def counted(p, g, *args):
        calls.append(np.shape(p))
        return solve(p, g, *args)

    monkeypatch.setattr(cframe.spectral, "_reduced_eigh", counted)
    optimal_upper_bound(sysr)
    optimal_lower_bound(sysr)
    certify(sysr)
    # one eigenvalues-only solve per dimension, shared by both bounds
    assert sorted(calls) == [(1, 1, 1), (2, 2, 2), (2, 3, 3)]
    spectrum = sysr.forms.phi_spectrum
    assert spectrum is sysr.forms.phi_spectrum
    for lam in spectrum:
        with pytest.raises(ValueError):
            lam[0] = 1.0


def internal_solver_results(sysm, q, x):
    """Hex of everything certify, adjoint_lower_bound, invertible_q_bounds
    and reconstruct return, on a copy of sysm with no cached forms."""
    sysm = replace(sysm)
    cert = certify(sysm)
    inv = invertible_q_bounds(sysm, q, cert=cert)
    out = [cert.status, cert.tight, cert.vacuous, inv.verified,
           inv.details["transformed_status"]]
    values = [cert.lower.values, cert.upper.values, inv.lower.values,
              inv.upper.values, inv.details["measured_lower"].values,
              inv.details["measured_upper"].values]
    floats = [cert.lower_residual, cert.upper_residual, inv.residual,
              inv.details["bracket_slack"],
              adjoint_lower_bound(sysm.comparison)]
    for method in ("direct", "richardson"):
        rec = reconstruct(sysm, x, method=method)
        out.append(rec.iterations)
        values.append(rec.vector.flat)
        floats += [rec.residual, rec.lambda_min, rec.lambda_max]
    return out + [v.tobytes().hex() for v in values] + [
        float(v).hex() for v in floats]


def test_internal_callers_run_no_public_check(monkeypatch):
    rng = np.random.default_rng(64)
    sysm = random_system(rng, d=5, dims=[2, 1, 3, 1, 2], controls="scalar",
                         comparison="diagonal")
    q = diagonal_operator(rng, sysm.space)
    x = random_vector(rng, sysm.space)
    want = internal_solver_results(sysm, q, x)
    assert len(sysm.space.groups) == 3 and want[0] == STATUS_FRAME

    def refuse(*args, **kwargs):
        raise AssertionError("a public check ran on internal data")

    monkeypatch.setattr(cframe.spectral, "pencil_eigh", refuse)
    monkeypatch.setattr(cframe.spectral, "_require_psd", refuse)
    assert internal_solver_results(sysm, q, x) == want


@pytest.mark.parametrize("seed", [28, 29, 30])
def test_optimal_bounds_match_scipy_pencils(seed):
    rng = np.random.default_rng(seed)
    sysr = random_system(rng, d=4, dims=[3, 1, 3, 4], ops=3,
                         controls="scalar", weights="random",
                         family="generic", comparison="diagonal")
    upper = optimal_upper_bound(sysr)
    low = optimal_lower_bound(sysr)
    assert low.ok
    for j in range(4):
        phi = frame_form_matrix(sysr, j)
        up = scipy_pencil(phi, sysr.space.weights[j])[-1]
        lo = scipy_pencil(phi, comparison_form_matrix(sysr, j))[0]
        assert abs(upper.values[j]) ** 2 == pytest.approx(up, rel=1e-10)
        assert abs(low.element.values[j]) ** 2 == pytest.approx(lo,
                                                                rel=1e-10)


def test_operator_spectrum_matches_scipy_pencils():
    rng = np.random.default_rng(31)
    sysr = random_system(rng, d=3, dims=[2, 3, 2], ops=2, controls="scalar",
                         weights="random", family="generic")
    s = frame_operator(sysr)
    lo, hi = _operator_spectrum(sysr, s)
    want = [scipy_pencil(0.5 * (w @ b + (w @ b).conj().T), w)
            for w, b in zip(sysr.space.weights, s.blocks)]
    assert lo == pytest.approx(min(v[0] for v in want), rel=1e-10)
    assert hi == pytest.approx(max(v[-1] for v in want), rel=1e-10)


# -- vacuity: a fiber is vacuous exactly when Gamma_j has no positive
# eigenvalue, and a certified lower bound holds at every fiber ------------

def assert_valid_lower(sysm, cert):
    forms = sysm.forms
    vacuous = []
    for j, (phi, gamma) in enumerate(zip(forms.phi, forms.gamma)):
        a2 = float(np.abs(cert.lower.values[j]) ** 2)
        slack = np.linalg.eigvalsh(phi - a2 * gamma)[0]
        scale = max(np.linalg.norm(phi), a2 * np.linalg.norm(gamma))
        assert slack >= -1e-12 * scale
        if np.linalg.eigvalsh(gamma)[-1] <= 0.0:
            vacuous.append(j)
    assert cert.vacuous == tuple(vacuous)


def test_certify_lower_at_a_small_comparison_form():
    # Phi_1 = 1e-12 and Gamma_1 = 1e-9: the lower bound there is
    # sqrt(1e-3), and the fiber is not vacuous
    space = make_space(Algebra(2), [1, 1])
    t = ModuleOperator(space, space, (np.eye(1), 1e-6 * np.eye(1)))
    k = ModuleOperator(space, space,
                       (np.eye(1), 3.1622776601683795e-05 * np.eye(1)))
    sysm = frame_system(space, [t], comparison=k)
    cert = certify(sysm)
    phi = frame_form_matrix(sysm, 1)[0, 0].real
    gamma = comparison_form_matrix(sysm, 1)[0, 0].real
    assert cert.status == STATUS_FRAME
    assert cert.vacuous == ()
    assert abs(cert.lower.values[1]) == pytest.approx(np.sqrt(phi / gamma),
                                                      rel=1e-12)
    assert_valid_lower(sysm, cert)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_certify_lower_does_not_depend_on_scale(c):
    space = make_space(Algebra(2), [2, 3])
    sysm = frame_system(space, [scalar_operator(space, 0.5 * c)],
                        comparison=scalar_operator(space, c))
    cert = certify(sysm)
    np.testing.assert_allclose(np.abs(cert.lower.values), [0.5, 0.5],
                               rtol=1e-12)
    assert cert.status == STATUS_FRAME
    assert_valid_lower(sysm, cert)


def test_fiber_with_zero_frame_and_comparison_forms_bounds_nothing():
    space = make_space(Algebra(2), [2, 2])
    proj = ModuleOperator(space, space, (np.eye(2), np.zeros((2, 2))))
    sysm = frame_system(space, [proj], comparison=proj)
    cert = certify(sysm)
    assert cert.status == STATUS_FRAME
    assert cert.vacuous == (1,)
    np.testing.assert_array_equal(cert.upper.values, [1.0, 1.0])
    np.testing.assert_array_equal(cert.lower.values, [1.0, 1.0])
    assert_valid_lower(sysm, cert)


# -- group stacks against the per-fiber reference ---------------------------

def family_gram_matrix(sys, j):
    """Sum over the family of M^H W M at fiber j."""
    n = sys.space.dims[j]
    w = sys.space.weights[j]
    acc = np.zeros((n, n), dtype=np.complex128)
    for t in sys.family:
        m = t.blocks[j]
        acc += m.conj().T @ w @ m
    return acc


def fiberwise_pencil_eigvals(ps, gs):
    """pencil_eigh(ps[j], gs[j]) for every j, as read-only arrays.

    The pairs are stacked by matrix size, so each size costs one call of
    the checked public solver, which keeps this reference independent of
    the unchecked one the code under test calls.
    """
    by_size = {}
    for j, m in enumerate(gs):
        by_size.setdefault(m.shape[-1], []).append(j)
    groups = list(by_size.values())
    lams = [pencil_eigh(np.stack([ps[j] for j in idx]),
                        np.stack([gs[j] for j in idx])) for idx in groups]
    for lam in lams:
        lam.setflags(write=False)
    return _fiber_views(groups, lams)


def build_forms_reference(sysm):
    """The per-fiber form loop: the reference for the group stacks."""
    phi_raw, phi, gamma = [], [], []
    k = sysm.comparison
    with np.errstate(over="ignore", invalid="ignore"):
        grams = _fiber_views(k.groups, _adjoint_grams(k))
        for j in range(len(sysm.space.dims)):
            raw = (sysm.control_prime.blocks[j].conj().T
                   @ family_gram_matrix(sysm, j) @ sysm.control.blocks[j])
            what = f"frame form Phi at fiber {j}"
            phi_raw.append(_finite(raw, what))
            phi.append(_finite(hermitian_part(raw), what))
            what = f"comparison form Gamma at fiber {j}"
            gamma.append(_finite(grams[j], what))
    return {"weight": sysm.space.weights, "phi_raw": phi_raw, "phi": phi,
            "gamma": gamma}


def lower_bound_reference(sysm):
    """(infima, vacuous, failed) fiber by fiber with restricted_pencil_min."""
    forms = sysm.forms
    infima, vacuous, failed = [], [], []
    for j, lam in enumerate(forms.phi_spectrum):
        if lam[0] < -_SKEW_RTOL * max(1.0, abs(float(lam[-1]))):
            infima.append(0.0)
            failed.append(j)
            continue
        lam, u = np.linalg.eigh(forms.phi[j])
        phi_psd = (u * np.clip(lam, 0.0, None)) @ u.conj().T
        val = restricted_pencil_min(phi_psd, forms.gamma[j])
        infima.append(val)
        if val == np.inf:
            vacuous.append(j)
        elif val <= 0.0:
            failed.append(j)
    return tuple(infima), tuple(vacuous), tuple(failed)


def check_at_reference(sysm, cert, x):
    """Slacks and verdicts from one vdot per fiber and form."""
    forms = sysm.forms

    def values(mats):
        return np.array([np.vdot(p, m @ p) for p, m in zip(x.parts, mats)])

    mid = values(forms.phi_raw)
    low = np.abs(cert.lower.values) ** 2 * values(forms.gamma).real
    up = np.abs(cert.upper.values) ** 2 * values(forms.weight).real
    scale = np.abs(mid) + np.abs(low) + np.abs(up)
    return mid - low, up - mid, scale


def check_at_stacked_reference(sys, cert, x):
    """check_at as it was before vectors held one buffer: stack each
    group's parts, store the values back by index, square the bounds.
    The reference that check_at must equal bit for bit."""
    if x.space != sys.space:
        raise SpaceMismatch("vector is not in the system space")
    _require_algebra(sys, cert.lower, cert.upper)
    forms = sys.forms
    chunks = []
    for idx in forms.groups:
        p = np.array([x.parts[j] for j in idx])
        stack = np.array([[views[j] for j in idx] for views in (
            forms.phi_raw, forms.gamma, forms.weight)])
        # x^H (M x) for M = phi_raw, gamma, weight of every fiber at once.
        mp = stack @ p[..., None]
        chunks.append((p.conj()[:, None, :] @ mp)[..., 0, 0])
    # The chunks hold the fibers in group order; one store puts them back.
    vals = np.empty((3, len(x.parts)), dtype=np.complex128)
    vals[:, np.concatenate(forms.groups)] = np.concatenate(chunks, axis=1)
    mid, gam, wt = vals
    low = np.abs(cert.lower.values) ** 2 * gam.real
    up = np.abs(cert.upper.values) ** 2 * wt.real
    alg = sys.space.algebra
    slacks = np.array([mid - low, up - mid])
    lower_ok, upper_ok = positive_rows(slacks, alg.eps_pos)
    return CheckReport(
        lower_ok=bool(lower_ok),
        upper_ok=bool(upper_ok),
        slack_lower=AlgebraElement(alg, slacks[0]),
        slack_upper=AlgebraElement(alg, slacks[1]),
    )


def unit(v):
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("dims", [
    [8] * 16,                         # one group, fibers in order
    list(range(1, 17)),               # one fiber per group
    [1 + j % 16 for j in range(64)],  # groups of scattered fibers
    [1, 3, 2, 3, 1],                  # groups out of fiber order
])
def test_check_at_is_bit_identical_to_the_stacked_reference(dims):
    rng = np.random.default_rng(48)
    sysm = random_system(rng, d=len(dims), dims=dims, ops=2,
                         controls="scalar", weights="random",
                         family="generic", comparison="generic")
    cert = certify(sysm, samples=0)
    probe = replace(cert, lower=1.3 * cert.lower, upper=0.9 * cert.upper)
    forms = sysm.forms
    # Per fiber, the vector where the lower (upper) bound is attained;
    # the probe violates it there.
    witnesses = [[unit(scipy.linalg.eigh(phi, b)[1][:, end])
                  for phi, b in zip(forms.phi, mats)]
                 for mats, end in ((forms.gamma, 0), (forms.weight, -1))]
    verdicts = {cert: set(), probe: set()}
    for k in range(100):
        c = cert if k % 2 else probe
        x = random_vector(rng, sysm.space)
        if c is probe:
            x = ModuleVector(sysm.space, tuple(
                w + 0.01 * p for w, p in zip(witnesses[k % 4 // 2], x.parts)))
        got, want = check_at(sysm, c, x), check_at_stacked_reference(
            sysm, c, x)
        for name in ("slack_lower", "slack_upper"):
            assert (getattr(got, name).values.tobytes()
                    == getattr(want, name).values.tobytes())
        assert (got.lower_ok, got.upper_ok) == (want.lower_ok, want.upper_ok)
        verdicts[c].add((got.lower_ok, got.upper_ok))
    assert verdicts[cert] == {(True, True)}
    assert any(not low for low, _ in verdicts[probe])
    assert any(not up for _, up in verdicts[probe])


def frame_operator_reference(sys):
    """The per-fiber frame operator blocks."""
    blocks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(len(sys.space.dims)):
            cp = sys.control_prime.blocks[j]
            c = sys.control.blocks[j]
            winv = weight_inv(sys.space, j)
            w = sys.space.weights[j]
            acc = np.zeros((sys.space.dims[j], sys.space.dims[j]),
                           dtype=np.complex128)
            for t in sys.family:
                m = t.blocks[j]
                acc += cp @ (winv @ m.conj().T @ w) @ m @ c
            blocks.append(_finite(acc, f"frame operator at fiber {j}"))
    return blocks


def operator_spectrum_reference(sys, s):
    ws = sys.space.weights
    spectra = fiberwise_pencil_eigvals(
        [hermitian_part(w @ b) for w, b in zip(ws, s.blocks)], ws)
    return (min(float(lam[0]) for lam in spectra),
            max(float(lam[-1]) for lam in spectra))


@pytest.mark.parametrize("controls", ["scalar", "hpd"])
def test_frame_operator_is_bit_identical_to_the_per_fiber_reference(controls):
    sysm = mixed_system(63, controls)
    s = frame_operator(sysm)
    want = frame_operator_reference(sysm)
    for got, b in zip(s.blocks, want):
        assert np.array_equal(got, b)
        assert not got.flags.writeable
    lo, hi = _operator_spectrum(sysm, s)
    ref_lo, ref_hi = operator_spectrum_reference(sysm, s)
    assert (lo.hex(), hi.hex()) == (ref_lo.hex(), ref_hi.hex())


def test_check_at_reports_share_no_writable_array():
    sysm = mixed_system(49, "hpd")
    cert = certify(sysm, samples=0)
    rng = np.random.default_rng(50)
    x, y = (random_vector(rng, sysm.space) for _ in range(2))
    reports = [check_at(sysm, cert, x), check_at(sysm, cert, y)]
    arrays = [[r.slack_lower.values, r.slack_upper.values] for r in reports]
    for arr in arrays[0] + arrays[1] + list(cert.squares) + [x.flat]:
        assert not arr.flags.writeable
    for a in arrays[0]:
        for b in arrays[1]:
            assert not np.shares_memory(a, b)
    assert cert.squares is cert.squares


def mixed_system(seed, controls):
    """Dims [1, 3, 2, 3, 1] with HPD weights; Gamma_1 is singular (K has
    rank 1 there) and fiber 4 has Phi_4 = Gamma_4 = 0."""
    rng = np.random.default_rng(seed)
    space = random_space(rng, Algebra(5), [1, 3, 2, 3, 1], weights="random")
    fam = []
    for _ in range(3):
        blocks = list(random_operator(rng, space).blocks)
        blocks[4] = np.zeros((1, 1))
        fam.append(ModuleOperator(space, space, tuple(blocks)))
    k = list(random_operator(rng, space).blocks)
    k[1] = np.outer(k[1][:, 0], k[1][0])
    k[4] = np.zeros((1, 1))
    c, cp = (positive_control(rng, space, controls) for _ in range(2))
    return frame_system(space, fam, control=c, control_prime=cp,
                        comparison=ModuleOperator(space, space, tuple(k)))


def assert_stacks_match_references(sysm):
    """Every form bit-identical to the per-fiber loop, and the lower
    bound's infima, vacuous and failed fibers identical to it."""
    forms = sysm.forms
    want = build_forms_reference(sysm)
    for name, mats in want.items():
        got = getattr(forms, name)
        assert len(got) == len(mats)
        for g, m in zip(got, mats):
            assert np.array_equal(g, m)
    spectrum = fiberwise_pencil_eigvals(want["phi"], want["weight"])
    for got, lam in zip(forms.phi_spectrum, spectrum):
        assert np.array_equal(got, lam)
    low = optimal_lower_bound(sysm)
    infima, vacuous, failed = lower_bound_reference(sysm)
    assert [v.hex() for v in low.infima] == [v.hex() for v in infima]
    assert (low.vacuous, low.failed) == (vacuous, failed)
    return low


@pytest.mark.parametrize("seed", [40, 41])
@pytest.mark.parametrize("controls", ["scalar", "hpd"])
def test_group_stacks_equal_per_fiber_references(seed, controls):
    sysm = mixed_system(seed, controls)
    forms = sysm.forms
    assert [tuple(idx) for idx in forms.groups] == [(0, 4), (1, 3), (2,)]
    np.testing.assert_array_equal(forms.gamma[4], 0.0)
    np.testing.assert_array_equal(forms.phi[4], 0.0)
    assert np.linalg.matrix_rank(forms.gamma[1]) == 1
    low = assert_stacks_match_references(sysm)
    if controls == "scalar":
        # Phi is PSD: fiber 4 is vacuous, fiber 1 takes the restricted
        # infimum over range(Gamma_1), the rest the full-rank stack.
        assert low.vacuous == (4,) and low.failed == ()


@pytest.mark.parametrize("controls", ["scalar", "hpd"])
def test_stacked_check_at_equals_per_fiber_vdot(controls):
    sysm = mixed_system(42, controls)
    cert = certify(sysm)
    rng = np.random.default_rng(43)
    for lower in (cert.lower, 1.5 * cert.lower):
        probe = replace(cert, lower=lower)
        for _ in range(50):
            x = random_vector(rng, sysm.space)
            rep = check_at(sysm, probe, x)
            low, up, scale = check_at_reference(sysm, probe, x)
            assert np.all(np.abs(rep.slack_lower.values - low)
                          <= 1e-12 * scale)
            assert np.all(np.abs(rep.slack_upper.values - up)
                          <= 1e-12 * scale)
            alg = sysm.space.algebra
            assert rep.lower_ok == alg_is_positive(alg.element(low))
            assert rep.upper_ok == alg_is_positive(alg.element(up))


@settings(max_examples=60, deadline=None)
@FLAG_SYSTEMS
def test_random_group_stacks_equal_per_fiber_references(**drawn):
    # Mixed dims, flat or HPD weights, every control and comparison kind.
    assert_stacks_match_references(flag_system(**drawn))


def overflow_system(phi_at_1):
    """Dims [2, 1, 2, 1]: the dim-2 group is fibers 0 and 2, the dim-1
    group fibers 1 and 3.  Phi_2 overflows (two members of 1.44e308
    each), Gamma_1 overflows (weight 4), and with phi_at_1 Phi_1 too."""
    space = make_space(Algebra(4), [2, (1, [[4.0]]), 2, 1])
    big = 1.2e154
    t = ModuleOperator(space, space, (
        np.eye(2), np.array([[big if phi_at_1 else 1.0]]),
        np.diag([big, 1.0]), np.eye(1)))
    k = ModuleOperator(space, space, (np.eye(2), np.array([[big]]),
                                      np.eye(2), np.eye(1)))
    return frame_system(space, [t, t], comparison=k)


@pytest.mark.parametrize("phi_at_1, form", [
    (False, "comparison form Gamma"), (True, "frame form Phi")])
def test_form_overflow_names_the_lowest_fiber(phi_at_1, form):
    sysm = overflow_system(phi_at_1)
    message = f"{form} at fiber 1 is not finite"
    with pytest.raises(NotFinite) as ref:
        build_forms_reference(sysm)
    assert str(ref.value) == message
    with pytest.raises(NotFinite) as err:
        sysm.forms
    assert str(err.value) == message


# -- bound elements from another algebra and the sample limit -------------

def mismatched_elements(d):
    return Algebra(d).element(np.ones(d)), Algebra(d).element(2 * np.ones(d))


@pytest.mark.parametrize("d", [1, 3])
def test_verify_bounds_refuses_elements_of_another_algebra(d):
    # d = 3 used to verify and drop the third coordinate, d = 1 to end
    # in an IndexError
    sysr = random_system(np.random.default_rng(44), d=2, dims=[2, 3], ops=2)
    lower, upper = mismatched_elements(d)
    with pytest.raises(SpaceMismatch):
        verify_bounds(sysr, lower, upper)
    cert = certify(sysr)
    with pytest.raises(SpaceMismatch):
        verify_bounds(sysr, cert.lower, upper)


def test_check_at_refuses_a_certificate_of_another_algebra():
    # used to end in a numpy broadcast ValueError
    sysr = random_system(np.random.default_rng(45), d=2, dims=[2, 3], ops=2)
    cert = certify(sysr)
    lower, upper = mismatched_elements(3)
    x = random_vector(np.random.default_rng(46), sysr.space)
    for probe in (replace(cert, lower=lower, upper=upper),
                  replace(cert, upper=upper)):
        with pytest.raises(SpaceMismatch):
            check_at(sysr, probe, x)


# -- real families, the unchecked report, the mixing root -----------------

def complex_route_stacks(sysm):
    """The form stacks with every member taking the complex route,
    acc += M^H W M: the reference for the real route, byte for byte."""
    space = sysm.space
    accs = [np.zeros_like(w[0]) for w in space.stacks]
    stacks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in sysm.family:
            for acc, m, w in zip(accs, t.stacks, space.stacks):
                acc += _adjoint(m) @ w[0] @ m
        for acc, w, c, cp, gamma in zip(
                accs, space.stacks, sysm.control.stacks,
                sysm.control_prime.stacks, _adjoint_grams(sysm.comparison)):
            raw = _adjoint(cp) @ acc @ c
            stacks.append(np.stack([raw, gamma, w[0], hermitian_part(raw)],
                                   axis=1))
    return stacks


def real_member(rng, space, scale=1.0):
    return ModuleOperator(space, space, tuple(
        scale * rng.standard_normal((n, n)) for n in space.dims))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       dims=st.lists(st.integers(1, 6), min_size=1, max_size=6),
       weights=st.sampled_from(["identity", "random"]),
       controls=st.sampled_from(CONTROL_KINDS),
       members=st.integers(1, 4),
       complex_fiber=st.one_of(st.none(), st.integers(0, 5)))
def test_real_families_take_the_real_route_bit_for_bit(
        seed, dims, weights, controls, members, complex_fiber):
    rng = np.random.default_rng(seed)
    space = random_space(rng, Algebra(len(dims)), dims, weights=weights)
    fam = [real_member(rng, space) for _ in range(members)]
    if complex_fiber is not None:
        # One complex member block: its group takes the complex route
        # for that member, every other group the real one.
        j = complex_fiber % len(dims)
        blocks = list(fam[0].blocks)
        blocks[j] = blocks[j] + 1j * rng.standard_normal(blocks[j].shape)
        fam[0] = ModuleOperator(space, space, tuple(blocks))
    c, cp = (positive_control(rng, space, controls) for _ in range(2))
    sysm = frame_system(space, fam, control=c, control_prime=cp,
                        comparison=random_operator(rng, space))
    for got, want in zip(sysm.forms.stacks, complex_route_stacks(sysm)):
        assert got.tobytes() == want.tobytes()


def test_real_member_overflow_names_the_fiber_the_complex_route_names():
    # Dims [2, 1, 2, 1] with HPD weights; member block 2 of 1e200 makes
    # M^H W M overflow there.  The forms alone, as the flags would refuse
    # the member first.
    rng = np.random.default_rng(54)
    space = random_space(rng, Algebra(4), [2, 1, 2, 1], weights="random")
    t = real_member(rng, space)
    blocks = list(t.blocks)
    blocks[2] = np.diag([1e200, 1.0])
    ident = identity(space)
    parts = SimpleNamespace(
        space=space, control=ident, control_prime=ident, comparison=ident,
        family=(t, ModuleOperator(space, space, tuple(blocks))))
    with pytest.raises(NotFinite) as ref:
        _require_finite_forms(space.groups, complex_route_stacks(parts))
    with pytest.raises(NotFinite) as err:
        _build_forms(parts)
    assert str(err.value) == str(ref.value)
    assert str(err.value) == "frame form Phi at fiber 2 is not finite"


def test_check_at_builds_its_report_without_the_element_check(monkeypatch):
    sysm = mixed_system(51, "hpd")
    cert = certify(sysm, samples=0)
    x = random_vector(np.random.default_rng(52), sysm.space)
    want = check_at(sysm, cert, x)

    def refuse(self):
        raise AssertionError("check_at built a checked element")

    monkeypatch.setattr(AlgebraElement, "__post_init__", refuse)
    got = check_at(sysm, cert, x)
    assert (got.lower_ok, got.upper_ok) == (want.lower_ok, want.upper_ok)
    for a, b in ((got.slack_lower, want.slack_lower),
                 (got.slack_upper, want.slack_upper)):
        assert a.algebra is sysm.space.algebra
        assert a.values.tobytes() == b.values.tobytes()
        assert not a.values.flags.writeable
    low, up = got.slack_lower.values, got.slack_upper.values
    assert low.base is up.base
    assert low.base.shape == (2, len(sysm.space.dims))


def test_analysis_and_synthesis_build_the_mixing_root_once(monkeypatch):
    def draw():
        rng = np.random.default_rng(55)
        sysr = random_system(rng, d=3, dims=[2, 2, 3], ops=3)
        return sysr, random_vector(rng, sysr.space)

    sysr, x = draw()
    coeffs = analysis(sysr, x)
    want = [[c.flat.tobytes() for c in coeffs],
            synthesis(sysr, coeffs).flat.tobytes()]
    calls = []
    real_sqrt = cframe.frames.op_sqrt
    monkeypatch.setattr(cframe.frames, "op_sqrt",
                        lambda t: calls.append(1) or real_sqrt(t))
    sysr, x = draw()
    for _ in range(2):
        coeffs = analysis(sysr, x)
        got = [[c.flat.tobytes() for c in coeffs],
               synthesis(sysr, coeffs).flat.tobytes()]
        assert got == want
    assert len(calls) == 1
    # Not commuting: the same error on every call, and nothing cached.
    c1, c2 = (ModuleOperator(sysr.space, sysr.space, tuple(
        random_hpd(np.random.default_rng(56 + i), n) for n in sysr.space.dims))
        for i in range(2))
    sysnc = with_controls(sysr, c1, c2)
    assert not sysnc.flags.controls_commute
    for _ in range(2):
        with pytest.raises(NotCommuting):
            analysis(sysnc, x)
        with pytest.raises(NotCommuting):
            synthesis(sysnc, coeffs)
    assert len(calls) == 1
