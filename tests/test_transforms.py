import numpy as np
import pytest

from cframe import (Algebra, HomomorphismSpec, ModuleOperator, STATUS_FRAME,
                    certify, compose_with_q, control_uncontrolled,
                    derive_k_frame, douglas_solve, frame_operator,
                    frame_system, identity, invertibility_witness,
                    invertible_q_bounds, make_space, op_adjoint, op_compose,
                    op_norm, range_inclusion_transfer, transport,
                    upgrade_by_surjectivity, with_comparison, with_family,
                    zero_operator)
from cframe.errors import (IntertwiningViolated, NotCommuting, NotFinite,
                           NotGLPlus, NotIncluded, NotInvertible,
                           NotSurjective, PreconditionUnverified,
                           SpaceMismatch, ZeroOperator)
from cframe.testing import (diagonal_operator, random_hpd, random_operator,
                            random_space, random_system, random_unitary,
                            random_vector, scalar_glplus, unitary_diag_family)


def one_fiber_op(*blocks):
    space = make_space(Algebra(len(blocks)),
                       [np.asarray(b).shape[0] for b in blocks])
    return ModuleOperator(space, space,
                          tuple(np.asarray(b, dtype=np.complex128)
                                for b in blocks))


def test_transforms_take_no_sample_count():
    # every transform runs its exact checks from a certificate made with
    # samples=0; no transform takes a count, and only the CLI limits one
    # (tests/test_api.py)
    from cframe import scalar_operator
    rng = np.random.default_rng(64)
    sysr = random_system(rng, dims=[2, 3], controls="identity",
                         comparison="identity")
    space = sysr.space
    cert = certify(sysr, samples=0)
    sys_k, rep_k = derive_k_frame(sysr, cert, scalar_operator(space, 2.0))
    reports = [
        rep_k,
        upgrade_by_surjectivity(sys_k, certify(sys_k, samples=0))[1],
        control_uncontrolled(sysr, cert, scalar_glplus(rng, space),
                             scalar_glplus(rng, space))[1],
        compose_with_q(sysr, scalar_glplus(rng, space))[1],
        invertible_q_bounds(sysr, scalar_glplus(rng, space)),
        transport(sysr, HomomorphismSpec((0, 1), (np.eye(2), np.eye(3)),
                                         space))[1],
        range_inclusion_transfer(sysr, cert, identity(space))[1],
    ]
    assert all(rep.verified for rep in reports)
    assert invertibility_witness(sysr, sysr, sysr.comparison,
                                 identity(space)).invertible


# -- factorization -------------------------------------------------------

def test_douglas_self_factorization():
    rng = np.random.default_rng(30)
    space = make_space(Algebra(1), [3])
    t = ModuleOperator(space, space, (random_hpd(rng, 3),))
    sol = douglas_solve(t, t)
    assert sol.residual <= 1e-12
    assert sol.scale == pytest.approx(1.0, rel=1e-10)
    np.testing.assert_allclose(sol.factor.blocks[0], np.eye(3), atol=1e-10)


def test_douglas_through_identity():
    rng = np.random.default_rng(31)
    space = make_space(Algebra(2), [2, 3])
    tprime = random_operator(rng, space)
    sol = douglas_solve(identity(space), tprime)
    for got, want in zip(sol.factor.blocks, tprime.blocks):
        np.testing.assert_allclose(got, want, atol=1e-12)
    assert sol.scale == pytest.approx(op_norm(tprime) ** 2, rel=1e-10)


def test_douglas_constructed_inclusion():
    # tprime built inside range(t); the solver must recover a factor
    # and its scale must majorize the adjoint forms fiber by fiber
    rng = np.random.default_rng(32)
    space = make_space(Algebra(1), [4])
    cols = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    rows = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    t = ModuleOperator(space, space, (cols @ rows,))
    d0 = random_operator(rng, space)
    tprime = op_compose(t, d0)
    sol = douglas_solve(t, tprime)
    assert sol.residual <= 1e-10
    diff = (sol.scale * t.blocks[0] @ t.blocks[0].conj().T
            - tprime.blocks[0] @ tprime.blocks[0].conj().T)
    assert np.linalg.eigvalsh((diff + diff.conj().T) / 2)[0] >= -1e-8


def test_douglas_escape_raises_with_residual():
    t = one_fiber_op(np.diag([1.0, 0.0]))
    tprime = one_fiber_op(np.eye(2))
    with pytest.raises(NotIncluded) as info:
        douglas_solve(t, tprime)
    assert info.value.residual > 1e-6


def test_douglas_space_mismatch():
    a = make_space(Algebra(1), [2])
    b = make_space(Algebra(1), [3])
    with pytest.raises(SpaceMismatch):
        douglas_solve(identity(a), identity(b))


def test_douglas_overflowing_factor_is_not_finite():
    # pinv(T) scales the second coordinate by 1e11, so D = pinv(T) T'
    # overflows there although T and T' are finite.
    space = make_space(Algebra(1), [2])
    t = ModuleOperator(space, space, (np.diag([1.0, 1e-11]),))
    tprime = ModuleOperator(space, space, (np.diag([1.0, 1e300]),))
    with pytest.raises(NotFinite):
        douglas_solve(t, tprime)


# -- moving the comparison operator --------------------------------------

def base_identity_comparison(seed, **kw):
    rng = np.random.default_rng(seed)
    return random_system(rng, comparison="identity", **kw), rng


def test_derive_k_identity_is_noop():
    sysr, _ = base_identity_comparison(33)
    cert = certify(sysr)
    new_sys, rep = derive_k_frame(sysr, cert, identity(sysr.space))
    assert rep.verified
    np.testing.assert_allclose(rep.lower.values, cert.lower.values)
    np.testing.assert_allclose(rep.upper.values, cert.upper.values)


def test_derive_k_scaling():
    sysr, _ = base_identity_comparison(34, dims=[2, 2])
    cert = certify(sysr)
    from cframe import scalar_operator
    new_sys, rep = derive_k_frame(sysr, cert,
                                  scalar_operator(sysr.space, 2.0))
    assert rep.verified
    assert rep.details["comparison_norm"] == pytest.approx(2.0)
    np.testing.assert_allclose(rep.lower.values, cert.lower.values / 2.0,
                               rtol=1e-12)


def test_derive_k_random_diagonal_verified():
    sysr, rng = base_identity_comparison(35, dims=[3, 2])
    cert = certify(sysr)
    k = diagonal_operator(rng, sysr.space)
    new_sys, rep = derive_k_frame(sysr, cert, k)
    assert rep.verified, rep.residual
    assert new_sys.comparison is k


def test_derive_k_requires_identity_comparison_start():
    rng = np.random.default_rng(36)
    sysr = random_system(rng)
    cert = certify(sysr)
    with pytest.raises(PreconditionUnverified):
        derive_k_frame(sysr, cert, identity(sysr.space))


def test_derive_k_rejects_zero_target():
    sysr, _ = base_identity_comparison(37)
    cert = certify(sysr)
    with pytest.raises(ZeroOperator):
        derive_k_frame(sysr, cert, zero_operator(sysr.space))


def test_derive_k_requires_frame_certificate():
    space = make_space(Algebra(1), [2])
    degenerate = frame_system(space, [zero_operator(space)])
    cert = certify(degenerate)
    with pytest.raises(PreconditionUnverified):
        derive_k_frame(degenerate, cert, identity(space))


def test_upgrade_by_surjectivity_scalar_case():
    # family {I} against comparison 3I: certified lower is 1/3, and the
    # upgrade multiplies back the adjoint floor sqrt(9) = 3
    from cframe import scalar_operator
    space = make_space(Algebra(2), [2, 2])
    sys3 = frame_system(space, [identity(space)],
                       comparison=scalar_operator(space, 3.0))
    cert = certify(sys3)
    np.testing.assert_allclose(np.abs(cert.lower.values), [1 / 3, 1 / 3],
                               rtol=1e-10)
    new_sys, rep = upgrade_by_surjectivity(sys3, cert)
    assert rep.verified
    assert rep.details["adjoint_lower_bound"] == pytest.approx(9.0)
    np.testing.assert_allclose(np.abs(rep.lower.values), [1.0, 1.0],
                               rtol=1e-10)


def test_upgrade_by_surjectivity_random():
    rng = np.random.default_rng(38)
    sysr = random_system(rng, dims=[2, 3], cmp_lo=0.8, cmp_hi=1.6)
    cert = certify(sysr)
    new_sys, rep = upgrade_by_surjectivity(sysr, cert)
    assert rep.verified, rep.residual
    from cframe import op_classify
    assert op_classify(new_sys.comparison).selfadjoint


def test_upgrade_rejects_non_surjective_comparison():
    space = make_space(Algebra(1), [2])
    k = ModuleOperator(space, space, (np.diag([1.0, 0.0]),))
    sysk = frame_system(space, [identity(space)], comparison=k)
    cert = certify(sysk)
    assert cert.status == STATUS_FRAME
    with pytest.raises(NotSurjective):
        upgrade_by_surjectivity(sysk, cert)


# -- introducing controls ------------------------------------------------

def uncontrolled_system(seed, **kw):
    rng = np.random.default_rng(seed)
    return random_system(rng, controls="identity", **kw), rng


def test_control_uncontrolled_scalar_pair():
    from cframe import scalar_operator
    sysr, _ = uncontrolled_system(39, dims=[2, 2],
                                  comparison="identity")
    cert = certify(sysr)
    c = scalar_operator(sysr.space, 4.0)
    new_sys, rep = control_uncontrolled(sysr, cert, c,
                                        identity(sysr.space))
    # mixing root is 2I, so both bounds double
    assert rep.verified
    assert rep.details["root_norm"] == pytest.approx(2.0)
    np.testing.assert_allclose(np.abs(rep.lower.values),
                               2 * np.abs(cert.lower.values), rtol=1e-10)
    np.testing.assert_allclose(np.abs(rep.upper.values),
                               2 * np.abs(cert.upper.values), rtol=1e-10)


def test_control_uncontrolled_random_scalars():
    sysr, rng = uncontrolled_system(40, dims=[3, 2])
    cert = certify(sysr)
    c = scalar_glplus(rng, sysr.space)
    cp = scalar_glplus(rng, sysr.space)
    new_sys, rep = control_uncontrolled(sysr, cert, c, cp)
    assert rep.verified, rep.residual
    assert new_sys.control is c and new_sys.control_prime is cp


def test_control_uncontrolled_rejects_nonpositive():
    sysr, _ = uncontrolled_system(41)
    cert = certify(sysr)
    bad = -1.0 * identity(sysr.space)
    with pytest.raises(NotGLPlus):
        control_uncontrolled(sysr, cert, bad, identity(sysr.space))


def test_control_uncontrolled_rejects_noncommuting():
    # a non-scalar positive control against a generic family member
    rng = np.random.default_rng(42)
    space = make_space(Algebra(1), [3])
    fam = [random_operator(rng, space)]
    sysg = frame_system(space, fam)
    cert = certify(sysg)
    c = ModuleOperator(space, space, (np.diag([1.0, 2.0, 3.0]),))
    if cert.status == STATUS_FRAME:
        with pytest.raises(NotCommuting):
            control_uncontrolled(sysg, cert, c, identity(space))


def test_control_uncontrolled_requires_identity_start():
    rng = np.random.default_rng(43)
    sysr = random_system(rng, controls="diagonal")
    cert = certify(sysr)
    with pytest.raises(PreconditionUnverified):
        control_uncontrolled(sysr, cert, identity(sysr.space),
                             identity(sysr.space))


# -- composing with a fixed operator -------------------------------------

def test_compose_with_identity_q():
    rng = np.random.default_rng(44)
    sysr = random_system(rng, dims=[2, 3])
    cert = certify(sysr)
    new_sys, rep = compose_with_q(sysr, identity(sysr.space), cert=cert)
    assert rep.verified
    assert rep.details["operator_identity_residual"] <= 1e-12
    np.testing.assert_allclose(rep.upper.values, cert.upper.values)


def test_compose_with_scalar_q_conjugates_frame_operator():
    from cframe import scalar_operator
    rng = np.random.default_rng(45)
    sysr = random_system(rng, dims=[2, 2])
    q = scalar_operator(sysr.space, 2.0)
    new_sys, rep = compose_with_q(sysr, q)
    s_old = frame_operator(sysr)
    s_new = frame_operator(new_sys)
    for b_new, b_old in zip(s_new.blocks, s_old.blocks):
        np.testing.assert_allclose(b_new, 4.0 * b_old, rtol=1e-12)
    assert rep.verified
    assert rep.details["q_norm"] == pytest.approx(2.0)


def test_compose_with_random_diagonal_q():
    rng = np.random.default_rng(46)
    sysr = random_system(rng, dims=[3, 2])
    q = diagonal_operator(rng, sysr.space)
    new_sys, rep = compose_with_q(sysr, q)
    assert rep.verified, rep.residual
    assert rep.details["operator_identity_residual"] <= 1e-11
    # transformed comparison is q* K
    want = op_compose(op_adjoint(q), sysr.comparison)
    for got, exp in zip(new_sys.comparison.blocks, want.blocks):
        np.testing.assert_allclose(got, exp, atol=1e-12)


def test_compose_rejects_noncommuting_q():
    rng = np.random.default_rng(47)
    space = make_space(Algebra(1), [2])
    fam = list(unitary_diag_family(rng, space, 2))
    k = ModuleOperator(space, space, (np.diag([1.0, 2.0]),))
    sysk = frame_system(space, fam, comparison=k)
    q = ModuleOperator(space, space, (random_hpd(rng, 2),))
    with pytest.raises(NotCommuting):
        compose_with_q(sysk, q)


def test_invertible_q_identity_brackets_are_tight():
    rng = np.random.default_rng(48)
    # comparison moduli at least 1 keep the lower bracket of the upper
    # bound meaningful (the certified lower element stays below the
    # upper one)
    sysr = random_system(rng, dims=[2, 2], cmp_lo=1.0, cmp_hi=2.0)
    cert = certify(sysr)
    rep = invertible_q_bounds(sysr, identity(sysr.space), cert=cert)
    assert rep.verified
    assert rep.details["bracket_slack"] >= -1e-12
    np.testing.assert_allclose(
        np.abs(rep.details["measured_lower"].values),
        np.abs(cert.lower.values), rtol=1e-9)


def test_invertible_q_scalar_collapse():
    # q = 2I: both ends of the lower bracket meet at 2A
    from cframe import scalar_operator
    rng = np.random.default_rng(49)
    sysr = random_system(rng, dims=[2, 3], cmp_lo=1.0, cmp_hi=2.0)
    cert = certify(sysr)
    rep = invertible_q_bounds(sysr, scalar_operator(sysr.space, 2.0),
                              cert=cert)
    assert rep.verified
    assert rep.details["q_norm"] == pytest.approx(2.0)
    assert rep.details["q_inverse_norm"] == pytest.approx(0.5)
    np.testing.assert_allclose(
        np.abs(rep.details["measured_lower"].values),
        2.0 * np.abs(cert.lower.values), rtol=1e-8)


def test_invertible_q_random_diagonal():
    rng = np.random.default_rng(50)
    for _ in range(5):
        sysr = random_system(rng, dims=[2, 2], cmp_lo=1.0, cmp_hi=2.0)
        q = diagonal_operator(rng, sysr.space, lo=0.6, hi=1.7)
        rep = invertible_q_bounds(sysr, q)
        assert rep.details["transformed_status"] == STATUS_FRAME
        assert rep.details["bracket_slack"] >= -1e-9
        assert rep.verified


def test_invertible_q_brackets_n_by_the_comparison_norm():
    # one fiber, W = T = 1, K = 0.5: A = 2, B = 1, and q = 2I gives
    # N = 2, which sits at A |K| / |q^-1| = 2 but below A / |q^-1| = 4
    space = make_space(Algebra(1), [1])

    def scalar(v):
        return ModuleOperator(space, space, (np.array([[v]], complex),))

    sysr = frame_system(space, [scalar(1.0)], comparison=scalar(0.5))
    rep = invertible_q_bounds(sysr, scalar(2.0))
    assert rep.verified
    assert rep.details["bracket_slack"] == pytest.approx(0.0, abs=1e-12)
    assert abs(rep.details["measured_upper"].values[0]) == pytest.approx(2.0)


def test_invertible_q_rejects_singular():
    rng = np.random.default_rng(51)
    sysr = random_system(rng, dims=[2, 2])
    sing = ModuleOperator(sysr.space, sysr.space,
                          (np.diag([1.0, 0.0]), np.eye(2)))
    with pytest.raises(NotInvertible):
        invertible_q_bounds(sysr, sing)


# -- homomorphism transport ----------------------------------------------

def test_transport_identity_hom():
    rng = np.random.default_rng(52)
    sysr = random_system(rng, dims=[2, 3])
    cert = certify(sysr)
    hom = HomomorphismSpec(
        char_map=(0, 1),
        theta_blocks=(np.eye(2), np.eye(3)),
        target_space=sysr.space)
    new_sys, rep = transport(sysr, hom, cert=cert)
    assert rep.verified, rep.residual
    np.testing.assert_allclose(rep.lower.values, cert.lower.values)
    for got, want in zip(new_sys.family[0].blocks, sysr.family[0].blocks):
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_transport_duplicating_character():
    # target reads source character 1 twice; every transported value
    # appears once per read
    rng = np.random.default_rng(53)
    sysr = random_system(rng, dims=[2, 3])
    cert = certify(sysr)
    target = make_space(Algebra(3), [2, 3, 3])
    hom = HomomorphismSpec(
        char_map=(0, 1, 1),
        theta_blocks=(np.eye(2), np.eye(3), np.eye(3)),
        target_space=target)
    new_sys, rep = transport(sysr, hom, cert=cert)
    assert rep.verified, rep.residual
    lw = rep.lower.values
    assert lw[1] == lw[2]
    np.testing.assert_allclose(lw[:2], cert.lower.values)


def test_transport_weighted_unitary_change_of_frame():
    # weight-compatible module maps theta = V^{-1/2} U W^{1/2} preserve
    # the inner product fiberwise; the transported system must certify
    # with exactly the image bounds
    rng = np.random.default_rng(54)
    alg = Algebra(2)
    src = random_space(rng, alg, [2, 3], weights="random")
    fam = unitary_diag_family(rng, src, 3)
    sysw = frame_system(src, list(fam))
    cert = certify(sysw)
    perm = (1, 0)
    tgt_weights = [random_hpd(rng, src.dims[i]) for i in perm]
    tgt = make_space(alg, [(src.dims[i], w)
                           for i, w in zip(perm, tgt_weights)])
    blocks = []
    for k, i in enumerate(perm):
        n = src.dims[i]
        u = random_unitary(rng, n)
        vk = tgt.weights[k]
        wi = src.weights[i]
        ev, vec = np.linalg.eigh(vk)
        v_isqrt = vec @ np.diag(ev ** -0.5) @ vec.conj().T
        ew, wvec = np.linalg.eigh(wi)
        w_sqrt = wvec @ np.diag(ew ** 0.5) @ wvec.conj().T
        blocks.append(v_isqrt @ u @ w_sqrt)
    hom = HomomorphismSpec(char_map=perm, theta_blocks=tuple(blocks),
                           target_space=tgt)
    new_sys, rep = transport(sysw, hom, cert=cert)
    assert rep.verified, rep.residual
    assert rep.details["bound_residual"] <= 1e-10
    assert rep.details["operator_transport_residual"] <= 1e-10
    np.testing.assert_allclose(rep.lower.values,
                               cert.lower.values[list(perm)], rtol=1e-12)


def test_transport_overflow_is_not_finite():
    # theta scales by 1e-1.5 into weight 1e3; the target's Phi, 1e309,
    # overflows although the source's 1e306 does not
    src = make_space(Algebra(1), [1])
    tgt = make_space(Algebra(1), [(1, np.array([[1e3]]))])
    t = ModuleOperator(src, src, (np.array([[1e153]], complex),))
    sysr = frame_system(src, [t])
    hom = HomomorphismSpec(char_map=(0,),
                           theta_blocks=(np.array([[10 ** -1.5]]),),
                           target_space=tgt)
    with pytest.raises(NotFinite):
        transport(sysr, hom)


def test_transport_overflowing_identity_is_not_finite(monkeypatch):
    # theta = 1e-5 into weight 1e10 makes theta^H V = 1e5; with both
    # frame operators scaled to 4e306 the source side W S stays finite
    # and the target's product overflows
    from cframe import transforms
    src = make_space(Algebra(1), [1])
    tgt = make_space(Algebra(1), [(1, np.array([[1e10]]))])
    t = ModuleOperator(src, src, (np.array([[2.0]], complex),))
    hom = HomomorphismSpec(char_map=(0,), theta_blocks=(np.array([[1e-5]]),),
                           target_space=tgt)
    monkeypatch.setattr(transforms, "frame_operator",
                        lambda s: frame_operator(s) * 1e306)
    with pytest.raises(NotFinite, match="transport identity at target "
                                        "fiber 0"):
        transport(frame_system(src, [t]), hom)


def test_transport_rejects_weight_incompatible_map():
    rng = np.random.default_rng(55)
    sysr = random_system(rng, dims=[2, 2])
    hom = HomomorphismSpec(
        char_map=(0, 1),
        theta_blocks=(2.0 * np.eye(2), np.eye(2)),
        target_space=sysr.space)
    with pytest.raises(IntertwiningViolated):
        transport(sysr, hom)


def test_transport_rejects_singular_module_map():
    rng = np.random.default_rng(56)
    sysr = random_system(rng, dims=[2, 2])
    # zero block pretends the weights away: caught either as a weight
    # violation or as a singular map, both poison transport
    hom = HomomorphismSpec(
        char_map=(0, 1),
        theta_blocks=(np.zeros((2, 2)), np.eye(2)),
        target_space=sysr.space)
    with pytest.raises((NotSurjective, IntertwiningViolated)):
        transport(sysr, hom)


def test_transport_rejects_bad_character_index():
    rng = np.random.default_rng(57)
    sysr = random_system(rng, dims=[2, 2])
    hom = HomomorphismSpec(
        char_map=(0, 5),
        theta_blocks=(np.eye(2), np.eye(2)),
        target_space=sysr.space)
    with pytest.raises(ValueError):
        transport(sysr, hom)


# -- range transfer and the invertibility witness ------------------------

def test_range_transfer_to_itself():
    rng = np.random.default_rng(58)
    sysr = random_system(rng, dims=[2, 2])
    cert = certify(sysr)
    new_sys, rep = range_inclusion_transfer(sysr, cert, sysr.comparison)
    assert rep.verified
    assert rep.details["majorization_scale"] == pytest.approx(1.0,
                                                              rel=1e-9)
    np.testing.assert_allclose(np.abs(rep.lower.values),
                               np.abs(cert.lower.values), rtol=1e-9)


def test_range_transfer_halved_comparison():
    # u = K/2 gives scale 1/4, which doubles the lower element
    rng = np.random.default_rng(59)
    sysr = random_system(rng, dims=[2, 3])
    cert = certify(sysr)
    u = 0.5 * sysr.comparison
    new_sys, rep = range_inclusion_transfer(sysr, cert, u)
    assert rep.verified, rep.residual
    assert rep.details["majorization_scale"] == pytest.approx(0.25,
                                                              rel=1e-9)
    np.testing.assert_allclose(np.abs(rep.lower.values),
                               2.0 * np.abs(cert.lower.values), rtol=1e-9)


def test_range_transfer_composed_target():
    rng = np.random.default_rng(60)
    sysr = random_system(rng, dims=[3, 2])
    cert = certify(sysr)
    d0 = diagonal_operator(rng, sysr.space, lo=0.3, hi=0.9)
    u = op_compose(sysr.comparison, d0)
    new_sys, rep = range_inclusion_transfer(sysr, cert, u)
    assert rep.verified, rep.residual
    assert rep.details["factorization_residual"] <= 1e-10


def test_range_transfer_escaping_target():
    space = make_space(Algebra(1), [2])
    k = ModuleOperator(space, space, (np.diag([1.0, 0.0]),))
    sysk = frame_system(space, [identity(space)], comparison=k)
    cert = certify(sysk)
    with pytest.raises(NotIncluded):
        range_inclusion_transfer(sysk, cert, identity(space))


def test_witness_identity_u():
    rng = np.random.default_rng(61)
    sysr = random_system(rng, dims=[2, 2], comparison="identity")
    u = identity(sysr.space)
    rep = invertibility_witness(sysr, sysr, sysr.comparison, u)
    assert rep.invertible
    assert all(s == pytest.approx(1.0) for s in rep.fiber_min_singular)
    assert rep.cert_u.status == STATUS_FRAME


def test_witness_random_diagonal_u():
    rng = np.random.default_rng(62)
    sysr = random_system(rng, dims=[2, 3], comparison="identity",
                         controls="scalar")
    u = diagonal_operator(rng, sysr.space, lo=0.5, hi=1.5)
    sys_u = with_family(sysr, tuple(op_compose(t, u) for t in sysr.family))
    sys_us = with_family(sysr, tuple(op_compose(t, op_adjoint(u))
                                     for t in sysr.family))
    rep = invertibility_witness(sys_u, sys_us, sysr.comparison, u)
    assert rep.invertible
    assert min(rep.fiber_min_singular) > 0.4
    assert rep.cert_ustar.status == STATUS_FRAME


def test_witness_contrapositive_for_singular_u():
    # a singular u cannot produce two frames; the witness refuses
    # rather than reporting invertibility
    rng = np.random.default_rng(63)
    sysr = random_system(rng, dims=[2, 2], comparison="identity",
                         controls="scalar")
    u = ModuleOperator(sysr.space, sysr.space,
                       (np.diag([1.0, 0.0]), np.eye(2)))
    sys_u = with_family(sysr, tuple(op_compose(t, u) for t in sysr.family))
    sys_us = with_family(sysr, tuple(op_compose(t, op_adjoint(u))
                                     for t in sysr.family))
    with pytest.raises(PreconditionUnverified):
        invertibility_witness(sys_u, sys_us, sysr.comparison, u)


def test_witness_needs_dense_range_comparison():
    rng = np.random.default_rng(64)
    sysr = random_system(rng, dims=[2, 2], comparison="identity")
    k = ModuleOperator(sysr.space, sysr.space,
                       (np.diag([1.0, 0.0]), np.eye(2)))
    with pytest.raises(NotSurjective):
        invertibility_witness(sysr, sysr, k, identity(sysr.space))
