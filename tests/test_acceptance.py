"""Acceptance suite: one test per shipped claim, one PASS line each."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import scipy.linalg

from cframe import (FrameCertificate, ModuleOperator, ModuleVector,
                    STATUS_FRAME, adjoint_lower_bound,
                    build_example, certify, check_at, comparison_form_matrix,
                    control_uncontrolled, derive_k_frame, douglas_solve,
                    example_sum_identity, family_form_element,
                    frame_form_matrix, frame_operator,
                    frame_system, identity, inner_product,
                    invertibility_witness, invertible_q_bounds, make_space,
                    op_adjoint, op_compose, op_norm, range_inclusion_transfer,
                    transport, upgrade_by_surjectivity, with_family,
                    HomomorphismSpec, Algebra)
from cframe.errors import NotIncluded, PreconditionUnverified
from cframe.operators import _adjoint_grams
from cframe.spectral import _fiber_views
from cframe.testing import (diagonal_operator, random_hpd, random_operator,
                            random_space, random_system, random_unitary,
                            random_vector, scalar_glplus, unitary_diag_family)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "docs", "golden")


def report(num, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {label}: {verdict}{suffix}")
    assert ok, f"criterion {num:02d} {label}{suffix}"


def example_vectors(es, rng, count):
    for _ in range(count):
        coords = (rng.standard_normal(es.n_max)
                  + 1j * rng.standard_normal(es.n_max))
        yield ModuleVector(es.space, tuple(
            np.array([c], dtype=np.complex128) for c in coords))


def test_criterion_01_example_identity():
    t0 = time.perf_counter()
    es = build_example(101, 2.0, 3.0)
    rng = np.random.default_rng(101)
    worst = 0.0
    for x in example_vectors(es, rng, 100):
        worst = max(worst, example_sum_identity(es, x).residual)
    elapsed = time.perf_counter() - t0
    report(1, "sequence example identity", worst <= 1e-12 and elapsed < 1.0,
           f"residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_example_bessel_chain():
    es = build_example(101, 2.0, 3.0)
    rng = np.random.default_rng(102)
    ab = 6.0
    worst = np.inf
    for x in example_vectors(es, rng, 100):
        lhs = family_form_element(es, x)
        xx = inner_product(x, x)
        worst = min(worst, float((ab * xx.values.real
                                  - lhs.values.real).min()))
    report(2, "sequence example Bessel slack", worst >= -1e-12,
           f"min slack {worst:.2e}")


def test_criterion_03_frame_operator_conjugation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        dims = [int(rng.integers(1, 7)) for _ in range(d)]
        ops = int(rng.integers(1, 9))
        sysr = random_system(rng, d=d, dims=dims, ops=ops,
                             controls="diagonal", comparison="diagonal")
        q = diagonal_operator(rng, sysr.space)
        s = frame_operator(sysr)
        composed = with_family(
            sysr, tuple(op_compose(t, q) for t in sysr.family))
        s_new = frame_operator(composed)
        conj = op_compose(op_adjoint(q), op_compose(s, q))
        worst = max(worst, op_norm(s_new - conj) / op_norm(s))
    elapsed = time.perf_counter() - t0
    report(3, "frame operator conjugation",
           worst <= 1e-10 and elapsed < 5.0,
           f"residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_optimal_bound_tightness():
    rng = np.random.default_rng(104)
    all_hold = True
    worst_attain = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 5)) for _ in range(d)]
        sysr = random_system(rng, d=d, dims=dims,
                             ops=int(rng.integers(2, 6)))
        cert = certify(sysr, samples=0)
        for _ in range(1000):
            rep = check_at(sysr, cert, random_vector(rng, sysr.space))
            all_hold = all_hold and rep.lower_ok and rep.upper_ok
        # extremal eigenvectors attain both bounds
        for j in range(d):
            phi = frame_form_matrix(sysr, j)
            w = sysr.space.weights[j]
            gam = comparison_form_matrix(sysr, j)
            lam, vec = scipy.linalg.eigh(phi, w)
            v = vec[:, -1]
            got = (v.conj() @ phi @ v).real / (v.conj() @ w @ v).real
            b2 = np.abs(cert.upper.values[j]) ** 2
            worst_attain = max(worst_attain, abs(got - b2) / max(b2, 1e-30))
            lam2, vec2 = scipy.linalg.eigh(phi, gam)
            u = vec2[:, 0]
            got2 = (u.conj() @ phi @ u).real / (u.conj() @ gam @ u).real
            a2 = np.abs(cert.lower.values[j]) ** 2
            worst_attain = max(worst_attain, abs(got2 - a2) / max(a2, 1e-30))
    report(4, "optimal bounds attained", all_hold and worst_attain <= 1e-6,
           f"attainment residual {worst_attain:.2e}")


def test_criterion_05_douglas_suite():
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(100):
        d = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 5)) for _ in range(d)]
        space = make_space(Algebra(d), dims)
        t = random_operator(rng, space)
        d0 = random_operator(rng, space)
        tprime = op_compose(t, d0)
        sol = douglas_solve(t, tprime)
        ok = ok and sol.residual <= 1e-10
        grams = _fiber_views(t.groups, _adjoint_grams(t))
        grams_prime = _fiber_views(tprime.groups, _adjoint_grams(tprime))
        for j in range(d):
            diff = sol.scale * grams[j] - grams_prime[j]
            scale = max(1.0, float(np.linalg.norm(diff)))
            ok = ok and np.linalg.eigvalsh(diff)[0] >= -1e-8 * scale
    escapes = 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        space = make_space(Algebra(1), [n])
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u_fac, _, vh = np.linalg.svd(m)
        # deficient operator plus a target reaching the dropped direction
        sing = np.concatenate([rng.uniform(0.5, 2.0, n - 1), [0.0]])
        t = ModuleOperator(space, space, ((u_fac * sing) @ vh,))
        tprime = ModuleOperator(
            space, space,
            (np.outer(u_fac[:, -1], vh[-1].conj()) + t.blocks[0],))
        try:
            douglas_solve(t, tprime)
        except NotIncluded:
            escapes += 1
    report(5, "factorization suite", ok and escapes == 100,
           f"escapes {escapes}/100")


def test_criterion_06_bound_transfer_chain():
    rng = np.random.default_rng(106)
    violations = 0
    trials = 0

    def spot_check(sysm, lower, upper):
        nonlocal violations, trials
        cert = FrameCertificate(lower=lower, upper=upper, tight=False,
                                lower_residual=0.0, upper_residual=0.0,
                                status=STATUS_FRAME, vacuous=())
        for _ in range(20):
            x = random_vector(rng, sysm.space)
            rep = check_at(sysm, cert, x)
            trials += 1
            ref = max(1.0, float(np.max(np.abs(
                inner_product(x, x).values))))
            for okf, slack in ((rep.lower_ok, rep.slack_lower),
                               (rep.upper_ok, rep.slack_upper)):
                if not okf and float(slack.values.real.min()) < -1e-9 * ref:
                    violations += 1

    for _ in range(50):
        base = random_system(rng, dims=[2, 3], comparison="identity")
        cert = certify(base, samples=200)
        k = diagonal_operator(rng, base.space)
        new_sys, rep = derive_k_frame(base, cert, k)
        assert rep.verified
        spot_check(new_sys, rep.lower, rep.upper)

        sys2 = random_system(rng, dims=[2, 2])
        cert2 = certify(sys2, samples=200)
        new2, rep2 = upgrade_by_surjectivity(sys2, cert2)
        assert rep2.verified
        spot_check(new2, rep2.lower, rep2.upper)

        sys3 = random_system(rng, dims=[3, 2], controls="identity")
        cert3 = certify(sys3, samples=200)
        new3, rep3 = control_uncontrolled(
            sys3, cert3, scalar_glplus(rng, sys3.space),
            scalar_glplus(rng, sys3.space))
        assert rep3.verified
        spot_check(new3, rep3.lower, rep3.upper)

        sys4 = random_system(rng, dims=[2, 2])
        cert4 = certify(sys4, samples=200)
        shrink = diagonal_operator(rng, sys4.space, lo=0.4, hi=0.9)
        u = op_compose(sys4.comparison, shrink)
        new4, rep4 = range_inclusion_transfer(sys4, cert4, u)
        assert rep4.verified
        spot_check(new4, rep4.lower, rep4.upper)

    report(6, "bound transfer chain", violations == 0,
           f"{violations} violations over {trials} spot checks")


def test_criterion_07_invertible_bracketing():
    rng = np.random.default_rng(107)
    ok = True
    worst = np.inf
    for _ in range(100):
        d = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 5)) for _ in range(d)]
        # comparison moduli at least one keep the certified lower
        # element below the upper, which the lower brackets rely on
        sysr = random_system(rng, d=d, dims=dims, cmp_lo=1.0, cmp_hi=2.0)
        q = diagonal_operator(rng, sysr.space, lo=0.5, hi=1.8)
        rep = invertible_q_bounds(sysr, q)
        ok = ok and rep.verified
        worst = min(worst, rep.details["bracket_slack"])
    report(7, "invertible composition brackets", ok and worst >= -1e-9,
           f"worst slack {worst:.2e}")


def random_hom(rng, src):
    d_tgt = int(rng.integers(1, 5))
    char_map = tuple(int(rng.integers(0, src.algebra.d))
                     for _ in range(d_tgt))
    tgt_weights = [random_hpd(rng, src.dims[i]) for i in char_map]
    tgt = make_space(
        Algebra(d_tgt, eps_pos=src.algebra.eps_pos,
                eps_nz=src.algebra.eps_nz),
        [(src.dims[i], w) for i, w in zip(char_map, tgt_weights)])
    blocks = []
    for k, i in enumerate(char_map):
        vk = tgt.weights[k]
        wi = src.weights[i]
        ev, vec = np.linalg.eigh(vk)
        v_isqrt = vec @ np.diag(ev ** -0.5) @ vec.conj().T
        ew, wvec = np.linalg.eigh(wi)
        w_sqrt = wvec @ np.diag(ew ** 0.5) @ wvec.conj().T
        blocks.append(v_isqrt @ random_unitary(rng, src.dims[i]) @ w_sqrt)
    return HomomorphismSpec(char_map=char_map, theta_blocks=tuple(blocks),
                            target_space=tgt)


def test_criterion_08_transport():
    rng = np.random.default_rng(108)
    ok = True
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 4)) for _ in range(d)]
        src = random_space(rng, Algebra(d), dims, weights="random")
        fam = unitary_diag_family(rng, src, int(rng.integers(2, 5)))
        sysr = frame_system(src, list(fam))
        cert = certify(sysr, samples=100)
        hom = random_hom(rng, src)
        new_sys, rep = transport(sysr, hom, cert=cert)
        ok = ok and rep.verified
        worst = max(worst, rep.details["bound_residual"],
                    rep.details["operator_transport_residual"])
    report(8, "homomorphism transport", ok and worst <= 1e-10,
           f"worst residual {worst:.2e}")


def test_criterion_09_invertibility_witness():
    rng = np.random.default_rng(109)
    positives = 0
    contrapositives = 0
    for _ in range(50):
        sysr = random_system(rng, dims=[2, 3], comparison="identity",
                             controls="scalar")
        u = diagonal_operator(rng, sysr.space, lo=0.5, hi=1.5)
        sys_u = with_family(
            sysr, tuple(op_compose(t, u) for t in sysr.family))
        sys_us = with_family(
            sysr, tuple(op_compose(t, op_adjoint(u)) for t in sysr.family))
        rep = invertibility_witness(sys_u, sys_us, sysr.comparison, u)
        positives += rep.invertible
    for _ in range(50):
        sysr = random_system(rng, dims=[2, 3], comparison="identity",
                             controls="scalar")
        blocks = []
        for b in diagonal_operator(rng, sysr.space).blocks:
            bad = b.copy()
            bad[0, 0] = 0.0
            blocks.append(bad)
        u = ModuleOperator(sysr.space, sysr.space, tuple(blocks))
        sys_u = with_family(
            sysr, tuple(op_compose(t, u) for t in sysr.family))
        sys_us = with_family(
            sysr, tuple(op_compose(t, op_adjoint(u)) for t in sysr.family))
        try:
            invertibility_witness(sys_u, sys_us, sysr.comparison, u)
        except PreconditionUnverified:
            contrapositives += 1
    report(9, "invertibility witness",
           positives == 50 and contrapositives == 50,
           f"{positives}/50 certified, {contrapositives}/50 refused")


def test_criterion_10_lemma_suite():
    rng = np.random.default_rng(110)
    worst = 0.0
    agree = 0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        dims = [int(rng.integers(1, 5)) for _ in range(d)]
        space = random_space(rng, Algebra(d), dims, weights="random")
        t = random_operator(rng, space)
        x = random_vector(rng, space)
        tx = inner_product(t(x), t(x)).values.real
        xx = inner_product(x, x).values.real
        slack = op_norm(t) ** 2 * xx - tx
        scale = max(1.0, float(xx.max()))
        worst = max(worst, -float(slack.min()) / scale)
    for trial in range(200):
        n = int(rng.integers(1, 5))
        space = random_space(rng, Algebra(1), [n], weights="random")
        t = random_operator(rng, space)
        if trial % 2:
            b = t.blocks[0].copy()
            b[:, -1] = b[:, :-1].sum(axis=1) if n > 1 else 0.0
            t = ModuleOperator(space, space, (b,))
        m = adjoint_lower_bound(t)
        surjective = (np.linalg.matrix_rank(t.blocks[0], tol=1e-8) == n)
        agree += (m > 1e-10) == surjective
    report(10, "adjoint lemmas", worst <= 1e-10 and agree == 200,
           f"inequality residual {worst:.2e}, {agree}/200 equivalences")


def run_cli(argv, env):
    proc = subprocess.run([sys.executable, "-m", "cframe.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout


def test_criterion_11_cli_determinism(child_env):
    code1, out1 = run_cli(["selftest", "--seed", "0"], child_env)
    code2, out2 = run_cli(["selftest", "--seed", "0"], child_env)
    identical = code1 == code2 == 0 and out1 == out2
    doc = json.loads(out1)
    all_pass = doc["result"]["all_pass"] is True
    code3, out3 = run_cli(
        ["certify", os.path.join(GOLDEN_DIR, "identity_system.json")],
        child_env)
    with open(os.path.join(GOLDEN_DIR, "identity_certify.json")) as fh:
        golden_doc = json.load(fh)
    golden_match = code3 == 0 and json.loads(out3) == golden_doc
    report(11, "CLI determinism",
           identical and all_pass and golden_match,
           "byte-identical selftest, golden certify match")
