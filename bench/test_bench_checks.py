"""The benchmark's output checks accept cframe's real output and refuse a
deliberately wrong one.

    python3 -m pytest bench/test_bench_checks.py   (or run this file)
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import oracle  # noqa: E402
from inputs import dense_system, diagonal_system, rng_for, to_doc  # noqa: E402
from cframe import cli, frames  # noqa: E402
from cframe.module_space import ModuleVector  # noqa: E402


def _certified(gs):
    sysm = cli.description_from_dict(to_doc(gs)).build_system()
    return sysm, frames.certify(sysm, samples=200)


def _systems():
    return (diagonal_system(rng_for(0, 1), [1, 2, 3, 4], 3),
            dense_system(rng_for(0, 2), fibers=2, dim=5, family_size=4))


def _problems(orc, cert, lower=None, upper=None, status=None):
    return oracle.certificate_problems(
        orc, cert.status if status is None else status,
        cert.lower.values if lower is None else lower,
        cert.upper.values if upper is None else upper,
        cert.lower_residual, cert.upper_residual)


def test_real_certificates_pass():
    for gs in _systems():
        _, cert = _certified(gs)
        assert _problems(oracle.oracle(gs), cert) == []


def test_one_bound_scaled_by_1_01_fails():
    for gs in _systems():
        _, cert = _certified(gs)
        orc = oracle.oracle(gs)
        for side in ("lower", "upper"):
            vals = getattr(cert, side).values.copy()
            vals[-1] *= 1.01
            assert _problems(orc, cert, **{side: vals}), side


def test_flipped_status_fails():
    gs = _systems()[0]
    _, cert = _certified(gs)
    orc = oracle.oracle(gs)
    for status in ("bessel_only", "not_frame"):
        assert _problems(orc, cert, status=status)


def test_cli_report_checks():
    gs = diagonal_system(rng_for(0, 5), [3] * 4, 3, with_q=True)
    orc = oracle.oracle(gs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.json"
        path.write_text(json.dumps(to_doc(gs)), encoding="utf-8")
        docs = {}
        for argv in (["certify", str(path)], ["transform", "invq", str(path)]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.run(argv) == 0
            docs[argv[0]] = json.loads(out.getvalue())
    report, invq = docs["certify"], docs["transform"]
    assert oracle.certify_report_problems(report, orc) == []
    assert oracle.invq_report_problems(invq, orc, gs.q) == []

    scaled = json.loads(json.dumps(report))
    scaled["result"]["upper"][0][0] *= 1.01
    assert oracle.certify_report_problems(scaled, orc)
    flipped = json.loads(json.dumps(report))
    flipped["result"]["status"] = "bessel_only"
    assert oracle.certify_report_problems(flipped, orc)
    unverified = json.loads(json.dumps(invq))
    unverified["result"]["verified"] = False
    assert oracle.invq_report_problems(unverified, orc, gs.q)


def test_example_and_selftest_checks():
    alpha, beta = 1.5, 2.0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["example", "--n", "21", "--alpha", str(alpha),
                        "--beta", str(beta), "--samples", "50"]) == 0
    doc = json.loads(out.getvalue())
    assert oracle.example_report_problems(doc, alpha, beta) == []
    wrong = json.loads(json.dumps(doc))
    wrong["result"]["nominal_matches"] = True
    assert oracle.example_report_problems(wrong, alpha, beta)
    wrong = json.loads(json.dumps(doc))
    wrong["result"]["fitted_lower"][2][0] *= 1.01
    assert oracle.example_report_problems(wrong, alpha, beta)
    assert oracle.selftest_report_problems(
        {"command": "selftest", "result": {"all_pass": False}})


def test_pointwise_checks():
    gs = diagonal_system(rng_for(0, 3), [4] * 3, 3)
    sysm, cert = _certified(gs)
    orc = oracle.oracle(gs)
    a_sq = np.abs(cert.lower.values) ** 2
    b_sq = np.abs(cert.upper.values) ** 2
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((5, 3, 4)) + 1j * rng.standard_normal((5, 3, 4))
    xs[0] = [oracle.extremal_vector(f.phi, f.gamma, "min") for f in orc.forms]
    reps = [frames.check_at(sysm, cert, ModuleVector(sysm.space, tuple(x)))
            for x in xs]
    low = np.array([r.slack_lower.values for r in reps])
    up = np.array([r.slack_upper.values for r in reps])
    flags = [True] * len(reps)

    def found(low_, up_, lower_ok=flags):
        return oracle.slack_problems(orc, a_sq, b_sq, xs, low_, up_,
                                     lower_ok, flags)

    assert all(p == [] for p in found(low, up))
    assert oracle.attained_problems(orc, xs[0], low[0], "lower") == []
    assert oracle.attained_problems(orc, xs[1], low[1], "lower")
    bad = up.copy()
    bad[2, 1] *= 1.01
    assert found(low, bad)[2] and not found(low, bad)[1]
    assert found(low, up, lower_ok=[False] + flags[1:])[0]


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items())
             if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
