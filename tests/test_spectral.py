import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from cframe import hermitian_part, pencil_extremes, pinv, restricted_pencil_min
from cframe.errors import NotDefinite, NotHermitian, NotPSD
from cframe.spectral import (_norms, _plus_zeros, _valid_pencil_eigvals,
                             pencil_eigh, restricted_pencil_mins)
from cframe.testing import random_hpd

# Frozen outputs of oracle_sup_psd below for the seeded 3x3 case.  The
# naive compression value is kept to show the kernel coupling matters.
FROZEN_SEED = 20260822
FROZEN_RESTRICTED_MIN = 0.036376302898815861
FROZEN_COMPRESSION = 0.59904050030174627


def psd_floor(m):
    return float(np.linalg.eigvalsh(hermitian_part(m))[0])


def oracle_sup_psd(p, g, iters=200):
    """sup{nu >= 0 : P - nu*G is PSD}; equals the restricted infimum.

    Independent route: bisection on nu with a plain PSD test, no Schur
    complements, no kernel splitting.
    """
    if np.linalg.norm(g) <= 1e-14 * max(1.0, np.linalg.norm(p)):
        return float("inf")
    scale = max(1.0, float(np.linalg.norm(p)))
    lo, hi = 0.0, 1.0
    while psd_floor(p - hi * g) >= -1e-13 * scale:
        hi *= 2.0
        if hi > 1e8:
            return float("inf")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if psd_floor(p - mid * g) >= -1e-13 * scale:
            lo = mid
        else:
            hi = mid
    return lo


def oracle_brute_force_min(p, g, rng, count=100_000):
    """Smallest sampled quotient, then local refinement from the best x."""
    n = p.shape[0]
    xs = rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))
    num = np.einsum("as,ab,bs->s", xs.conj(), p, xs).real
    den = np.einsum("as,ab,bs->s", xs.conj(), g, xs).real
    keep = den > 1e-9 * np.max(den)
    ratios = num[keep] / den[keep]
    best = int(np.argmin(ratios))
    x0 = xs[:, np.flatnonzero(keep)[best]]

    def f(z):
        x = z[:n] + 1j * z[n:]
        d = float(np.real(x.conj() @ g @ x))
        if d <= 1e-12:
            return 1e12
        return float(np.real(x.conj() @ p @ x)) / d

    z0 = np.concatenate([x0.real, x0.imag])
    res = scipy.optimize.minimize(f, z0, method="Nelder-Mead",
                                  options={"maxiter": 20000, "fatol": 1e-14,
                                           "xatol": 1e-12})
    return min(float(np.min(ratios)), float(res.fun))


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    a = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return a @ a.conj().T


def test_hermitian_part():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    np.testing.assert_allclose(hermitian_part(m),
                               [[1.0, 1.0], [1.0, 3.0]])


def test_pencil_identity():
    ext = pencil_extremes(np.eye(2), np.eye(2))
    assert ext.lambda_min == pytest.approx(1.0)
    assert ext.lambda_max == pytest.approx(1.0)


def test_pencil_diagonal_identity_weight():
    ext = pencil_extremes(np.diag([1.0, 4.0]), np.eye(2))
    assert ext.lambda_min == pytest.approx(1.0)
    assert ext.lambda_max == pytest.approx(4.0)


def test_pencil_diagonal_weighted():
    # oracle: scan the ratio over random vectors, the extremes of
    # (x1^2 + 4 x2^2)/(x1^2 + 2 x2^2) are 1 and 2
    p = np.diag([1.0, 4.0])
    g = np.diag([1.0, 2.0])
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((2, 5000)) + 1j * rng.standard_normal((2, 5000))
    num = np.einsum("as,ab,bs->s", xs.conj(), p, xs).real
    den = np.einsum("as,ab,bs->s", xs.conj(), g, xs).real
    ratios = num / den
    ext = pencil_extremes(p, g)
    assert ext.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert ext.lambda_max == pytest.approx(2.0, abs=1e-12)
    assert np.min(ratios) >= ext.lambda_min - 1e-10
    assert np.max(ratios) <= ext.lambda_max + 1e-10


def test_pencil_vectors_are_extremal_and_g_normalized():
    rng = np.random.default_rng(1)
    p = hermitian_part(random_psd(rng, 4) - random_psd(rng, 4))
    g = random_psd(rng, 4) + np.eye(4)
    ext = pencil_extremes(p, g)
    for lam, v in ((ext.lambda_min, ext.vec_min),
                   (ext.lambda_max, ext.vec_max)):
        assert np.real(v.conj() @ g @ v) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(p @ v, lam * (g @ v), atol=1e-9)


def test_pencil_scale_invariance():
    rng = np.random.default_rng(2)
    p = hermitian_part(random_psd(rng, 3))
    g = random_psd(rng, 3) + np.eye(3)
    a = pencil_extremes(p, g)
    b = pencil_extremes(7.5 * p, 7.5 * g)
    assert b.lambda_min == pytest.approx(a.lambda_min, rel=1e-12)
    assert b.lambda_max == pytest.approx(a.lambda_max, rel=1e-12)


def test_pencil_rejects_bad_inputs():
    with pytest.raises(NotHermitian):
        pencil_extremes(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(NotDefinite):
        pencil_extremes(np.eye(2), np.diag([1.0, 0.0]))
    with pytest.raises(NotDefinite):
        pencil_extremes(np.eye(2), np.diag([1.0, -1.0]))


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(a)


@pytest.mark.parametrize("n", list(range(1, 17)) + [64])
def test_pencil_eigh_matches_scipy(n):
    # scipy's generalized solver stays the oracle for the numpy reduction
    rng = np.random.default_rng(500 + n)
    for _ in range(3):
        p = random_hermitian(rng, n)
        g = random_hpd(rng, n, cond=100.0)
        want = scipy.linalg.eigh(p, g, eigvals_only=True)
        got = pencil_eigh(p, g)
        scale = np.abs(want).max()
        assert np.all(np.abs(got - want) <= 1e-10 * scale)
        lam, vec = pencil_eigh(p, g, vectors=True)
        assert np.all(np.abs(lam - want) <= 1e-10 * scale)
        np.testing.assert_allclose(vec.conj().T @ g @ vec, np.eye(n),
                                   atol=1e-10)
        np.testing.assert_allclose(p @ vec, (g @ vec) * lam,
                                   atol=1e-9 * scale)


def test_pencil_eigh_stack_equals_single_calls_bitwise():
    rng = np.random.default_rng(510)
    ps = np.stack([random_hermitian(rng, 5) for _ in range(6)])
    gs = np.stack([random_hpd(rng, 5) for _ in range(6)])
    lam = pencil_eigh(ps, gs)
    lam_v, vec = pencil_eigh(ps, gs, vectors=True)
    assert lam.shape == (6, 5) and vec.shape == (6, 5, 5)
    for i in range(6):
        assert np.array_equal(lam[i], pencil_eigh(ps[i], gs[i]))
        one_lam, one_vec = pencil_eigh(ps[i], gs[i], vectors=True)
        assert np.array_equal(lam_v[i], one_lam)
        assert np.array_equal(vec[i], one_vec)
        ext = pencil_extremes(ps[i], gs[i])
        assert ext.lambda_min == lam_v[i, 0]
        assert ext.lambda_max == lam_v[i, -1]
        assert np.array_equal(ext.vec_min, vec[i, :, 0])


def test_fiberwise_eigvals_group_by_size_bitwise():
    rng = np.random.default_rng(511)
    dims = [3, 1, 3, 2, 1, 3]
    ps = [random_hermitian(rng, n) for n in dims]
    gs = [random_hpd(rng, n) for n in dims]
    groups = [[0, 2, 5], [1, 4], [3]]
    # The solver takes stacks valid by construction: the G stacks are
    # Hermitian parts, as a space stores its weights.
    got = _valid_pencil_eigvals(
        groups, [np.stack([ps[j] for j in idx]) for idx in groups],
        [hermitian_part(np.stack([gs[j] for j in idx])) for idx in groups])
    assert len(got) == len(dims)
    for p, g, lam in zip(ps, gs, got):
        assert np.array_equal(lam, pencil_eigh(p, g))
        assert not lam.flags.writeable


BAD_PENCILS = [
    pytest.param(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2),
                 NotHermitian, id="skew-p"),
    pytest.param(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]),
                 NotHermitian, id="skew-g"),
    pytest.param(np.eye(2), np.diag([1.0, 0.0]), NotDefinite,
                 id="singular-g"),
    pytest.param(np.eye(2), np.diag([1.0, -1.0]), NotDefinite,
                 id="indefinite-g"),
    pytest.param(np.eye(2), np.diag([1.0, 1e-11]), NotDefinite,
                 id="nearly-singular-g"),
]


@pytest.mark.parametrize("p, g, error", BAD_PENCILS)
def test_stacked_pencil_raises_as_pencil_extremes(p, g, error):
    with pytest.raises(error):
        pencil_extremes(p, g)
    # the bad pair sits among good ones; any position fails the stack
    rng = np.random.default_rng(512)
    good_p = [random_hermitian(rng, 2) for _ in range(3)]
    good_g = [random_hpd(rng, 2) for _ in range(3)]
    pencil_eigh(np.stack(good_p), np.stack(good_g))
    for at in range(4):
        ps = np.stack(good_p[:at] + [p] + good_p[at:])
        gs = np.stack(good_g[:at] + [g] + good_g[at:])
        with pytest.raises(error):
            pencil_eigh(ps, gs)
        with pytest.raises(error):
            pencil_eigh(ps, gs, vectors=True)


def test_pencil_eigh_rejects_bad_shapes():
    with pytest.raises(ValueError):
        pencil_eigh(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        pencil_eigh(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        pencil_extremes(np.stack([np.eye(2)] * 2), np.stack([np.eye(2)] * 2))


def test_cli_import_leaves_scipy_out(child_env):
    code = "import cframe.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env)


def test_restricted_min_definite_case():
    assert restricted_pencil_min(np.eye(2), np.eye(2)) == pytest.approx(1.0)


def test_restricted_min_excludes_kernel():
    # kernel of G carries no constraint: only the 3 survives
    val = restricted_pencil_min(np.diag([3.0, 7.0]), np.diag([1.0, 0.0]))
    assert val == pytest.approx(3.0)


def test_restricted_min_kernel_coupling():
    # coupling through ker(G) lowers the naive compression 2 down to 1:
    # inf over x != 0 of (2|x|^2 + 2 Re(x cbar y) + |y|^2)/|x|^2 = 1
    p = np.array([[2.0, 1.0], [1.0, 1.0]])
    g = np.diag([1.0, 0.0])
    assert restricted_pencil_min(p, g) == pytest.approx(1.0, abs=1e-12)
    assert oracle_sup_psd(p, g) == pytest.approx(1.0, abs=1e-10)


def test_restricted_min_frozen_random_case():
    rng = np.random.default_rng(FROZEN_SEED)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = a @ a.conj().T
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    g = b @ b.conj().T
    # the oracle reproduces the frozen value and the implementation
    # lands on it; the rank-2 compression would give 0.599 instead
    assert oracle_sup_psd(p, g) == pytest.approx(FROZEN_RESTRICTED_MIN,
                                                 abs=1e-9)
    assert restricted_pencil_min(p, g) == pytest.approx(
        FROZEN_RESTRICTED_MIN, abs=1e-6)
    assert abs(restricted_pencil_min(p, g) - FROZEN_COMPRESSION) > 0.1


def test_restricted_min_matches_brute_force():
    # stated oracle: brute-force sampling of the quotient plus local
    # refinement from the best sample
    rng = np.random.default_rng(77)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    n = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = m.conj().T @ m
    g = n.conj().T @ n
    brute = oracle_brute_force_min(p, g, rng)
    val = restricted_pencil_min(p, g)
    assert val == pytest.approx(brute, rel=1e-6, abs=1e-6)


def test_restricted_min_random_agrees_with_psd_oracle():
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        p = random_psd(rng, n)
        g = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        want = oracle_sup_psd(p, g)
        got = restricted_pencil_min(p, g)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-8)


def test_restricted_min_definite_equals_pencil_min():
    rng = np.random.default_rng(9)
    p = random_psd(rng, 4)
    g = random_psd(rng, 4) + 0.5 * np.eye(4)
    want = pencil_extremes(hermitian_part(p), g).lambda_min
    assert restricted_pencil_min(p, g) == pytest.approx(want, rel=1e-10)


def test_restricted_min_vacuous_denominator():
    assert restricted_pencil_min(np.eye(3), np.zeros((3, 3))) == np.inf


def test_restricted_mins_stack_equals_single_calls_bitwise():
    # full-rank, rank-deficient and zero comparison forms in one stack
    rng = np.random.default_rng(512)
    ps = [random_psd(rng, 4, rank=r) for r in (4, 2, 4, 3, 4, 1)]
    gs = [random_psd(rng, 4, rank=r) for r in (4, 2, 0, 4, 3, 4)]
    got = restricted_pencil_mins(np.stack(ps), np.stack(gs))
    want = [restricted_pencil_min(p, g) for p, g in zip(ps, gs)]
    assert got[2] == np.inf
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert got[0] == pytest.approx(oracle_sup_psd(ps[0], gs[0]),
                                   rel=1e-6, abs=1e-8)
    assert got[1] == pytest.approx(oracle_sup_psd(ps[1], gs[1]),
                                   rel=1e-6, abs=1e-8)


def test_restricted_min_rejects_indefinite_g():
    with pytest.raises(NotPSD):
        restricted_pencil_min(np.eye(2), np.diag([1.0, -1.0]))


def test_stacked_restricted_mins_reject_one_indefinite_g():
    with pytest.raises(NotPSD) as single:
        restricted_pencil_min(np.eye(2), np.diag([1.0, -1.0]))
    rng = np.random.default_rng(513)
    ps = [random_psd(rng, 2) for _ in range(5)]
    gs = [random_psd(rng, 2, rank=r) for r in (2, 1, 2, 2, 0)]
    gs[2] = np.diag([1.0, -1.0])
    restricted_pencil_mins(np.stack(ps[:2]), np.stack(gs[:2]))
    with pytest.raises(NotPSD) as stacked:
        restricted_pencil_mins(np.stack(ps), np.stack(gs))
    assert str(stacked.value) == str(single.value) == (
        "G is not positive semidefinite within tolerance")


def test_restricted_min_sampled_quotients_stay_above():
    rng = np.random.default_rng(31)
    p = random_psd(rng, 4)
    g = random_psd(rng, 4, rank=2)
    val = restricted_pencil_min(p, g)
    xs = rng.standard_normal((4, 20000)) + 1j * rng.standard_normal((4, 20000))
    num = np.einsum("as,ab,bs->s", xs.conj(), p, xs).real
    den = np.einsum("as,ab,bs->s", xs.conj(), g, xs).real
    keep = den > 1e-8 * np.max(den)
    assert np.all(num[keep] / den[keep] >= val - 1e-8 * max(1.0, val))


def test_pinv_identity_zero_projection():
    np.testing.assert_allclose(pinv(np.eye(3)), np.eye(3))
    np.testing.assert_allclose(pinv(np.zeros((2, 2))), np.zeros((2, 2)))
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(pinv(proj), proj)


def test_pinv_moore_penrose_conditions():
    rng = np.random.default_rng(4)
    shapes = [(3, 3), (4, 2), (2, 4)]
    for rows, cols in shapes:
        for rank in (min(rows, cols), max(1, min(rows, cols) - 1)):
            a = (rng.standard_normal((rows, rank))
                 + 1j * rng.standard_normal((rows, rank)))
            b = (rng.standard_normal((rank, cols))
                 + 1j * rng.standard_normal((rank, cols)))
            m = a @ b
            p = pinv(m)
            np.testing.assert_allclose(m @ p @ m, m, atol=1e-10)
            np.testing.assert_allclose(p @ m @ p, p, atol=1e-10)
            np.testing.assert_allclose((m @ p).conj().T, m @ p, atol=1e-10)
            np.testing.assert_allclose((p @ m).conj().T, p @ m, atol=1e-10)


# -- one exact vacuity rule ----------------------------------------------

@pytest.mark.parametrize("a", [1e-12, 1.0, 1e12])
@pytest.mark.parametrize("b", [1e-12, 1.0, 1e12])
def test_restricted_min_scales_as_p_over_g(a, b):
    # no absolute floor: scaling P by a and G by b scales the value by a/b
    rng = np.random.default_rng(515)
    for trial in range(12):
        n = int(rng.integers(2, 6))
        rank = n if trial % 2 else int(rng.integers(1, n))
        p = random_psd(rng, n)
        g = random_psd(rng, n, rank=rank)
        want = a / b * restricted_pencil_min(p, g)
        assert restricted_pencil_min(a * p, b * g) == pytest.approx(
            want, rel=1e-10)
    assert restricted_pencil_min(a * np.eye(3), b * np.zeros((3, 3))) == np.inf


def test_restricted_min_is_finite_for_any_positive_eigenvalue():
    g = 1e-20 * np.diag([1.0, 0.0])
    assert restricted_pencil_min(np.eye(2), g) == pytest.approx(1e20,
                                                                rel=1e-12)


def test_norms_survive_overflow_and_keep_zero():
    stack = np.zeros((3, 2, 2), dtype=np.complex128)
    stack[0] = np.diag([3e200, 4e200])
    stack[2] = [[3.0, 4.0], [0.0, 0.0]]
    got = _norms(stack)
    assert got[0] == pytest.approx(5e200, rel=1e-15)
    assert got[1] == 0.0
    assert got[2] == 5.0
    assert _norms(stack[0]) == got[0]


def test_zero_signs_do_not_reach_lapack():
    # e equals d but holds -0.0 where d holds +0.0, and LAPACK's
    # Householder step reads a zero's sign: through _plus_zeros, svd,
    # eigh and eigvalsh see one operand
    rng = np.random.default_rng(0)
    d = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.fill_diagonal(d, 0.0)
    e = d.copy()
    e[np.diag_indices(3)] = complex(-0.0, -0.0)
    h, k = hermitian_part(d), hermitian_part(e)
    assert np.array_equal(d, e) and np.array_equal(h, k)
    for m in (e, k):
        parts = _plus_zeros(m).view(np.float64)
        assert np.array_equal(parts, m.view(np.float64))
        assert not np.signbit(parts[parts == 0.0]).any()
    assert np.array_equal(np.linalg.svd(_plus_zeros(d), compute_uv=False),
                          np.linalg.svd(_plus_zeros(e), compute_uv=False))
    for decompose in (np.linalg.eigvalsh, np.linalg.eigh):
        for a, b in zip(decompose(_plus_zeros(h)), decompose(_plus_zeros(k))):
            assert np.array_equal(a, b)
