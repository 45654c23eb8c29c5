import numpy as np
import pytest
import scipy.linalg

from cframe import (Algebra, ModuleOperator, ModuleVector, adjoint_lower_bound,
                    identity, inner_product, make_space, op_adjoint,
                    op_classify, op_compose, op_inverse, op_norm, op_sqrt,
                    scalar_operator, zero_operator)
from cframe.errors import NotFinite, NotInvertible, NotPositive, SpaceMismatch
from cframe.operators import _SINGULAR_RTOL, _adjoint_grams
from cframe.spectral import (_CHECK_RTOL, _as_matrix, _fiber_views, _finite,
                             _require_definite, _require_hermitian,
                             hermitian_part, pencil_eigh)
from cframe.testing import (random_hpd, random_operator, random_space,
                            random_vector)


def one_fiber_op(weight, block, codomain_weight=None):
    alg = Algebra(1)
    n = np.atleast_2d(block).shape[1]
    dom = make_space(alg, [(n, np.atleast_2d(weight))])
    if codomain_weight is None:
        cod = dom
    else:
        m = np.atleast_2d(block).shape[0]
        cod = make_space(alg, [(m, np.atleast_2d(codomain_weight))])
    return ModuleOperator(dom, cod, (np.atleast_2d(np.array(block, dtype=np.complex128)),))


def test_adjoint_of_identity():
    space = make_space(Algebra(2), [2, 3])
    i = identity(space)
    for b, c in zip(op_adjoint(i).blocks, i.blocks):
        np.testing.assert_allclose(b, c)


def test_adjoint_flat_weights_is_conjugate_transpose():
    t = one_fiber_op(np.eye(2), [[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(op_adjoint(t).blocks[0],
                               [[0.0, 0.0], [1.0, 0.0]])


def test_adjoint_scalar_weighted():
    # oracle: solve <Mx,y>_V = <x,M*y>_W for scalars; with W=2, V=1,
    # M=3 this reads 3 x ybar = 2 x conj(M* y), so M* = 3/2
    t = one_fiber_op([[2.0]], [[3.0]], codomain_weight=[[1.0]])
    np.testing.assert_allclose(op_adjoint(t).blocks[0], [[1.5]])


def test_adjoint_defining_identity_sampled():
    rng = np.random.default_rng(0)
    alg = Algebra(2)
    space = random_space(rng, alg, [3, 2], weights="random")
    t = random_operator(rng, space)
    ts = op_adjoint(t)
    for _ in range(50):
        x = random_vector(rng, space)
        y = random_vector(rng, space)
        lhs = inner_product(t(x), y)
        rhs = inner_product(x, ts(y))
        scale = max(1.0, float(np.max(np.abs(rhs.values))))
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-10 * scale


def test_adjoint_involution_and_antihomomorphism():
    rng = np.random.default_rng(1)
    space = random_space(rng, Algebra(3), [2, 3, 2], weights="random")
    s = random_operator(rng, space)
    t = random_operator(rng, space)
    back = op_adjoint(op_adjoint(t))
    for a, b in zip(back.blocks, t.blocks):
        np.testing.assert_allclose(a, b, atol=1e-11)
    lhs = op_adjoint(op_compose(s, t))
    rhs = op_compose(op_adjoint(t), op_adjoint(s))
    for a, b in zip(lhs.blocks, rhs.blocks):
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_compose_identity_zero_associativity():
    rng = np.random.default_rng(2)
    space = random_space(rng, Algebra(2), [2, 2])
    t = random_operator(rng, space)
    for a, b in zip(op_compose(t, identity(space)).blocks, t.blocks):
        np.testing.assert_allclose(a, b)
    z = op_compose(t, zero_operator(space))
    assert op_norm(z) == 0.0
    u = random_operator(rng, space)
    v = random_operator(rng, space)
    lhs = op_compose(op_compose(t, u), v)
    rhs = op_compose(t, op_compose(u, v))
    for a, b in zip(lhs.blocks, rhs.blocks):
        # direct block-product oracle
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_norm_identity_any_weights():
    rng = np.random.default_rng(3)
    space = random_space(rng, Algebra(2), [3, 2], weights="random")
    assert op_norm(identity(space)) == pytest.approx(1.0, abs=1e-12)


def test_norm_diagonal():
    t = one_fiber_op(np.eye(2), np.diag([1.0, -2.0]))
    assert op_norm(t) == pytest.approx(2.0)


def test_norm_weighted_scalar():
    # oracle: maximize |Mx|_V/|x|_W over a grid; with W=4, V=1, M=1
    # the ratio is |x|/(2|x|) = 1/2 for every x
    t = one_fiber_op([[4.0]], [[1.0]], codomain_weight=[[1.0]])
    xs = np.linspace(-2, 2, 41)
    xs = xs[xs != 0]
    ratios = [abs(x) / (2.0 * abs(x)) for x in xs]
    assert max(ratios) == pytest.approx(0.5)
    assert op_norm(t) == pytest.approx(0.5)


def test_norm_dominates_vectors():
    rng = np.random.default_rng(4)
    space = random_space(rng, Algebra(2), [3, 3], weights="random")
    t = random_operator(rng, space)
    bound = op_norm(t)
    from cframe import module_norm
    for _ in range(100):
        x = random_vector(rng, space)
        assert module_norm(t(x)) <= bound * module_norm(x) * (1 + 1e-10)


def test_classify_identity():
    space = make_space(Algebra(1), [2])
    flags = op_classify(identity(space))
    assert flags.selfadjoint and flags.positive and flags.invertible
    assert flags.glplus


def test_classify_nilpotent():
    t = one_fiber_op(np.eye(2), [[0.0, 1.0], [0.0, 0.0]])
    flags = op_classify(t)
    assert not flags.selfadjoint
    assert not flags.positive
    assert not flags.invertible
    assert not flags.glplus


def test_classify_positive_diagonal():
    t = one_fiber_op(np.eye(2), np.diag([2.0, 3.0]))
    assert op_classify(t).glplus


def test_sqrt_identity_and_diagonal():
    space = make_space(Algebra(1), [2])
    r = op_sqrt(identity(space))
    np.testing.assert_allclose(r.blocks[0], np.eye(2), atol=1e-12)
    t = one_fiber_op(np.eye(2), np.diag([4.0, 9.0]))
    np.testing.assert_allclose(op_sqrt(t).blocks[0], np.diag([2.0, 3.0]),
                               atol=1e-12)


def test_sqrt_random_hpd_squares_back():
    rng = np.random.default_rng(5)
    w = random_hpd(rng, 3)
    space = make_space(Algebra(1), [(3, w)])
    m = random_hpd(rng, 3)
    # make it W-selfadjoint positive: W^-1 H with H HPD
    t = ModuleOperator(space, space, (np.linalg.solve(w, m),))
    assert op_classify(t).glplus
    r = op_sqrt(t)
    rr = op_compose(r, r)
    np.testing.assert_allclose(rr.blocks[0], t.blocks[0], atol=1e-10)


def test_sqrt_rejects_non_positive():
    t = one_fiber_op(np.eye(2), np.diag([1.0, -1.0]))
    with pytest.raises(NotPositive):
        op_sqrt(t)


def test_inverse_round_trip_and_failure():
    rng = np.random.default_rng(6)
    space = random_space(rng, Algebra(2), [2, 3])
    t = random_operator(rng, space)
    ti = op_inverse(t)
    for a, n in zip(op_compose(t, ti).blocks, space.dims):
        np.testing.assert_allclose(a, np.eye(n), atol=1e-10)
    sing = one_fiber_op(np.eye(2), [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NotInvertible):
        op_inverse(sing)


def test_scalar_operator_and_shape_mismatch():
    space = make_space(Algebra(2), [2, 1])
    two = scalar_operator(space, 2.0)
    x = ModuleVector(space, (np.array([1.0, 0.0]), np.array([3.0])))
    np.testing.assert_allclose(two(x).parts[0], [2.0, 0.0])
    with pytest.raises(ValueError):
        ModuleOperator(space, space, (np.eye(3), np.eye(1)))
    other = make_space(Algebra(2), [2, 2])
    with pytest.raises(SpaceMismatch):
        two(ModuleVector(other, (np.zeros(2), np.zeros(2))))


def test_adjoint_lower_bound_identity_and_rank_deficient():
    space = make_space(Algebra(1), [2])
    assert adjoint_lower_bound(identity(space)) == pytest.approx(1.0)
    sing = one_fiber_op(np.eye(2), [[1.0, 0.0], [0.0, 0.0]])
    assert adjoint_lower_bound(sing) == pytest.approx(0.0, abs=1e-12)


def test_adjoint_lower_bound_diagonal():
    # oracle: min over random unit x of <T*x,T*x>/<x,x>; for diag(2,3)
    # the adjoint form is diag(4,9), so the floor is 4
    t = one_fiber_op(np.eye(2), np.diag([2.0, 3.0]))
    rng = np.random.default_rng(7)
    ts = op_adjoint(t)
    space = t.domain
    worst = np.inf
    for _ in range(500):
        x = random_vector(rng, space)
        num = inner_product(ts(x), ts(x)).values[0].real
        den = inner_product(x, x).values[0].real
        worst = min(worst, num / den)
    assert worst >= 4.0 - 1e-9
    assert adjoint_lower_bound(t) == pytest.approx(4.0, abs=1e-10)
    assert worst <= 4.0 + 0.5  # sampling comes close from above


def test_adjoint_lower_bound_matches_scipy_pencils():
    # fibers of one dimension share one stacked numpy solve; scipy's
    # generalized solver, fiber by fiber, is the oracle
    rng = np.random.default_rng(10)
    space = random_space(rng, Algebra(5), [3, 1, 3, 2, 1], weights="random")
    for _ in range(5):
        t = random_operator(rng, space)
        grams = _fiber_views(t.groups, _adjoint_grams(t))
        want = min(
            scipy.linalg.eigh(grams[j], space.weights[j],
                              eigvals_only=True)[0]
            for j in range(5))
        assert adjoint_lower_bound(t) == pytest.approx(max(want, 0.0),
                                                       rel=1e-10, abs=1e-14)


def test_adjoint_gram_matrix_flat_weights():
    t = one_fiber_op(np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]))
    m = t.blocks[0]
    np.testing.assert_allclose(_fiber_views(t.groups, _adjoint_grams(t))[0],
                               m @ m.conj().T)


def test_lower_bound_floor_is_valid_and_tight():
    rng = np.random.default_rng(8)
    space = random_space(rng, Algebra(2), [3, 2], weights="random")
    t = random_operator(rng, space)
    m = adjoint_lower_bound(t)
    ts = op_adjoint(t)
    best = np.inf
    for _ in range(2000):
        x = random_vector(rng, space)
        num = np.min(inner_product(ts(x), ts(x)).values.real
                     / np.maximum(inner_product(x, x).values.real, 1e-300))
        best = min(best, num)
    assert best >= m - 1e-9 * max(1.0, m)


def test_surjectivity_equivalence():
    # positive floor iff invertible, on square fibers
    rng = np.random.default_rng(9)
    space = random_space(rng, Algebra(2), [3, 2])
    for _ in range(25):
        t = random_operator(rng, space)
        assert adjoint_lower_bound(t) > 0
        assert op_classify(t).invertible
        blocks = list(t.blocks)
        b = np.array(blocks[0])
        b[:, 0] = b[:, 1]  # collapse a column: no longer surjective
        blocks[0] = b
        s = ModuleOperator(space, space, tuple(blocks))
        assert adjoint_lower_bound(s) <= 1e-10
        assert not op_classify(s).invertible


def test_operator_norm_inequality_fiberwise():
    # <Tx,Tx> <= |T|^2 <x,x> in every coordinate
    rng = np.random.default_rng(10)
    space = random_space(rng, Algebra(3), [2, 4, 1], weights="random")
    t = random_operator(rng, space)
    c = op_norm(t) ** 2
    for _ in range(200):
        x = random_vector(rng, space)
        lhs = inner_product(t(x), t(x)).values.real
        rhs = c * inner_product(x, x).values.real
        assert np.all(lhs <= rhs * (1 + 1e-10) + 1e-12)


# -- fiber messages: the lowest faulty fiber, wherever its group sits -------

def five_fiber_space():
    """Dims [2, 3, 1, 2, 3]: groups (0, 3), (1, 4), (2,), so fiber 2
    sits in the last group and fiber 3 in the first."""
    return make_space(Algebra(5), [2, 3, 1, 2, 3])


def with_blocks(space, changes):
    blocks = [np.eye(n, dtype=np.complex128) for n in space.dims]
    for j, b in changes.items():
        blocks[j] = b
    return ModuleOperator(space, space, tuple(blocks))


def test_op_norm_names_the_lowest_non_finite_fiber():
    space = five_fiber_space()
    t = with_blocks(space, {2: np.array([[np.inf]]),
                            3: np.full((2, 2), np.nan)})
    with pytest.raises(NotFinite) as err:
        op_norm(t)
    assert str(err.value) == "fiber 2 of an operator is not finite"


def test_op_classify_names_the_lowest_overflowing_fiber():
    space = five_fiber_space()
    t = with_blocks(space, {2: np.array([[1e200]]),
                            3: np.full((2, 2), 1e200)})
    with pytest.raises(NotFinite) as err:
        op_classify(t)
    assert str(err.value) == "fiber 2: the norm of W M is not finite"


# -- group stacks against the per-fiber reference ---------------------------
# The functions below compute fiber by fiber, reading the weights through
# the helpers; every stacked result must equal theirs bit for bit.

def fiber_weights(space, j):
    """(W, W^-1, W^(1/2), W^(-1/2)) of fiber j, views into the stacks."""
    k = next(k for k, idx in enumerate(space.groups) if j in idx)
    return tuple(space.stacks[k][:, space.groups[k].index(j)])


def weight_inv(space, j):
    return fiber_weights(space, j)[1]


def weight_sqrt(space, j):
    return fiber_weights(space, j)[2]


def weight_isqrt(space, j):
    return fiber_weights(space, j)[3]


def weight_roots_reference(w):
    """One weight's Hermitian part, inverse and roots from its own eigh."""
    w = _require_hermitian(_as_matrix(w, "w"), "w", 1e-12)
    lam, u = _require_definite(w, "w")
    root = np.sqrt(lam)
    return (w, (u / lam) @ u.conj().T, (u * root) @ u.conj().T,
            (u / root) @ u.conj().T)


def op_adjoint_reference(t):
    blocks = tuple(
        weight_inv(t.domain, j) @ t.blocks[j].conj().T @ t.codomain.weights[j]
        for j in range(len(t.blocks))
    )
    return ModuleOperator(t.codomain, t.domain, blocks)


def op_compose_reference(t, u):
    return tuple(a @ b for a, b in zip(t.blocks, u.blocks))


def op_norm_reference(t):
    worst = 0.0
    for j in range(len(t.blocks)):
        with np.errstate(over="ignore", invalid="ignore"):
            m = (weight_sqrt(t.codomain, j) @ t.blocks[j]
                 @ weight_isqrt(t.domain, j))
        _finite(m, f"fiber {j} of an operator")
        if m.size:
            worst = max(worst, float(np.linalg.norm(m, 2)))
    return worst


def op_classify_reference(t):
    selfadjoint = True
    positive = True
    invertible = True
    for j in range(len(t.blocks)):
        with np.errstate(over="ignore", invalid="ignore"):
            wm = t.domain.weights[j] @ t.blocks[j]
            norm = float(np.linalg.norm(wm))
        if not np.isfinite(norm):
            raise NotFinite(f"fiber {j}: the norm of W M is not finite")
        bound = _CHECK_RTOL * max(1.0, norm)
        if np.linalg.norm(wm - wm.conj().T) > bound:
            selfadjoint = False
            positive = False
        elif float(np.linalg.eigvalsh(hermitian_part(wm))[0]) < -bound:
            positive = False
        sv = np.linalg.svd(t.blocks[j], compute_uv=False)
        if sv.size == 0 or sv[-1] <= _SINGULAR_RTOL * max(1.0, sv[0]):
            invertible = False
    return (selfadjoint, positive, invertible)


def op_sqrt_reference(t):
    blocks = []
    for j in range(len(t.blocks)):
        s = hermitian_part(
            weight_sqrt(t.domain, j) @ t.blocks[j] @ weight_isqrt(t.domain, j)
        )
        lam, u = np.linalg.eigh(s)
        root = np.sqrt(np.clip(lam, 0.0, None))
        r = (u * root) @ u.conj().T
        blocks.append(weight_isqrt(t.domain, j) @ r @ weight_sqrt(t.domain, j))
    return tuple(blocks)


def adjoint_gram_matrix_reference(t, j):
    v = t.codomain.weights[j]
    return hermitian_part(
        v @ t.blocks[j] @ weight_inv(t.domain, j) @ t.blocks[j].conj().T @ v
    )


def adjoint_lower_bound_reference(t):
    grams = [adjoint_gram_matrix_reference(t, j) for j in range(len(t.blocks))]
    spectra = [pencil_eigh(g, w) for g, w in zip(grams, t.codomain.weights)]
    return max(min(float(lam[0]) for lam in spectra), 0.0)


def assert_blocks_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
        assert not a.flags.writeable


def test_weight_stacks_equal_the_per_fiber_eigh():
    rng = np.random.default_rng(60)
    dims = [1, 3, 2, 3, 1]
    raw = [random_hpd(rng, n) for n in dims]
    space = make_space(Algebra(5), list(zip(dims, raw)))
    for j, w in enumerate(raw):
        got = fiber_weights(space, j)
        for a, b in zip(got, weight_roots_reference(w)):
            assert np.array_equal(a, b)
            assert not a.flags.writeable
        assert np.shares_memory(space.weights[j], got[0])


def endomorphisms_of_mixed_space(rng):
    space = random_space(rng, Algebra(5), [1, 3, 2, 3, 1], weights="random")
    t = random_operator(rng, space)
    return space, [t, op_compose(op_adjoint(t), t),
                   op_compose(t, op_adjoint(t)) + identity(space)]


def test_stacked_operator_functions_equal_the_per_fiber_reference():
    rng = np.random.default_rng(61)
    space, ops = endomorphisms_of_mixed_space(rng)
    for t in ops:
        assert t.groups is space.groups
        for idx, stack in zip(t.groups, t.stacks):
            assert not stack.flags.writeable
            assert all(t.blocks[j].base is stack for j in idx)
        assert op_norm(t).hex() == op_norm_reference(t).hex()
        flags = op_classify(t)
        assert ((flags.selfadjoint, flags.positive, flags.invertible)
                == op_classify_reference(t))
        assert_blocks_equal(op_adjoint(t).blocks,
                            op_adjoint_reference(t).blocks)
        assert (adjoint_lower_bound(t).hex()
                == adjoint_lower_bound_reference(t).hex())
        grams = _fiber_views(t.groups, _adjoint_grams(t))
        for j in range(5):
            assert np.array_equal(grams[j],
                                  adjoint_gram_matrix_reference(t, j))
        assert_blocks_equal(op_inverse(t).blocks,
                            tuple(np.linalg.inv(b) for b in t.blocks))
        for u in ops:
            assert_blocks_equal(op_compose(t, u).blocks,
                                op_compose_reference(t, u))
    positive = ops[1:]
    assert all(op_classify(p).positive for p in positive)
    for p in positive:
        assert_blocks_equal(op_sqrt(p).blocks, op_sqrt_reference(p))


def test_stacked_functions_on_a_map_between_spaces_of_other_dims():
    rng = np.random.default_rng(62)
    dom = random_space(rng, Algebra(5), [1, 3, 2, 3, 1], weights="random")
    cod = random_space(rng, Algebra(5), [2, 2, 1, 3, 2], weights="random")
    t = random_operator(rng, dom, cod)
    u = random_operator(rng, cod, dom)
    # Block shapes split both spaces' groups.
    assert t.groups == ((0, 4), (1,), (2,), (3,))
    assert op_norm(t).hex() == op_norm_reference(t).hex()
    adj = op_adjoint(t)
    assert_blocks_equal(adj.blocks, op_adjoint_reference(t).blocks)
    assert op_norm(adj).hex() == op_norm_reference(adj).hex()
    grams = _fiber_views(t.groups, _adjoint_grams(t))
    for j in range(5):
        assert np.array_equal(grams[j], adjoint_gram_matrix_reference(t, j))
    for x, y in ((adj, t), (t, adj), (u, t), (t, u)):
        assert_blocks_equal(op_compose(x, y).blocks,
                            op_compose_reference(x, y))
    assert_blocks_equal((t + t * 0.5 - t).blocks,
                        tuple(b + b * 0.5 - b for b in t.blocks))
