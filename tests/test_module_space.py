import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cframe import (Algebra, AlgebraElement, ModuleVector, alg_is_positive,
                    inner_product, make_space, module_action, module_norm)
from cframe.errors import NotDefinite, NotHermitian, SpaceMismatch
from cframe.spectral import _adjoint, hermitian_part

small = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
                  allow_infinity=False)


def vec(space, *parts):
    return ModuleVector(space, tuple(np.array(p, dtype=np.complex128)
                                     for p in parts))


def test_inner_product_one_dim():
    space = make_space(Algebra(1), [1])
    x = vec(space, [2.0])
    y = vec(space, [3.0j])
    # linear in the first slot: conj(3i) * 2 = -6i
    np.testing.assert_allclose(inner_product(x, y).values, [-6j])


def test_inner_product_zero():
    space = make_space(Algebra(1), [2])
    z = space.zero_vector()
    np.testing.assert_array_equal(inner_product(z, z).values, [0])


def test_inner_product_weighted_form():
    # oracle: the 2x2 quadratic form written out by hand,
    # y^H diag(1, 1/2) x = 1*1 + 0.5*1 = 1.5
    w = np.diag([1.0, 0.5])
    space = make_space(Algebra(1), [(2, w)])
    x = vec(space, [1.0, 1.0])
    np.testing.assert_allclose(inner_product(x, x).values, [1.5])


def test_norm_zero_vector():
    space = make_space(Algebra(2), [2, 1])
    assert module_norm(space.zero_vector()) == 0.0


def test_norm_takes_max_over_fibers():
    space = make_space(Algebra(2), [1, 1])
    x = vec(space, [3.0], [4.0])
    assert module_norm(x) == 4.0


def test_norm_respects_weight():
    # oracle: <x,x> = 25/5 = 5, norm = sqrt(5)
    space = make_space(Algebra(1), [(1, np.array([[0.2]]))])
    x = vec(space, [5.0])
    np.testing.assert_allclose(module_norm(x), np.sqrt(5.0))


def test_module_action_unit_and_zero():
    alg = Algebra(2)
    space = make_space(alg, [2, 1])
    x = vec(space, [1.0, 2.0], [3.0])
    same = module_action(alg.unit(), x)
    for p, q in zip(same.parts, x.parts):
        np.testing.assert_array_equal(p, q)
    gone = module_action(alg.zero(), x)
    assert module_norm(gone) == 0.0


def test_action_pulls_out_of_inner_product():
    rng = np.random.default_rng(3)
    alg = Algebra(3)
    space = make_space(alg, [2, 3, 1])
    for _ in range(25):
        a = AlgebraElement(alg, rng.standard_normal(3)
                           + 1j * rng.standard_normal(3))
        x = ModuleVector(space, tuple(
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for n in space.dims))
        y = ModuleVector(space, tuple(
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for n in space.dims))
        lhs = inner_product(module_action(a, x), y)
        rhs = a * inner_product(x, y)
        np.testing.assert_allclose(lhs.values, rhs.values,
                                   rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.tuples(small, small),
       st.lists(st.tuples(small, small), min_size=3, max_size=3),
       st.lists(st.tuples(small, small), min_size=3, max_size=3),
       st.lists(st.tuples(small, small), min_size=3, max_size=3))
def test_sesquilinearity_first_slot(scalar, xs, ys, zs):
    space = make_space(Algebra(1), [3])
    alpha = complex(*scalar)
    x = vec(space, [complex(*t) for t in xs])
    y = vec(space, [complex(*t) for t in ys])
    z = vec(space, [complex(*t) for t in zs])
    lhs = inner_product(alpha * x + y, z)
    rhs = alpha * inner_product(x, z) + inner_product(y, z)
    scale = max(1.0, float(np.max(np.abs(rhs.values))))
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12 * scale


def test_hermitian_symmetry_and_positivity():
    rng = np.random.default_rng(11)
    w1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    w1 = w1 @ w1.conj().T + 2 * np.eye(2)
    space = make_space(Algebra(2), [(2, w1), 3])
    for _ in range(25):
        x = ModuleVector(space, tuple(
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for n in space.dims))
        y = ModuleVector(space, tuple(
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for n in space.dims))
        np.testing.assert_allclose(inner_product(x, y).values,
                                   inner_product(y, x).star().values,
                                   rtol=1e-12, atol=1e-12)
        assert alg_is_positive(inner_product(x, x))


def test_norm_zero_forces_zero_parts():
    space = make_space(Algebra(1), [2])
    x = vec(space, [1e-13, -1e-14j])
    assert module_norm(x) <= 1e-12
    assert all(np.max(np.abs(p)) <= 1e-12 for p in x.parts)


def test_make_space_rejects_bad_weights():
    w_nonherm = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotHermitian):
        make_space(Algebra(1), [(2, w_nonherm)])
    w_singular = np.diag([1.0, 0.0])
    with pytest.raises(NotDefinite):
        make_space(Algebra(1), [(2, w_singular)])
    w_negative = np.diag([1.0, -2.0])
    with pytest.raises(NotDefinite):
        make_space(Algebra(1), [(2, w_negative)])


def test_space_structural_equality():
    a = make_space(Algebra(2), [2, 3])
    b = make_space(Algebra(2), [2, 3])
    c = make_space(Algebra(2), [2, (3, 2.0 * np.eye(3))])
    assert a == b
    assert a != c


def test_weight_roots_and_inverse():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w = w @ w.conj().T + np.eye(3)
    space = make_space(Algebra(1), [(3, w)])
    _, inv, s, isqrt = space.stacks[0][:, 0]
    np.testing.assert_allclose(s @ s, w, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(isqrt @ s, np.eye(3),
                               rtol=1e-11, atol=1e-11)
    np.testing.assert_allclose(inv @ w, np.eye(3),
                               rtol=1e-11, atol=1e-11)


def test_vector_space_mismatch():
    a = make_space(Algebra(1), [2])
    b = make_space(Algebra(1), [(2, 2.0 * np.eye(2))])
    x = vec(a, [1.0, 0.0])
    y = vec(b, [1.0, 0.0])
    with pytest.raises(SpaceMismatch):
        inner_product(x, y)


def test_vector_arithmetic():
    space = make_space(Algebra(1), [2])
    x = vec(space, [1.0, 2.0])
    y = vec(space, [0.0, 1.0j])
    s = x + y
    np.testing.assert_array_equal(s.parts[0], [1.0, 2.0 + 1.0j])
    d = x - y
    np.testing.assert_array_equal(d.parts[0], [1.0, 2.0 - 1.0j])
    t = 2.0 * x
    np.testing.assert_array_equal(t.parts[0], [2.0, 4.0])


@pytest.mark.parametrize("weight, error, message", [
    (np.ones((2, 3)), ValueError, "weight must be a square matrix"),
    ([[1.0, 1.0], [0.0, 1.0]], NotHermitian, "weight is not Hermitian"),
    ([[1.0, 0.0], [0.0, 1e-11]], NotDefinite,
     "weight is not positive definite"),
])
def test_weight_errors_name_the_fiber(weight, error, message):
    with pytest.raises(error) as exc:
        make_space(Algebra(2), [1, (2, weight)])
    assert str(exc.value) == f"fiber 1: {message}"


@pytest.mark.parametrize("fiber_2, fiber_3, error, message", [
    (np.ones((1, 2)), np.ones((2, 3)), ValueError,
     "weight must be a square matrix"),
    ([[1.0 + 1.0j]], [[1.0, 1.0], [0.0, 1.0]], NotHermitian,
     "weight is not Hermitian"),
    ([[-1.0]], [[1.0, 0.0], [0.0, -1.0]], NotDefinite,
     "weight is not positive definite"),
])
def test_weight_errors_name_the_lowest_faulty_fiber(fiber_2, fiber_3, error,
                                                    message):
    # Dims [2, 3, 1, 2, 3]: fiber 2 sits in the last dimension group,
    # fiber 3 in the first.
    specs = [2, 3, (1, fiber_2), (2, fiber_3), 3]
    with pytest.raises(error) as exc:
        make_space(Algebra(5), specs)
    assert str(exc.value) == f"fiber 2: {message}"


def eigh_route_stack(weights) -> np.ndarray:
    """The (4, g, n, n) stack of W, W^-1, W^1/2 and W^-1/2 by one eigh,
    the route a space takes for weights that are not all I."""
    w = hermitian_part(np.stack(weights).astype(np.complex128))
    lam, u = np.linalg.eigh(w)
    lam, uh = lam[:, None, :], _adjoint(u)
    root = np.sqrt(lam)
    return np.stack([w, (u / lam) @ uh, (u * root) @ uh, (u / root) @ uh])


@pytest.mark.parametrize("specs", [
    [2, 3, 1, 2, 16],
    [(2, np.eye(2)), (3, np.eye(3)), (2, np.eye(2, dtype=complex))],
    [2, (2, np.eye(2)), 5, (5, np.eye(5)), 5],
])
def test_identity_weight_stacks_equal_the_eigh_route(specs):
    space = make_space(Algebra(len(specs)), specs)
    assert all(space._unweighted)
    for idx, stack in zip(space.groups, space.stacks, strict=True):
        want = eigh_route_stack([np.eye(space.dims[j]) for j in idx])
        assert stack.tobytes() == want.tobytes()
        assert not stack.flags.writeable
    for w in space.weights:
        assert not w.flags.writeable


@pytest.mark.parametrize("specs, error, message", [
    ([2, (2, [[1.0, 1.0], [0.0, 1.0]]), (1, [[-1.0]]), 3], NotHermitian,
     "fiber 1: weight is not Hermitian"),
    ([3, (1, [[-1.0]]), 2, (2, [[1.0, 1.0], [0.0, 1.0]])], NotDefinite,
     "fiber 1: weight is not positive definite"),
    ([(2, np.eye(2)), 1, (2, [[1.0, 0.0], [0.0, 1e-11]])], NotDefinite,
     "fiber 2: weight is not positive definite"),
])
def test_weight_errors_keep_their_order_beside_identity_weights(
        specs, error, message):
    with pytest.raises(error) as exc:
        make_space(Algebra(len(specs)), specs)
    assert str(exc.value) == message


def test_vector_holds_one_read_only_copy_of_its_input():
    space = make_space(Algebra(3), [2, 3, 1])
    src = np.arange(6, dtype=np.complex128)
    rows = [src[:2], src[2:5].reshape(3, 1), [5.0]]
    x = ModuleVector(space, tuple(rows))
    src[:] = -1.0
    np.testing.assert_array_equal(x.flat, np.arange(6))
    np.testing.assert_array_equal(np.concatenate(x.parts), np.arange(6))
    assert not x.flat.flags.writeable
    for j, p in enumerate(x.parts):
        assert p.base is x.flat
        assert not p.flags.writeable
        with pytest.raises(ValueError):
            p[0] = 1.0
    with pytest.raises(ValueError):
        x.flat[0] = 1.0


def test_vector_part_of_wrong_length_names_the_fiber():
    space = make_space(Algebra(2), [2, 3])
    with pytest.raises(ValueError, match="fiber 1: part has wrong length"):
        ModuleVector(space, ([1.0, 2.0], [1.0, 2.0]))
