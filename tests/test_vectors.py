"""Vector operations run per fiber group on one buffer.

Each operation is checked bit for bit (np.array_equal) against the
per-fiber loop it replaces, kept here as the reference.  Stacked BLAS
and LAPACK calls returning what the calls on the single matrices return
is a measured property of the numpy build, not a guarantee; these tests
are where a build that breaks it shows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cframe import (Algebra, AlgebraElement, ModuleVector, analysis,
                    certify, check_at, frame_operator, inner_product,
                    make_space, module_action, module_norm, reconstruct,
                    synthesis)
from cframe.errors import NotFinite
from cframe.testing import (random_operator, random_space, random_system,
                            random_vector)

# Dims 1 and 3 each fall into a group of non-consecutive fibers.
DIMS = [1, 3, 2, 3, 1]


def system(seed, weighted):
    rng = np.random.default_rng(seed)
    if weighted:
        sysm = random_system(rng, d=5, dims=DIMS, weights="random",
                             controls="scalar", family="generic",
                             comparison="generic")
    else:
        sysm = random_system(rng, d=5, dims=DIMS)
    return rng, sysm


# -- the per-fiber references ---------------------------------------------

def split(space, flat):
    return np.split(flat, np.cumsum(space.dims)[:-1])


def ref_apply(t, parts):
    return np.concatenate([b @ p for b, p in zip(t.blocks, parts)])


def ref_form(w, x, y):
    return np.array([q.conj() @ (m @ p) for m, p, q in zip(w, x, y)])


def ref_norm(space, flat):
    worst = 0.0
    for e in ref_form(space.weights, split(space, flat),
                      split(space, flat)).real:
        worst = max(worst, float(e))
    return float(np.sqrt(max(worst, 0.0)))


def ref_direct(sysm, x):
    """The solution z of S z = S x and its relative residual."""
    s, space = frame_operator(sysm), sysm.space
    y = ref_apply(s, x.parts)
    z = np.concatenate([np.linalg.solve(b, p)
                        for b, p in zip(s.blocks, split(space, y))])
    sz = ref_apply(s, split(space, z))
    return z, ref_norm(space, y - sz) / max(ref_norm(space, y), 1e-300)


def ref_slacks(sysm, cert, x):
    forms = sysm.forms
    mid = ref_form(forms.phi_raw, x.parts, x.parts)
    gam = ref_form(forms.gamma, x.parts, x.parts)
    wt = ref_form(forms.weight, x.parts, x.parts)
    low_sq, up_sq = cert.squares
    return mid - low_sq * gam.real, up_sq * wt.real - mid


def assert_one_buffer(v):
    assert not v.flat.flags.writeable
    assert len(v.parts) == len(v.space.dims)
    for p, n in zip(v.parts, v.space.dims):
        assert p.shape == (n,)
        assert not p.flags.writeable
        assert p.base is v.flat
    np.testing.assert_array_equal(np.concatenate(v.parts), v.flat)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(),
       st.complex_numbers(max_magnitude=10.0))
def test_operations_equal_the_per_fiber_loops(seed, weighted, c):
    rng, sysm = system(seed, weighted)
    space = sysm.space
    x, y = random_vector(rng, space), random_vector(rng, space)
    a = AlgebraElement(space.algebra, rng.standard_normal(5)
                       + 1j * rng.standard_normal(5))
    out = {
        "T(x)": (sysm.family[0](x), ref_apply(sysm.family[0], x.parts)),
        "x + y": (x + y, np.concatenate(
            [p + q for p, q in zip(x.parts, y.parts)])),
        "x - y": (x - y, np.concatenate(
            [p - q for p, q in zip(x.parts, y.parts)])),
        "c * x": (c * x, np.concatenate([c * p for p in x.parts])),
        "-x": (-x, np.concatenate([-p for p in x.parts])),
        "a x": (module_action(a, x), np.concatenate(
            [a.values[j] * p for j, p in enumerate(x.parts)])),
        "zero": (space.zero_vector(), np.zeros(sum(DIMS))),
    }
    rec = reconstruct(sysm, x, method="direct")
    z, residual = ref_direct(sysm, x)
    out["direct"] = (rec.vector, z)
    for name, (v, want) in out.items():
        assert np.array_equal(v.flat, want), name
        assert_one_buffer(v)

    assert np.array_equal(inner_product(x, y).values,
                          ref_form(space.weights, x.parts, y.parts))
    assert module_norm(x) == ref_norm(space, x.flat)
    assert rec.residual == residual

    cert = certify(sysm)
    rep = check_at(sysm, cert, x)
    low, up = ref_slacks(sysm, cert, x)
    assert np.array_equal(rep.slack_lower.values, low)
    assert np.array_equal(rep.slack_upper.values, up)


@pytest.mark.parametrize("seed, weighted", [(0, False), (1, True),
                                           (5, False)])
def test_richardson_equals_its_reference_loop(seed, weighted):
    """One frame-operator application per step gives the iterates, the
    step count and the residual of applying it twice per step."""
    rng, sysm = system(seed, weighted)
    x = random_vector(rng, sysm.space)
    rec = reconstruct(sysm, x, method="richardson")
    s = frame_operator(sysm)
    y = s(x)
    omega = 2.0 / (rec.lambda_min + rec.lambda_max)
    z = sysm.space.zero_vector()
    for _ in range(rec.iterations):
        z = z + omega * (y - s(z))
    assert np.array_equal(z.flat, rec.vector.flat)
    assert rec.residual == module_norm(y - s(z)) / max(module_norm(y),
                                                       1e-300)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_operator_between_spaces_of_different_dims(seed):
    rng = np.random.default_rng(seed)
    alg = Algebra(5)
    dom = random_space(rng, alg, DIMS, weights="random")
    cod = random_space(rng, alg, [2, 3, 1, 1, 2], weights="random")
    t = random_operator(rng, dom, cod)
    x = random_vector(rng, dom)
    tx = t(x)
    assert tx.space is cod
    assert np.array_equal(tx.flat, ref_apply(t, x.parts))
    assert_one_buffer(tx)


def test_space_layout_gathers_each_group():
    space = make_space(Algebra(5), DIMS)
    assert space.groups == ((0, 4), (1, 3), (2,))
    flat = np.arange(sum(DIMS))
    parts = np.split(flat, np.cumsum(DIMS)[:-1])
    for idx, gather in zip(space.groups, space.gathers):
        np.testing.assert_array_equal(
            flat[gather], np.concatenate([parts[j] for j in idx]))
    assert space.gathers[2] == slice(4, 6)
    np.testing.assert_array_equal(np.concatenate(space.groups)[space.order],
                                  np.arange(5))
    assert make_space(Algebra(3), [2, 2, 1]).order is None


@pytest.mark.parametrize("parts, fiber", [
    (([np.inf], [1.0, 1.0], [1.0]), 0),
    (([np.nan], [1.0, 1.0], [1.0]), 0),
    (([1.0], [1.0, 1.0], [np.inf]), 2),
    (([1.0], [1.0, 1.0], [np.nan]), 2),
    (([1.0], [np.nan, 1.0], [np.inf]), 1),
    (([1e200], [1.0, 1.0], [1.0]), 0),
])
def test_module_norm_names_the_lowest_non_finite_fiber(parts, fiber):
    x = ModuleVector(make_space(Algebra(3), [1, 2, 1]), parts)
    with pytest.raises(NotFinite,
                       match=f"^fiber {fiber}: the energy of a vector is "
                             "not finite$"):
        module_norm(x)


def test_internal_vectors_skip_the_public_constructor(monkeypatch):
    """Vectors computed from vectors are built without re-checking."""
    _, sysm = system(22, weighted=False)
    x = random_vector(np.random.default_rng(1), sysm.space)
    y = random_vector(np.random.default_rng(2), sysm.space)
    a = sysm.space.algebra.unit() * 0.5

    def run():
        coeffs = analysis(sysm, x)
        return [reconstruct(sysm, x).vector,
                reconstruct(sysm, x, method="richardson").vector,
                *coeffs, synthesis(sysm, coeffs), module_action(a, x),
                x + y, x - y, 2.0 * x, -x, sysm.space.zero_vector()]

    want = run()

    def refuse(self):
        raise AssertionError("the checked constructor ran")

    monkeypatch.setattr(ModuleVector, "__post_init__", refuse)
    got = run()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.flat, w.flat)
