"""Unweighted fiber groups: every W equal to I drops its factors.

The space decides per group whether it is unweighted; the flag, form and
pencil products of such a group then skip the identity factors.  These
tests force the weighted route on the same systems, by patching the
space's answer to False, and ask for the same figures bit for bit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cframe.module_space
import cframe.spectral
from cframe import (Algebra, certify, description_from_dict, frame_system,
                    make_space, optimal_lower_bound, optimal_upper_bound)
from cframe.cli import _matrix_json
from cframe.module_space import _UNWEIGHTED
from cframe.testing import (generic_family, random_hpd, random_operator,
                            random_system, scalar_glplus)


def weighted_route():
    """A patch under which every space built takes the weighted route."""
    build = cframe.module_space._weight_stacks

    def forced(*args):
        stacks, unweighted = build(*args)
        return stacks, (False,) * len(unweighted)

    return mock.patch.object(cframe.module_space, "_weight_stacks", forced)


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(np.column_stack(
        (np.real(values), np.imag(values))))]


def figures(sysm) -> tuple:
    """Everything certify and the flags report, by float.hex, the
    phi_spectrum included, and the form stacks."""
    flags = sysm.flags
    cert = certify(sysm)
    return ((flags.controls_commute, flags.controls_with_family,
             flags.controls_with_k, float(flags.worst_residual).hex(),
             hexes(cert.lower.values), hexes(cert.upper.values), cert.tight,
             float(cert.lower_residual).hex(),
             float(cert.upper_residual).hex(), cert.status, cert.vacuous,
             [hexes(lam) for lam in sysm.forms.phi_spectrum]),
            sysm.forms.stacks)


def assert_same_figures(got, want):
    assert got[0] == want[0]
    for a, b in zip(got[1], want[1], strict=True):
        assert np.array_equal(a, b)


def count_pencil_reductions(monkeypatch) -> list:
    calls = []
    solve = cframe.spectral._reduced_eigh

    def counted(p, g, *args):
        calls.append(np.shape(p))
        return solve(p, g, *args)

    monkeypatch.setattr(cframe.spectral, "_reduced_eigh", counted)
    return calls


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       dims=st.lists(st.integers(1, 16), min_size=1, max_size=4),
       controls=st.sampled_from(["diagonal", "scalar", "identity"]),
       comparison=st.sampled_from(["diagonal", "generic"]),
       family=st.sampled_from(["unitary_diag", "generic"]),
       ops=st.integers(1, 4))
# Both draws put a -0.0 into the exact pass's SVD operand on the weighted
# route (I D I for a commutator D with a zero diagonal), which moved the
# last bit of worst_residual until the operand's zeros were made +0.0.
@example(seed=0, dims=[1, 3], controls="diagonal", comparison="generic",
         family="unitary_diag", ops=2)
@example(seed=11557, dims=[3, 1], controls="diagonal",
         comparison="diagonal", family="unitary_diag", ops=2)
def test_unweighted_route_equals_the_weighted_route(seed, dims, controls,
                                                    comparison, family, ops):
    if controls == "diagonal":
        family = "unitary_diag"
    kwargs = dict(d=len(dims), dims=dims, ops=ops, controls=controls,
                  comparison=comparison, family=family)
    sysm = random_system(np.random.default_rng(seed), **kwargs)
    assert all(sysm.space._unweighted)
    with weighted_route():
        ref = random_system(np.random.default_rng(seed), **kwargs)
        assert not any(ref.space._unweighted)
        want = figures(ref)
    assert_same_figures(figures(sysm), want)


def test_unweighted_bounds_take_no_pencil_reduction(monkeypatch):
    rng = np.random.default_rng(27)
    sysr = random_system(rng, d=5, dims=[2, 3, 2, 1, 3], ops=3)
    calls = count_pencil_reductions(monkeypatch)
    optimal_upper_bound(sysr)
    optimal_lower_bound(sysr)
    certify(sysr)
    # W = I in every group: the pencils are the plain eigvalsh of Phi
    assert calls == []
    for lam in sysr.forms.phi_spectrum:
        assert not lam.flags.writeable


def test_a_group_that_mixes_i_with_a_weight_is_weighted(monkeypatch):
    rng = np.random.default_rng(61)
    space = make_space(Algebra(4), [2, (2, random_hpd(rng, 2)), 3, 2])
    assert space._unweighted == (False, True)
    stacks = space.group_stacks(space.groups)
    assert stacks[0] is space.stacks[0] and stacks[1] is _UNWEIGHTED
    # A group gathered from a weighted group of the space stays weighted,
    # even where its own weights are I.
    gathered = space.group_stacks(((0, 3), (1,), (2,)))
    assert gathered[2] is _UNWEIGHTED
    for k, idx in enumerate(((0, 3), (1,))):
        at = [space.groups[0].index(j) for j in idx]
        assert np.array_equal(gathered[k], space.stacks[0][:, at])

    sysm = frame_system(space, generic_family(rng, space, 3),
                        control=scalar_glplus(rng, space),
                        comparison=random_operator(rng, space))
    with weighted_route():
        ref = frame_system(space, sysm.family, control=sysm.control,
                           comparison=sysm.comparison)
        want = figures(ref)
    calls = count_pencil_reductions(monkeypatch)
    assert_same_figures(figures(sysm), want)
    # Only the weighted group reduces its pencil.
    assert calls == [(3, 2, 2)]


def identity_weight_doc(sysm, weight: bool) -> dict:
    fibers = [dict({"dim": n}, **({"weight": np.eye(n).tolist()}
                                  if weight else {}))
              for n in sysm.space.dims]
    ops = {f"T{i}": t for i, t in enumerate(sysm.family)}
    ops.update(C=sysm.control, Cp=sysm.control_prime, K=sysm.comparison)
    return {"algebra": {"d": len(sysm.space.dims)},
            "space": {"fibers": fibers},
            "operators": {name: [_matrix_json(b) for b in op.blocks]
                          for name, op in ops.items()},
            "frame": {"family": [f"T{i}" for i in range(len(sysm.family))],
                      "control": "C", "control_prime": "Cp",
                      "comparison": "K"}}


def test_an_explicit_identity_weight_in_a_file_is_unweighted(monkeypatch):
    sysm = random_system(np.random.default_rng(62), d=4, dims=[3, 1, 3, 2])
    plain = description_from_dict(identity_weight_doc(sysm, False))
    given_i = description_from_dict(identity_weight_doc(sysm, True))
    assert given_i.space._unweighted == (True, True, True)
    want = figures(plain.build_system())
    calls = count_pencil_reductions(monkeypatch)
    assert_same_figures(figures(given_i.build_system()), want)
    assert calls == []


@pytest.mark.parametrize("seed", [63, 64, 65])
def test_random_weights_keep_the_weighted_route(seed):
    kwargs = dict(d=4, dims=[2, 3, 2, 5], weights="random",
                  controls="scalar", comparison="generic", family="generic")
    sysm = random_system(np.random.default_rng(seed), **kwargs)
    space = sysm.space
    assert space._unweighted == (False, False, False)
    assert all(a is b for a, b in zip(space.group_stacks(space.groups),
                                      space.stacks, strict=True))
    with weighted_route():
        want = figures(random_system(np.random.default_rng(seed), **kwargs))
    assert_same_figures(figures(sysm), want)


def test_unweighted_systems_build_and_certify_without_a_reduction(
        monkeypatch):
    """A system shaped like the many-fibers benchmark input, 64 fibers
    of dims 1..16 with flat weights, makes no cholesky or solve call."""
    calls = []
    for name in ("cholesky", "solve"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _fn=fn, _n=name,
                            **k: calls.append(_n) or _fn(*a, **k))
    dims = [1 + j % 16 for j in range(64)]
    sysm = random_system(np.random.default_rng(66), d=64, dims=dims, ops=12)
    assert certify(sysm).status == "frame"
    assert calls == []
