"""Controlled operator-frame systems and their bound certificates.

A system bundles a weighted module, a finite operator family (T_i), two
positive invertible control operators C and C', and a comparison
operator K.  The certified inequality sandwiches the family form

    sum_i <T_i C x, T_i C' x>

between A <K* x, K* x> A* from below and B <x, x> B* from above, where
A and B are algebra elements.  In the tuple model every side is a
Hermitian form per character, so the optimal bounds are extremal
eigenvalues of matrix pencils: the upper bound against the weight, the
lower bound against the comparison form with its kernel excluded.
Certificates are recomputed quantities, never trusted inputs; check_at
re-evaluates the inequality at any vector, and certify's verdict and
residuals and verify_bounds decide it at every vector from
spectral.loewner_margins.  No check draws a vector: a sample count only
turns the exact check on (> 0) or off (0), and only the CLI limits it.

Spaces and operators hold one read-only stack per group of fibers of
equal dimension (`ModuleSpace.groups`), and everything here reads those
stacks: a stacked matmul, eigh or SVD treats each fiber as the call on
its matrix alone would.  The fiber forms (the weight W_j, the frame
form Phi_j raw and Hermitian, the comparison form Gamma_j) are built
once per system, on first use, in `ControlledFrameSystem.forms`: one
read-only fiber-major stack per group, with read-only per-fiber views
into it; a real family member costs two real products, not a complex
one.  The optimal bounds solve the pencils and the restricted infima
once per group, and the certificate checks read the per-fiber views.
check_at takes each fiber's Phi_raw, Gamma and W as one (3n, n) block,
one matmul and one vecdot per group, reads the vector through its
space's layout (module_space) and the bounds' squares off the
certificate's cache, and returns its slacks as the rows of one
read-only array, unchecked elements (algebra._of_values): a call does
only the arithmetic that depends on the vector.

The commutation flags of a system (C with C', C and C' with every
T_i^* T_i, C and C' with K) are checked when the system is built, on
the operators' group stacks.  The family is taken in batches of
members, at most _FLAG_BATCH_ENTRIES block entries each: per group, one
broadcast product forms W^-1 M^H W M for every member of the batch,
and each control's commutators with all of them take one stacked
matmul pair.  A residual's norms come from the finite-checked products
W^(1/2) D W^(-1/2) that op_norm forms, an operand's only for a nonzero
numerator, at most once; on an unweighted group these are M^H M and D.
The flags take no SVD: Frobenius brackets of
those products (operators._largest_svs) that clear _COMMUTE_RTOL by
_BRACKET_SLACK decide them, and if one decides nothing, the exact pass,
the largest singular values of the same products, does.  worst_residual
is the exact pass's figure, taken on its first read, as
commutation_residual takes it for one pair.  A product that overflows
raises NotFinite naming the operator; a batch that meets one is run
again member by member, so the error names what that order meets first.

Real-scalar controls (c_j I with c_j real in every fiber, the identity
among them) commute with each other, with K and with every T_i^* T_i
exactly.  Once Frobenius screens on the member blocks and on K rule out
overflow, no T_i^* T_i and no commutator is formed: the flags all
hold with worst residual 0.0.  When the family screen fails, the
family loop runs as for any control and reports an overflowing
T_i^* T_i as NotFinite naming the member; when the K screen fails, the
C-C', C-K and C'-K residuals run and report an overflow the same way.
Such a control that passes _scalar_glplus is GL+ without op_classify.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from .algebra import (AlgebraElement, _of_values, alg_is_strictly_nonzero,
                      positive_rows)
from .errors import (BadParameters, LengthMismatch, NotCommuting, NotFinite,
                     NotGLPlus, SingularFrameOperator, SpaceMismatch)
from .module_space import (ModuleSpace, ModuleVector, _form_values,
                           _of_flat, module_norm)
from .operators import (_SINGULAR_RTOL, ModuleOperator, _adjoint_grams,
                        _apply, _largest_svs, _of_stacks, identity,
                        op_adjoint, op_classify, op_compose, op_sqrt,
                        zero_operator)
from .spectral import (_adjoint, _chain, _fiber_views, _finite_fibers,
                       _frobenius, _norms, _restricted_mins,
                       _valid_pencil_eigvals, hermitian_part,
                       loewner_margins)

STATUS_FRAME = "frame"
STATUS_BESSEL = "bessel_only"
STATUS_NOT_FRAME = "not_frame"

_COMMUTE_RTOL = 1e-10
_TIGHT_RTOL = 1e-8
_SKEW_RTOL = 1e-8
_VERIFY_TOL = 1e-9
_RECONSTRUCT_RTOL = 1e-9
# Products the commutation screen admits stay below this, far from the
# float64 overflow at about 1.8e308.
_SCREEN_LIMIT = 1e300
# The block entries of the family members whose T^* T the commutation
# flags form at once: 2 MB per complex stack of a batch.
_FLAG_BATCH_ENTRIES = 1 << 17
# How far a Frobenius bracket must clear _COMMUTE_RTOL to decide,
# far above the O(n u) rounding of its norms; the verdicts, ordered so
# that the largest over a flag's pairs is the flag's.
_BRACKET_SLACK = 1e-6
_HOLDS, _UNDECIDED, _FAILS = 0.0, 1.0, 2.0


@dataclass(frozen=True)
class CommutationFlags:
    """Checked, not assumed: each flag records a passed residual test.
    worst_residual calls residuals, the exact pass over the system's
    operands (not the system), once, on its first read."""

    controls_commute: bool
    controls_with_family: bool
    controls_with_k: bool
    residuals: Callable[[], tuple[float, ...]] = field(
        repr=False, compare=False)

    @cached_property
    def worst_residual(self) -> float:
        return max(self.residuals())


def _verdict(lo: float, hi: float) -> float:
    """_HOLDS, _FAILS or _UNDECIDED (also for a NaN): what lo <= r <= hi
    decides about r <= _COMMUTE_RTOL, by a margin of _BRACKET_SLACK."""
    edge = 1.0 + _BRACKET_SLACK
    return (_HOLDS if hi * edge <= _COMMUTE_RTOL else
            _FAILS if lo > _COMMUTE_RTOL * edge else _UNDECIDED)


def _residuals(space: ModuleSpace, x, ys, norms: dict,
               exact: bool = True) -> list[float]:
    """|x y - y x| / (|x| |y|) for each member y of a batch, the
    endomorphisms of space x = (name, group stacks) and ys = (names,
    group stacks of shape (B, g, n, n)), the commutators taken first.

    A member whose commutator is exactly zero gets 0 without an SVD.
    The operand norms are taken only for a nonzero numerator, each once
    per norms, a cache keyed by name, and NotFinite names the operand,
    or the commutator of the lowest faulty member.  With exact unset,
    every norm is _largest_svs's bracket, and each member gets the
    _verdict of its residual's bracket instead of the residual.
    """
    (xname, xs), (names, ys) = x, ys
    what = lambda b, *_: f"commutator of {xname} and {names[b]}"
    diffs = [a @ b - b @ a for a, b in zip(xs, ys)]
    _finite_fibers([range(len(names))] * len(diffs), diffs, what)
    nums = _largest_svs(space, space, space.groups, diffs, what, exact)
    live = [b for b, (_, num) in enumerate(nums) if num != 0.0]
    if live and xname not in norms:
        norms[xname] = _largest_svs(space, space, space.groups,
                                    [a[None] for a in xs],
                                    lambda b, j: xname, exact)[0]
    todo = [b for b in live if names[b] not in norms]
    if todo:
        sizes = _largest_svs(space, space, space.groups,
                             [y[todo] for y in ys],
                             lambda i, j: names[todo[i]], exact)
        norms.update(zip((names[b] for b in todo), sizes))
    out = [0.0] * len(names)
    for b in live:
        (n_lo, n_hi), (x_lo, x_hi), (y_lo, y_hi) = (
            nums[b], norms[xname], norms[names[b]])
        hi = n_hi / max(x_lo * y_lo, 1e-300)
        out[b] = hi if exact else _verdict(n_lo / max(x_hi * y_hi, 1e-300),
                                           hi)
    return out


def _residual(space: ModuleSpace, x, y, norms: dict,
              exact: bool = True) -> float:
    """_residuals for the one endomorphism y = (name, group stacks)."""
    return _residuals(space, x, ((y[0],), [s[None] for s in y[1]]),
                      norms, exact)[0]


def _family_residual(space: ModuleSpace, controls, family, norms,
                     exact: bool = True) -> float:
    """The largest _residuals of each control with every T_i^* T_i.

    The members are taken in batches of at most _FLAG_BATCH_ENTRIES
    block entries, each by _member_residual.  When a batch raises
    NotFinite it is run again one member at a time, so the error names
    the member and the check the members taken one by one meet first.
    """
    size = sum(w[0].size for w in space.stacks)
    step = max(1, _FLAG_BATCH_ENTRIES // size)
    worst = 0.0
    for start in range(0, len(family), step):
        batch = range(start, min(start + step, len(family)))
        try:
            worst = max(worst, _member_residual(space, controls, family,
                                                batch, norms, exact))
        except NotFinite:
            for i in batch:
                _member_residual(space, controls, family, range(i, i + 1),
                                 norms, exact)
            raise
    return worst


def _member_residual(space: ModuleSpace, controls, family, batch,
                     norms, exact: bool = True) -> float:
    """The largest _residuals of each control with T_i^* T_i for the
    members i of batch: T^* T = W^-1 M^H W M of every member at once,
    one stacked product per group, checked finite, then each control's
    residuals over the batch."""
    names = [f"family[{i}]^* family[{i}]" for i in batch]
    grams = []
    for k, w in enumerate(space.group_stacks(space.groups)):
        m = np.stack([family[i].stacks[k] for i in batch])
        grams.append(_chain(w[1], _adjoint(m), w[0], m))
    _finite_fibers([range(len(batch))] * len(grams), grams,
                   lambda b: names[b])
    return max(max(_residuals(space, x, (names, grams), norms, exact))
               for x in controls)


def _flag_residuals(space: ModuleSpace, c, cp, k, family,
                    exact: bool = True) -> tuple[float, float, float]:
    """The largest _residuals (_verdicts with exact unset) of C with C',
    of C and C' with every T_i^* T_i, and of C and C' with K."""
    norms: dict = {}
    # Overflow is caught by the finite checks, which raise NotFinite.
    with np.errstate(over="ignore", invalid="ignore"):
        return (_residual(space, c, cp, norms, exact),
                _family_residual(space, (c, cp), family, norms, exact),
                max(_residual(space, c, k, norms, exact),
                    _residual(space, cp, k, norms, exact)))


def commutation_residual(x: ModuleOperator, y: ModuleOperator) -> float:
    """Relative size |x y - y x| / (|x| |y|) of the commutator.

    The stacked residual the system flags run.  Raises SpaceMismatch
    unless x and y are endomorphisms of one space, and NotFinite when a
    product overflows.
    """
    space = x.domain
    if not x.codomain == y.domain == y.codomain == space:
        raise SpaceMismatch("commutation needs endomorphisms of one space")
    with np.errstate(over="ignore", invalid="ignore"):
        return _residual(space, ("x", x.stacks), ("y", y.stacks), {})


def _real_scalars(op: ModuleOperator) -> list[np.ndarray] | None:
    """Per group, the real c_j when every block is exactly c_j I, else None."""
    cs = [s[:, 0, 0].real for s in op.stacks]
    return cs if all(np.array_equal(s, c[:, None, None] * np.eye(s.shape[-1]))
                     for s, c in zip(op.stacks, cs)) else None


@np.errstate(over="ignore")
def _scalar_glplus(space: ModuleSpace, c) -> bool:
    """Whether the real scalars c (_real_scalars) are GL+ by op_classify's
    rule, known without it: each c_j > 2 _SINGULAR_RTOL max(1, c_j) and
    c_j max(1, |W_j|_F) < _SCREEN_LIMIT, so c_j W is finite and HPD."""
    return c is not None and all(
        np.all((x > 2.0 * _SINGULAR_RTOL * np.maximum(1.0, x))
               & (x * np.maximum(1.0, _frobenius(w[0])) < _SCREEN_LIMIT))
        for x, w in zip(c, space.stacks))


def _family_commutes_exactly(sys: ControlledFrameSystem, scale) -> bool:
    """Whether the real-scalar controls with scale max(1, |c_j|, |c'_j|)
    commute with every T_i^* T_i exactly, known without forming T_i^* T_i.

    True when every member block M_j passes the overflow screen

        scale_j max(1, |W_j|_F) |W_j^-1|_F max(1, |M_j|_F)^2 < _SCREEN_LIMIT.

    Frobenius norms are submultiplicative, so the screen caps every
    intermediate of ((W^-1 M^H) W) M and of its products with the
    controls: T^* T is finite, and a real scalar times a finite matrix
    is exact in either order, so each commutator is exactly zero.  A
    NaN or infinite norm fails the screen, and then the family loop
    runs and raises NotFinite as before.
    """
    limits = [s * (np.maximum(1.0, _frobenius(w[0])) * _frobenius(w[1]))
              for s, w in zip(scale, sys.space.stacks)]
    for t in sys.family:
        for limit, m in zip(limits, t.stacks):
            flat = m.reshape(len(m), -1)
            sq = np.vecdot(flat, flat).real
            if not np.all(limit * np.maximum(1.0, sq) < _SCREEN_LIMIT):
                return False
    return True


def _comparison_commutes_exactly(k: ModuleOperator, scale) -> bool:
    """Whether the real-scalar controls with scale max(1, |c_j|, |c'_j|)
    commute with each other and with K exactly.

    True when every fiber passes the overflow screen

        scale_j^2 max(1, |K_j|_F) < _SCREEN_LIMIT,

    which keeps c_j c'_j, c_j K_j and c'_j K_j finite; each is then
    exact in either order, so the C-C', C-K and C'-K commutators are
    exactly zero.  A NaN or infinite norm fails the screen, and then
    the residuals run and raise NotFinite as before.
    """
    return all(np.all(s * s * np.maximum(1.0, _frobenius(m)) < _SCREEN_LIMIT)
               for s, m in zip(scale, k.stacks))


@dataclass(frozen=True, eq=False)
class ControlledFrameSystem:
    space: ModuleSpace
    family: tuple[ModuleOperator, ...]
    control: ModuleOperator
    control_prime: ModuleOperator
    comparison: ModuleOperator

    def __post_init__(self):
        for t in self.family:
            if t.domain != self.space or t.codomain != self.space:
                raise SpaceMismatch("family members must be endomorphisms")
        scalars = []
        for name, op in (("control", self.control),
                         ("control_prime", self.control_prime)):
            if op.domain != self.space or op.codomain != self.space:
                raise SpaceMismatch(f"{name} must be an endomorphism")
            scalars.append(_real_scalars(op))
            if not (_scalar_glplus(self.space, scalars[-1])
                    or op_classify(op).glplus):
                raise NotGLPlus(f"{name} must be positive and invertible")
        k = self.comparison
        if k.domain != self.space or k.codomain != self.space:
            raise SpaceMismatch("comparison operator must be an endomorphism")
        object.__setattr__(self, "flags", self._compute_flags(*scalars))

    def _compute_flags(self, c, cp) -> CommutationFlags:
        scale = None if c is None or cp is None else [
            np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
            for x, y in zip(c, cp)]
        # A norm or product that overflows fails its screen.
        with np.errstate(over="ignore"):
            family_exact = (scale is not None
                            and _family_commutes_exactly(self, scale))
            if family_exact and _comparison_commutes_exactly(
                    self.comparison, scale):
                return CommutationFlags(True, True, True, lambda: (0.0,))
        operands = (self.space, ("control", self.control.stacks),
                    ("control_prime", self.control_prime.stacks),
                    ("comparison", self.comparison.stacks),
                    () if family_exact else self.family)
        verdicts = _flag_residuals(*operands, exact=False)
        if _UNDECIDED not in verdicts:
            return CommutationFlags(*(v == _HOLDS for v in verdicts),
                                    partial(_flag_residuals, *operands))
        res = _flag_residuals(*operands)
        return CommutationFlags(*(r <= _COMMUTE_RTOL for r in res),
                                lambda: res)

    @cached_property
    def forms(self) -> FiberForms:
        """The per-fiber forms, built on first use; see FiberForms."""
        return _build_forms(self)

    @cached_property
    def mixing_root(self) -> ModuleOperator:
        """(C C')^(1/2), built on first use; analysis and synthesis read
        it.  NotCommuting unless the controls commute."""
        if not self.flags.controls_commute:
            raise NotCommuting("analysis needs commuting controls",
                               residual=self.flags.worst_residual)
        return op_sqrt(op_compose(self.control, self.control_prime))


def frame_system(space: ModuleSpace, family, control=None, control_prime=None,
                 comparison=None) -> ControlledFrameSystem:
    """Assemble a system; omitted operators default to the identity."""
    ident = identity(space)
    return ControlledFrameSystem(
        space=space,
        family=tuple(family),
        control=ident if control is None else control,
        control_prime=ident if control_prime is None else control_prime,
        comparison=ident if comparison is None else comparison,
    )


# -- Hermitian forms per fiber ------------------------------------------

@dataclass(frozen=True, eq=False)
class FiberForms:
    """Form matrices of one system, one read-only stack per fiber group.

    groups: the fiber indices of each dimension group, the space's own
        ModuleSpace.groups, whose gathers check_at reads vectors with.
    stacks: per group, one (g, 4, n, n) array that holds, per fiber,
        phi_raw, gamma, weight and phi, in that order.
    _unweighted: the space's per-group answer; phi_spectrum reads it.
    triples: per group, the (g, 3n, n) view of its stack whose block i
        is fiber i's phi_raw, gamma and weight one above the other;
        check_at evaluates them in one stacked product per group.

    The per-fiber forms are read-only (n, n) views into the stacks:
    weight: W_j, the form of <x, x>.
    phi_raw: C'^H (sum M^H W M) C, the form of sum_i <T_i C x, T_i C' x>.
    phi: the Hermitian part of phi_raw.
    gamma: the form of <K* x, K* x>.
    """

    groups: tuple[tuple[int, ...], ...]
    stacks: tuple[np.ndarray, ...]
    _unweighted: tuple[bool, ...] = field(default=(), repr=False)
    phi_raw: tuple[np.ndarray, ...] = field(init=False)
    gamma: tuple[np.ndarray, ...] = field(init=False)
    weight: tuple[np.ndarray, ...] = field(init=False)
    phi: tuple[np.ndarray, ...] = field(init=False)
    triples: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        for stack in self.stacks:
            stack.setflags(write=False)
        object.__setattr__(self, "triples", tuple(
            s[:, :3].reshape(len(s), -1, s.shape[-1]) for s in self.stacks))
        for f, name in enumerate(("phi_raw", "gamma", "weight", "phi")):
            object.__setattr__(self, name, _fiber_views(
                self.groups, [s[:, f] for s in self.stacks]))

    @cached_property
    def phi_spectrum(self) -> tuple[np.ndarray, ...]:
        """Eigenvalues of the pencil (phi_j, W_j) per fiber, ascending.

        Solved on first use by spectral._valid_pencil_eigvals, one
        stacked solve per fiber group; both optimal bounds read it.  Phi
        is a hermitian_part and the space has checked W definite, so no
        check of pencil_eigh's runs again.
        """
        unweighted = self._unweighted or (False,) * len(self.stacks)
        return _valid_pencil_eigvals(
            self.groups, [s[:, 3] for s in self.stacks],
            [None if u else s[:, 2] for u, s in zip(unweighted, self.stacks)])


def _build_forms(sys: ControlledFrameSystem) -> FiberForms:
    """The forms of every group from the operators' stacks, fiber by
    fiber the products acc += M^H W M, then C'^H acc C; Gamma is K's
    adjoint Gram form, the Hermitian part of V M W^-1 M^H V.

    A member stack with no imaginary part adds M^T W_r M to acc's real
    part and M^T W_i M to its imaginary part, W = W_r + i W_i: two real
    products instead of one complex one (one, M^T M, where unweighted).
    The terms this drops have a zero factor and add only a zero, so the
    sums are the complex ones.
    """
    space = sys.space
    factors = space.group_stacks(space.groups)
    accs = [np.zeros_like(w[0]) for w in space.stacks]
    parts = [(None, None) if w[0] is None else
             (np.ascontiguousarray(w[0].real), np.ascontiguousarray(w[0].imag))
             for w in factors]
    stacks = []
    # Overflow is caught by the finite checks, which raise NotFinite.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in sys.family:
            for acc, m, w, (wr, wi) in zip(accs, t.stacks, factors, parts):
                if m.imag.any():
                    acc += _chain(_adjoint(m), w[0], m)
                    continue
                m = np.ascontiguousarray(m.real)
                mt = m.swapaxes(-1, -2)
                acc.real += _chain(mt, wr, m)
                if wi is not None:
                    acc.imag += mt @ wi @ m
        for acc, w, c, cp, gamma in zip(
                accs, space.stacks, sys.control.stacks,
                sys.control_prime.stacks, _adjoint_grams(sys.comparison)):
            raw = _adjoint(cp) @ acc @ c
            stacks.append(np.stack([raw, gamma, w[0], hermitian_part(raw)],
                                   axis=1))
    _require_finite_forms(space.groups, stacks)
    return FiberForms(space.groups, tuple(stacks), space._unweighted)


def _require_finite_forms(groups, stacks) -> None:
    """NotFinite naming the lowest fiber whose Phi (raw or Hermitian) or
    Gamma is not finite, Phi before Gamma."""
    views = _fiber_views(groups, stacks)
    _finite_fibers(groups, stacks, lambda j: (
        "frame form Phi" if not np.isfinite(views[j][[0, 3]]).all()
        else "comparison form Gamma") + f" at fiber {j}")


def frame_form_matrix(sys: ControlledFrameSystem, j: int, *,
                      hermitian: bool = True) -> np.ndarray:
    """Form matrix of x -> sum_i <T_i C x, T_i C' x> at fiber j.

    The exact matrix is C'^H (sum M^H W M) C; it is Hermitian whenever
    the controls commute with the family Gram blocks.  With hermitian
    set, the Hermitian part is returned, which is the form of the real
    part of the sum.  The array is the system's read-only copy.
    """
    forms = sys.forms
    return forms.phi[j] if hermitian else forms.phi_raw[j]


def comparison_form_matrix(sys: ControlledFrameSystem, j: int) -> np.ndarray:
    """Form matrix of x -> <K* x, K* x> at fiber j (read-only)."""
    return sys.forms.gamma[j]


# -- frame operator and the analysis pair --------------------------------

def frame_operator(sys: ControlledFrameSystem) -> ModuleOperator:
    """S = sum_i C' T_i* T_i C as a single blockwise operator.

    Raises BadParameters for an empty family.
    """
    if not sys.family:
        raise BadParameters("frame operator needs a nonempty family")
    s = zero_operator(sys.space)
    # Overflow is caught by the finite check, which raises NotFinite.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in sys.family:
            s = s + op_compose(op_compose(op_compose(
                sys.control_prime, op_adjoint(t)), t), sys.control)
    _finite_fibers(s.groups, s.stacks,
                   lambda j: f"frame operator at fiber {j}")
    return s


def analysis(sys: ControlledFrameSystem, x: ModuleVector) -> list[ModuleVector]:
    """Coefficients T_i (C C')^(1/2) x of the analysis map."""
    if x.space != sys.space:
        raise SpaceMismatch("vector is not in the system space")
    rx = sys.mixing_root(x)
    return [t(rx) for t in sys.family]


def synthesis(sys: ControlledFrameSystem, seq) -> ModuleVector:
    """Adjoint of analysis: sum_i (C C')^(1/2) T_i* a_i, in member
    order; every member's T_i* is one stacked product per group."""
    seq = list(seq)
    if len(seq) != len(sys.family):
        raise LengthMismatch(
            f"expected {len(sys.family)} coefficients, got {len(seq)}"
        )
    r, space, out = sys.mixing_root, sys.space, sys.space.zero_vector()
    if not seq:
        return out
    adjoints = [w[1] @ _adjoint(np.stack([t.stacks[k] for t in sys.family]))
                @ w[0] for k, w in enumerate(space.stacks)]
    for i, a in enumerate(seq):
        if a.space != space:
            raise SpaceMismatch("coefficient vector in the wrong space")
        t = _of_stacks(space, space, [s[i] for s in adjoints])
        out = out + r(_apply(t, a, np.matmul))
    return out


# -- optimal bounds ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LowerBoundResult:
    """Outcome of the optimal lower bound; failure is a status, not an error."""

    ok: bool
    element: AlgebraElement
    infima: tuple[float, ...]
    vacuous: tuple[int, ...]
    failed: tuple[int, ...]


def optimal_upper_bound(sys: ControlledFrameSystem) -> AlgebraElement:
    """Entrywise smallest valid upper bound element.

    Coordinate j is the square root of the largest eigenvalue of the
    pencil (frame form, weight) at fiber j, floored at zero.
    """
    vals = [np.sqrt(max(float(lam[-1]), 0.0))
            for lam in sys.forms.phi_spectrum]
    return AlgebraElement(sys.space.algebra,
                          np.array(vals, dtype=np.complex128))


def optimal_lower_bound(sys: ControlledFrameSystem) -> LowerBoundResult:
    """Entrywise largest valid lower bound element against the K-form.

    Fiber j solves inf x^H Phi x / x^H Gamma x over x with a nonzero
    denominator, Phi the frame form and Gamma the comparison form.  A
    fiber whose Gamma has no positive eigenvalue puts no constraint on
    the bound: restricted_pencil_min returns +inf there, and the fiber
    is flagged vacuous and later filled with the largest feasible value.
    A fiber with infimum zero (or an indefinite frame form) admits no
    strictly nonzero bound, which fails the whole lower inequality.
    Each fiber group costs one eigh of its Phi stack and one call of
    spectral._restricted_mins, which gives restricted_pencil_min's
    values; the clipped Phi is PSD by construction, and Gamma's PSD
    check reads the one eigh of Gamma the solve takes.
    """
    d = len(sys.space.dims)
    forms = sys.forms
    spectrum = forms.phi_spectrum
    # Frame form dips negative: no positive element fits below it.
    dips = [lam[0] < -_SKEW_RTOL * max(1.0, abs(float(lam[-1])))
            for lam in spectrum]
    infima = [0.0] * d
    for idx, stack in zip(forms.groups, forms.stacks):
        rest = [i for i, j in enumerate(idx) if not dips[j]]
        if not rest:
            continue
        # One eigh of the group's Phi stack, then the PSD parts.
        lam, u = np.linalg.eigh(stack[rest, 3])
        phi_psd = (u * np.clip(lam, 0.0, None)[:, None, :]) @ _adjoint(u)
        vals = _restricted_mins(hermitian_part(phi_psd), stack[rest, 1])
        for i, val in zip(rest, vals):
            infima[idx[i]] = val
    vacuous = [j for j, v in enumerate(infima) if v == np.inf]
    failed = [j for j, v in enumerate(infima) if dips[j] or v <= 0.0]
    finite = [v for v in infima if np.isfinite(v)]
    fill = np.sqrt(max(finite)) if finite else 1.0
    vals = np.zeros(d, dtype=np.complex128)
    for j, v in enumerate(infima):
        vals[j] = fill if not np.isfinite(v) else np.sqrt(max(v, 0.0))
    return LowerBoundResult(
        ok=not failed,
        element=AlgebraElement(sys.space.algebra, vals),
        infima=tuple(infima),
        vacuous=tuple(vacuous),
        failed=tuple(failed),
    )


# -- certification -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FrameCertificate:
    """Recomputed two-sided bound data for one system."""

    lower: AlgebraElement
    upper: AlgebraElement
    tight: bool
    lower_residual: float
    upper_residual: float
    status: str
    vacuous: tuple[int, ...]

    @cached_property
    def squares(self) -> tuple[np.ndarray, np.ndarray]:
        """|A|^2 and |B|^2 entrywise, read-only; check_at reads them."""
        out = (np.abs(self.lower.values) ** 2, np.abs(self.upper.values) ** 2)
        for arr in out:
            arr.setflags(write=False)
        return out


def _bound_status(lower_holds: bool, upper: AlgebraElement) -> str:
    """`not_frame` unless upper is strictly nonzero; then `frame` if the
    lower side holds with a strictly nonzero bound, else `bessel_only`."""
    if not alg_is_strictly_nonzero(upper):
        return STATUS_NOT_FRAME
    return STATUS_FRAME if lower_holds else STATUS_BESSEL


def certify(sys: ControlledFrameSystem, *,
            samples: int = 1000) -> FrameCertificate:
    """Compute optimal bounds, overall status, and exact residuals.

    Status is `frame` when both recomputed bounds are strictly nonzero,
    every fiber admits a positive lower infimum and both sides' margins
    (loewner_margins) are >= -_VERIFY_TOL, `bessel_only` when only the
    upper side survives, `not_frame` otherwise or for a skew beyond
    _SKEW_RTOL.  Residuals are max(0, the worst negative margin of their
    side, the worst skew) for samples > 0, and 0.0 for samples=0.
    """
    forms = sys.forms
    upper = optimal_upper_bound(sys)
    low = optimal_lower_bound(sys)
    # A vacuous fiber with a zero frame form bounds neither side, so its
    # upper is filled as the lower is.
    idle = [j for j in low.vacuous if upper.values[j] == 0.0]
    if idle:
        rest = np.delete(np.abs(upper.values), idle)
        vals = upper.values.copy()
        vals[idle] = rest.max() if rest.size else 1.0
        upper = AlgebraElement(upper.algebra, vals)

    a2 = np.abs(low.element.values) ** 2
    margins = loewner_margins(forms.groups, forms.stacks, a2,
                              np.abs(upper.values) ** 2)
    skew = float(margins[2].max())
    lower_ok, upper_ok = margins[:2].min(axis=1) >= -_VERIFY_TOL
    if skew > _SKEW_RTOL or not upper_ok:
        status = STATUS_NOT_FRAME
    else:
        lower_holds = (low.ok and lower_ok
                       and alg_is_strictly_nonzero(low.element))
        status = _bound_status(lower_holds, upper)

    tight = False
    if status == STATUS_FRAME:
        scale = worst = 0.0
        for idx, stack in zip(forms.groups, forms.stacks):
            raw, gamma = stack[:, 0], stack[:, 1]
            scale = max(scale, float(_norms(raw).max()))
            worst = max(worst, float(
                _norms(a2[list(idx), None, None] * gamma - raw).max()))
        tight = worst <= _TIGHT_RTOL * max(1.0, scale)

    lower_res = upper_res = 0.0
    if samples > 0:
        # 0.0 first: max keeps it over a -0.0 margin.
        lower_res = max(0.0, -float(margins[0].min()), skew)
        upper_res = max(0.0, -float(margins[1].min()), skew)
    return FrameCertificate(
        lower=low.element,
        upper=upper,
        tight=tight,
        lower_residual=lower_res,
        upper_residual=upper_res,
        status=status,
        vacuous=low.vacuous,
    )


def _require_algebra(sys: ControlledFrameSystem, *elements) -> None:
    alg = sys.space.algebra
    for a in elements:
        if a.algebra is not alg and a.algebra != alg:
            raise SpaceMismatch("bound elements belong to a different "
                                "algebra than the system")


@dataclass(frozen=True, eq=False)
class CheckReport:
    lower_ok: bool
    upper_ok: bool
    slack_lower: AlgebraElement
    slack_upper: AlgebraElement


def check_at(sys: ControlledFrameSystem, cert: FrameCertificate,
             x: ModuleVector) -> CheckReport:
    """Evaluate the two-sided inequality at one vector.

    Builds all three algebra values of the inequality at x and tests
    positivity of both slacks under the algebra tolerance, in one test
    of the (2, d) slack array.  Each fiber group costs one stacked
    product of its (3n, n) blocks phi_raw, gamma, weight with x and one
    vecdot (module_space._form_values).  The slacks are the two rows of
    one read-only array, elements built unchecked.  Raises SpaceMismatch
    unless x is in the system space and both bounds are elements of its
    algebra.
    """
    space = sys.space
    if x.space is not space and x.space != space:
        raise SpaceMismatch("vector is not in the system space")
    _require_algebra(sys, cert.lower, cert.upper)
    mid, gam, wt = _form_values(space, sys.forms.triples, x.flat, x.flat)
    low_sq, up_sq = cert.squares
    slacks = np.array([mid - low_sq * gam.real, up_sq * wt.real - mid])
    slacks.setflags(write=False)
    alg = space.algebra
    lower_ok, upper_ok = positive_rows(slacks, alg.eps_pos)
    return CheckReport(
        lower_ok=bool(lower_ok),
        upper_ok=bool(upper_ok),
        slack_lower=_of_values(alg, slacks[0]),
        slack_upper=_of_values(alg, slacks[1]),
    )


@dataclass(frozen=True, eq=False)
class VerifyResult:
    verified: bool
    residual: float
    witness: ModuleVector | None


def verify_bounds(sys: ControlledFrameSystem, lower: AlgebraElement,
                  upper: AlgebraElement, *, samples: int = 1000,
                  seed: int = 0) -> VerifyResult:
    """Exact check that given bound elements satisfy the inequality.

    The residual is certify's larger one at these bounds and verifies
    within _VERIFY_TOL.  Else the witness lies in the fiber of the worst
    margin, zero elsewhere: the eigenvector of that side's difference for
    its lowest eigenvalue or, for the skew, of H = (phi_raw - phi_raw^H)
    / 2i for the largest in modulus (Im x^H phi_raw x = x^H H x).
    samples=0 checks nothing: residual 0.0, no witness; seed is unread.
    SpaceMismatch unless both bounds are elements of the system's algebra.
    """
    _require_algebra(sys, lower, upper)
    if samples <= 0:
        return VerifyResult(verified=True, residual=0.0, witness=None)
    forms = sys.forms
    low_sq, up_sq = np.abs(lower.values) ** 2, np.abs(upper.values) ** 2
    margins = loewner_margins(forms.groups, forms.stacks, low_sq, up_sq)
    residual = max(0.0, -float(margins[:2].min()), float(margins[2].max()))
    if residual <= _VERIFY_TOL:
        return VerifyResult(verified=True, residual=residual, witness=None)
    row, j = np.unravel_index(np.argmax(margins * [[-1], [-1], [1]]),
                              margins.shape)
    raw, phi = forms.phi_raw[j], forms.phi[j]
    lam, u = np.linalg.eigh(phi - low_sq[j] * forms.gamma[j] if row == 0
                            else up_sq[j] * forms.weight[j] - phi if row == 1
                            else (raw - _adjoint(raw)) * -0.5j)
    flat = np.zeros(sum(sys.space.dims), dtype=np.complex128)
    flat[sys.space.spans[j]] = u[:, 0 if row < 2 else np.argmax(np.abs(lam))]
    return VerifyResult(verified=False, residual=residual,
                        witness=_of_flat(sys.space, flat))


# -- reconstruction ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    vector: ModuleVector
    method: str
    iterations: int | None
    residual: float
    lambda_min: float
    lambda_max: float


def _operator_spectrum(sys: ControlledFrameSystem, s: ModuleOperator):
    ws = [w[0] for w in sys.space.group_stacks(sys.space.groups)]
    spectra = _valid_pencil_eigvals(
        sys.space.groups,
        [hermitian_part(_chain(w, b)) for w, b in zip(ws, s.stacks)], ws)
    return (min(float(lam[0]) for lam in spectra),
            max(float(lam[-1]) for lam in spectra))


def reconstruct(sys: ControlledFrameSystem, x: ModuleVector, *,
                method: str = "direct") -> ReconstructionResult:
    """Round-trip x through the frame operator and solve back.

    direct: linear solve of S z = S x, one stacked solve per group.
    richardson: z <- z + omega (y - S z) with omega = 2/(l_min + l_max),
    stopped when the relative residual drops below _RECONSTRUCT_RTOL.
    The iteration count realizes the classical (kappa-1)/(kappa+1)
    contraction rate.  Any other method raises BadParameters before
    anything is computed.
    """
    if method not in ("direct", "richardson"):
        raise BadParameters(f"unknown method {method!r}")
    if x.space != sys.space:
        raise SpaceMismatch("vector is not in the system space")
    s = frame_operator(sys)
    if not op_classify(s).invertible:
        raise SingularFrameOperator("frame operator is singular")
    y = s(x)
    lo, hi = _operator_spectrum(sys, s)
    if lo <= 0:
        raise SingularFrameOperator("frame operator is not positive definite")
    ynorm = max(module_norm(y), 1e-300)
    if method == "direct":
        z = _apply(s, y, np.linalg.solve)
        res = module_norm(y - s(z)) / ynorm
        return ReconstructionResult(z, "direct", None, res, lo, hi)
    omega = 2.0 / (lo + hi)
    rho = (hi - lo) / (hi + lo)
    max_iter = (8 if rho <= 0 else
                int(np.ceil(3 * np.log(_RECONSTRUCT_RTOL) / np.log(rho))) + 50)
    z, steps = sys.space.zero_vector(), 0
    r = y - s(z)
    while ((res := module_norm(r) / ynorm) > _RECONSTRUCT_RTOL
           and steps < max_iter):
        z, steps = z + omega * r, steps + 1
        r = y - s(z)
    return ReconstructionResult(z, "richardson", steps, res, lo, hi)


def with_family(sys: ControlledFrameSystem, family) -> ControlledFrameSystem:
    return replace(sys, family=tuple(family))


def with_comparison(sys: ControlledFrameSystem,
                    k: ModuleOperator) -> ControlledFrameSystem:
    return replace(sys, comparison=k)


def with_controls(sys: ControlledFrameSystem, control: ModuleOperator,
                  control_prime: ModuleOperator) -> ControlledFrameSystem:
    return replace(sys, control=control, control_prime=control_prime)
