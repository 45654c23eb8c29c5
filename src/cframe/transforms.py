"""Bound-preserving transforms of controlled frame systems.

Each function here takes a certified system, applies one structural
change (swap the comparison operator, introduce controls, compose with
an invertible factor, push through an algebra homomorphism, trade range
inclusion for a scale), derives new bounds by the matching inequality,
and then re-verifies the derived bounds, exactly and at every vector
at once (verify_bounds).  Derivations are never trusted on their own:
every report records a verification verdict and its residual.  No
check draws vectors, so no report depends on a sample count or seed;
certify and verify_bounds run at their default, exact check on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import AlgebraElement
from .errors import (IntertwiningViolated, NotCommuting, NotFinite,
                     NotGLPlus, NotIncluded, NotInvertible, NotSurjective,
                     PreconditionUnverified, SpaceMismatch, ZeroOperator)
from .frames import (_COMMUTE_RTOL, STATUS_FRAME, ControlledFrameSystem,
                     FrameCertificate, certify, commutation_residual,
                     frame_operator, verify_bounds, with_comparison,
                     with_controls, with_family)
from .module_space import ModuleSpace, ModuleVector
from .operators import (ModuleOperator, adjoint_lower_bound, identity,
                        op_adjoint, op_classify, op_compose, op_inverse,
                        op_norm, op_sqrt)
from .spectral import _finite, _norms, _valid_pencil_eigvals, pinv

_IDENT_RTOL = 1e-10
_SURJ_TOL = 1e-12
_DOUGLAS_RTOL = 1e-9
_TRANSPORT_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class TransformReport:
    """Derived bounds for the transformed system plus their verification."""

    lower: AlgebraElement
    upper: AlgebraElement
    verified: bool
    residual: float
    witness: ModuleVector | None = None
    details: dict = field(default_factory=dict)


def _require_frame(cert: FrameCertificate, what: str):
    if cert.status != STATUS_FRAME:
        raise PreconditionUnverified(
            f"{what} needs a certificate with status frame, got {cert.status}"
        )


def _require_commuting(a: ModuleOperator, b: ModuleOperator, what: str):
    res = commutation_residual(a, b)
    if res > _COMMUTE_RTOL:
        raise NotCommuting(f"{what} do not commute", residual=res)


def _is_identity(op: ModuleOperator) -> bool:
    return op_norm(op - identity(op.domain)) <= _IDENT_RTOL * max(
        1.0, op_norm(op)
    )


def _report(sys: ControlledFrameSystem, lower: AlgebraElement,
            upper: AlgebraElement, details: dict) -> TransformReport:
    """The derived bounds with verify_bounds' verdict on them."""
    ver = verify_bounds(sys, lower, upper)
    return TransformReport(lower, upper, ver.verified, ver.residual,
                           ver.witness, details)


# -- range inclusion / factorization -------------------------------------

@dataclass(frozen=True, eq=False)
class DouglasSolution:
    """Factor D with T D = T' and the majorization scale lambda = |D|^2."""

    factor: ModuleOperator
    scale: float
    residual: float


def douglas_solve(t: ModuleOperator,
                  tprime: ModuleOperator) -> DouglasSolution:
    """Solve T D = T' blockwise through the pseudo-inverse.

    Succeeds exactly when the range of T' sits inside the range of T;
    otherwise the least-squares factor leaves a relative residual above
    _DOUGLAS_RTOL and NotIncluded is raised carrying it.  The returned
    scale |D|^2 majorizes: T' T'* <= |D|^2 T T* fiberwise.
    """
    if t.codomain != tprime.codomain:
        raise SpaceMismatch("factorization needs a common codomain")
    # An overflowing factor ends in op_norm, which raises NotFinite.
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = tuple(pinv(m) @ p for m, p in zip(t.blocks, tprime.blocks))
        d = ModuleOperator(tprime.domain, t.domain, blocks)
        scale = max(op_norm(tprime), 1e-300)
        residual = op_norm(op_compose(t, d) - tprime) / scale
    if residual > _DOUGLAS_RTOL:
        raise NotIncluded(
            f"range escape: relative factorization residual {residual:.3e}",
            residual=residual,
        )
    try:
        lam = op_norm(d) ** 2
    except OverflowError as exc:
        raise NotFinite("Douglas scale |D|^2 is not finite") from exc
    return DouglasSolution(factor=d, scale=lam, residual=residual)


# -- comparison-operator manipulations -----------------------------------

def derive_k_frame(sys: ControlledFrameSystem, cert: FrameCertificate,
                   k: ModuleOperator):
    """From plain frame bounds, bounds against a comparison operator k.

    The system must be certified with the identity comparison.  The new
    lower element is the old one scaled by 1/|k|, since the adjoint form
    of k is dominated by |k|^2 times the inner product.
    """
    _require_frame(cert, "comparison derivation")
    if not _is_identity(sys.comparison):
        raise PreconditionUnverified(
            "comparison derivation starts from an identity-comparison system"
        )
    nk = op_norm(k)
    if nk <= _SURJ_TOL:
        raise ZeroOperator("comparison operator must be nonzero")
    new_sys = with_comparison(sys, k)
    lower = cert.lower * (1.0 / nk)
    report = _report(new_sys, lower, cert.upper, {"comparison_norm": nk})
    return new_sys, report


def upgrade_by_surjectivity(sys: ControlledFrameSystem,
                            cert: FrameCertificate):
    """From bounds against a surjective comparison, plain frame bounds.

    Uses the lower bound m of the comparison adjoint; surjectivity is
    exactly m > 0, so the old lower element scaled by sqrt(m) works
    against the identity comparison.
    """
    _require_frame(cert, "surjectivity upgrade")
    m = adjoint_lower_bound(sys.comparison)
    if m <= _SURJ_TOL:
        raise NotSurjective("comparison operator is not surjective")
    new_sys = with_comparison(sys, identity(sys.space))
    lower = cert.lower * float(np.sqrt(m))
    report = _report(new_sys, lower, cert.upper, {"adjoint_lower_bound": m})
    return new_sys, report


# -- introducing controls ------------------------------------------------

def control_uncontrolled(sys: ControlledFrameSystem, cert: FrameCertificate,
                         control: ModuleOperator,
                         control_prime: ModuleOperator):
    """Turn an uncontrolled certificate into a controlled one.

    Requires both controls positive invertible, commuting with each
    other, with every family member, and with the comparison operator.
    The mixing root R = (C C')^(1/2) then slides through the family, so
    the old bounds survive scaled by the extremes of R.
    """
    _require_frame(cert, "control introduction")
    if not (_is_identity(sys.control) and _is_identity(sys.control_prime)):
        raise PreconditionUnverified(
            "control introduction starts from identity controls"
        )
    for name, op in (("control", control), ("control'", control_prime)):
        if not op_classify(op).glplus:
            raise NotGLPlus(f"{name} must be positive and invertible")
    _require_commuting(control, control_prime, "the controls")
    for i, t in enumerate(sys.family):
        _require_commuting(control, t, f"control and family member {i}")
        _require_commuting(control_prime, t, f"control' and family member {i}")
    _require_commuting(control, sys.comparison,
                       "control and the comparison operator")
    _require_commuting(control_prime, sys.comparison,
                       "control' and the comparison operator")
    root = op_sqrt(op_compose(control, control_prime))
    m = adjoint_lower_bound(root)
    new_sys = with_controls(sys, control, control_prime)
    lower = cert.lower * float(np.sqrt(m))
    root_norm = op_norm(root)
    upper = cert.upper * root_norm
    report = _report(new_sys, lower, upper, {"root_lower_bound": m,
                                             "root_norm": root_norm})
    return new_sys, report


# -- composing the family with a fixed operator --------------------------

def compose_with_q(sys: ControlledFrameSystem, q: ModuleOperator, *,
                   cert: FrameCertificate | None = None):
    """Right-compose every family member with q.

    q must commute with both controls and with the comparison operator.
    The transformed system compares against q* K and keeps the lower
    element; the upper one picks up a factor |q|.  The frame operator
    transforms by conjugation, and the report carries that identity's
    residual.
    """
    _require_commuting(q, sys.control, "q and the control")
    _require_commuting(q, sys.control_prime, "q and the control'")
    _require_commuting(q, sys.comparison, "q and the comparison operator")
    if cert is None:
        cert = certify(sys)
    _require_frame(cert, "family composition")
    new_family = tuple(op_compose(t, q) for t in sys.family)
    new_k = op_compose(op_adjoint(q), sys.comparison)
    new_sys = replace(sys, family=new_family, comparison=new_k)

    s_old = frame_operator(sys)
    s_new = frame_operator(new_sys)
    conj = op_compose(op_adjoint(q), op_compose(s_old, q))
    op_res = op_norm(s_new - conj) / max(op_norm(s_old), 1e-300)

    nq = op_norm(q)
    report = _report(new_sys, cert.lower, cert.upper * nq,
                     {"operator_identity_residual": op_res, "q_norm": nq})
    return new_sys, report


def invertible_q_bounds(sys: ControlledFrameSystem, q: ModuleOperator, *,
                        cert: FrameCertificate | None = None
                        ) -> TransformReport:
    """Bracket the optimal bounds of the q-composed system.

    For invertible q commuting with the controls and the comparison
    adjoint, the family (T_i q) keeps the same comparison operator and
    its measured optimal bounds M, N sit inside

        A/|q^-1| <= M <= A |q|      A |K_j|/|q^-1| <= N <= B |q|

    entrywise in modulus, with |K_j| the norm of K at fiber j, and all
    four brackets are checked.  The report's bounds are the guaranteed
    corner A/|q^-1|, B |q|; measured values and the worst bracket slack
    land in details.
    """
    if not op_classify(q).invertible:
        raise NotInvertible("q must be invertible")
    _require_commuting(q, sys.control, "q and the control")
    _require_commuting(q, sys.control_prime, "q and the control'")
    _require_commuting(q, op_adjoint(sys.comparison),
                       "q and the comparison adjoint")
    if cert is None:
        cert = certify(sys)
    _require_frame(cert, "invertible composition")
    new_sys = with_family(sys, tuple(op_compose(t, q) for t in sys.family))
    new_cert = certify(new_sys)
    # |K_j|^2 is the largest eigenvalue of the pencil (Gamma_j, W_j).
    forms = new_sys.forms
    k_sq = _valid_pencil_eigvals(
        forms.groups, [s[:, 1] for s in forms.stacks],
        [w[0] for w in new_sys.space.group_stacks(forms.groups)])
    nk = np.sqrt([max(0.0, float(lam[-1])) for lam in k_sq])

    nq = op_norm(q)
    nqi = op_norm(op_inverse(q))
    a = np.abs(cert.lower.values)
    b = np.abs(cert.upper.values)
    m = np.abs(new_cert.lower.values)
    n = np.abs(new_cert.upper.values)
    slacks = np.concatenate([
        m - a / nqi,
        a * nq - m,
        n - a * nk / nqi,
        b * nq - n,
    ])
    bracket_slack = float(slacks.min())
    verified = (new_cert.status == STATUS_FRAME
                and bracket_slack >= -1e-9)
    lower = cert.lower * (1.0 / nqi)
    upper = cert.upper * nq
    return TransformReport(
        lower=lower,
        upper=upper,
        verified=verified,
        residual=max(0.0, -bracket_slack),
        witness=None,
        details={
            "measured_lower": new_cert.lower,
            "measured_upper": new_cert.upper,
            "bracket_slack": bracket_slack,
            "q_norm": nq,
            "q_inverse_norm": nqi,
            "transformed_status": new_cert.status,
        },
    )


# -- homomorphism transport ----------------------------------------------

@dataclass(frozen=True, eq=False)
class HomomorphismSpec:
    """Unital *-homomorphism of tuple algebras with a compatible module map.

    `char_map` sends each target character to the source character it
    reads, so the element map is phi(a)_k = a[char_map[k]].  The module
    map acts per target fiber by theta_blocks[k] applied to the source
    part at char_map[k]; weight compatibility makes it inner-product
    preserving.
    """

    char_map: tuple[int, ...]
    theta_blocks: tuple[np.ndarray, ...]
    target_space: ModuleSpace

    def __post_init__(self):
        if len(self.char_map) != self.target_space.algebra.d:
            raise ValueError("need one source character per target character")
        if len(self.theta_blocks) != len(self.char_map):
            raise ValueError("need one module block per target character")
        blocks = []
        for b in self.theta_blocks:
            arr = np.array(b, dtype=np.complex128)
            arr.setflags(write=False)
            blocks.append(arr)
        object.__setattr__(self, "theta_blocks", tuple(blocks))
        object.__setattr__(self, "char_map",
                           tuple(int(i) for i in self.char_map))


def phi_element(hom: HomomorphismSpec, a: AlgebraElement) -> AlgebraElement:
    vals = np.array([a.values[i] for i in hom.char_map], dtype=np.complex128)
    return AlgebraElement(hom.target_space.algebra, vals)


def _validate_hom(hom: HomomorphismSpec, source: ModuleSpace):
    d_src = source.algebra.d
    invs = []
    for k, i in enumerate(hom.char_map):
        if not 0 <= i < d_src:
            raise ValueError(f"target character {k} maps outside the source")
        th = hom.theta_blocks[k]
        p_k = hom.target_space.dims[k]
        n_i = source.dims[i]
        if th.shape != (p_k, n_i):
            raise ValueError(
                f"target fiber {k}: block shape {th.shape}, "
                f"expected ({p_k}, {n_i})"
            )
        w_src = source.weights[i]
        v_tgt = hom.target_space.weights[k]
        # An overflowing residual fails the check below as infinity.
        with np.errstate(over="ignore", invalid="ignore"):
            res = float(np.linalg.norm(th.conj().T @ v_tgt @ th - w_src))
        if res > _IDENT_RTOL * max(1.0, float(np.linalg.norm(w_src))):
            raise IntertwiningViolated(
                f"target fiber {k}: module map does not preserve the "
                "inner product", residual=res,
            )
        if p_k != n_i:
            raise NotSurjective(
                f"target fiber {k}: module map cannot be onto "
                f"({n_i} -> {p_k})"
            )
        sv = np.linalg.svd(th, compute_uv=False)
        if sv.size == 0 or sv[-1] <= _SURJ_TOL * max(1.0, sv[0]):
            raise NotSurjective(f"target fiber {k}: module map is singular")
        invs.append(np.linalg.inv(th))
    return invs


def _conjugate(op: ModuleOperator, hom: HomomorphismSpec, invs,
               space: ModuleSpace) -> ModuleOperator:
    blocks = tuple(
        hom.theta_blocks[k] @ op.blocks[hom.char_map[k]] @ invs[k]
        for k in range(len(hom.char_map))
    )
    return ModuleOperator(space, space, blocks)


def transport(sys: ControlledFrameSystem, hom: HomomorphismSpec, *,
              cert: FrameCertificate | None = None):
    """Carry a certified system through an algebra homomorphism.

    Builds the unique target system intertwined by the module map,
    certifies it, and checks that its bounds equal the transported
    elements phi(A), phi(B) and that the frame operator transports:
    <S_target theta x, theta y> = phi(<S_source x, y>) for all x, y.
    That holds exactly when, at each target fiber k with c = char_map[k],
    the form matrices agree: theta_k^H V_k S_target,k theta_k =
    W_c S_source,c.  The residual is the largest relative Frobenius
    distance between them; a product that overflows raises NotFinite.
    """
    invs = _validate_hom(hom, sys.space)
    tgt = hom.target_space
    new_sys = ControlledFrameSystem(
        space=tgt,
        family=tuple(_conjugate(t, hom, invs, tgt) for t in sys.family),
        control=_conjugate(sys.control, hom, invs, tgt),
        control_prime=_conjugate(sys.control_prime, hom, invs, tgt),
        comparison=_conjugate(sys.comparison, hom, invs, tgt),
    )
    if cert is None:
        cert = certify(sys)
    _require_frame(cert, "transport")
    new_cert = certify(new_sys)

    want_lower = phi_element(hom, cert.lower)
    want_upper = phi_element(hom, cert.upper)
    bound_res = 0.0
    for want, got in ((want_lower, new_cert.lower),
                      (want_upper, new_cert.upper)):
        scale = max(1.0, float(np.max(np.abs(want.values))))
        bound_res = max(
            bound_res,
            float(np.max(np.abs(want.values - got.values))) / scale,
        )

    s_src = frame_operator(sys)
    s_tgt = frame_operator(new_sys)
    ident_res = 0.0
    for k, c in enumerate(hom.char_map):
        th = hom.theta_blocks[k]
        # Overflow leaves inf or nan in diff, which _finite refuses.
        with np.errstate(over="ignore", invalid="ignore"):
            want = sys.space.weights[c] @ s_src.blocks[c]
            diff = th.conj().T @ tgt.weights[k] @ s_tgt.blocks[k] @ th - want
        _finite(diff, f"transport identity at target fiber {k}")
        ident_res = max(ident_res,
                        float(_norms(diff) / max(1.0, _norms(want))))

    verified = (new_cert.status == STATUS_FRAME
                and bound_res <= _TRANSPORT_RTOL
                and ident_res <= _TRANSPORT_RTOL)
    report = TransformReport(
        lower=want_lower,
        upper=want_upper,
        verified=verified,
        residual=max(bound_res, ident_res),
        witness=None,
        details={
            "measured_lower": new_cert.lower,
            "measured_upper": new_cert.upper,
            "bound_residual": bound_res,
            "operator_transport_residual": ident_res,
            "transformed_status": new_cert.status,
        },
    )
    return new_sys, report


# -- range inclusion transfer and the invertibility witness --------------

def range_inclusion_transfer(sys: ControlledFrameSystem,
                             cert: FrameCertificate, u: ModuleOperator):
    """Swap the comparison operator for one with an included range.

    Solves K D = U first; the majorization scale lambda then dampens
    the lower element by 1/sqrt(lambda).  Raises NotIncluded when the
    range of U escapes the range of K.
    """
    _require_frame(cert, "range transfer")
    sol = douglas_solve(sys.comparison, u)
    lam = sol.scale
    factor = 1.0 / float(np.sqrt(lam)) if lam > _SURJ_TOL else 1.0
    new_sys = with_comparison(sys, u)
    lower = cert.lower * factor
    report = _report(new_sys, lower, cert.upper,
                     {"majorization_scale": lam,
                      "factorization_residual": sol.residual})
    return new_sys, report


@dataclass(frozen=True, eq=False)
class WitnessReport:
    invertible: bool
    fiber_min_singular: tuple[float, ...]
    cert_u: FrameCertificate
    cert_ustar: FrameCertificate


def invertibility_witness(sys_u: ControlledFrameSystem,
                          sys_ustar: ControlledFrameSystem,
                          k: ModuleOperator,
                          u: ModuleOperator) -> WitnessReport:
    """Certify invertibility of u from two frame certificates.

    If both the u-composed and the u*-composed families are frames for
    a dense-range comparison operator, u is invertible.  Both
    certificates are recomputed here; a non-frame status raises
    PreconditionUnverified instead of guessing.
    """
    if adjoint_lower_bound(k) <= _SURJ_TOL:
        raise NotSurjective("comparison operator must have dense range")
    _require_commuting(u, sys_u.control, "u and the control")
    _require_commuting(u, sys_u.control_prime, "u and the control'")
    cert_u = certify(sys_u)
    cert_ustar = certify(sys_ustar)
    for name, cert in (("u-composed", cert_u), ("u*-composed", cert_ustar)):
        if cert.status != STATUS_FRAME:
            raise PreconditionUnverified(
                f"{name} system is not certified as a frame ({cert.status})"
            )
    mins = tuple(
        float(np.linalg.svd(b, compute_uv=False)[-1]) for b in u.blocks
    )
    return WitnessReport(
        invertible=op_classify(u).invertible,
        fiber_min_singular=mins,
        cert_u=cert_u,
        cert_ustar=cert_ustar,
    )
