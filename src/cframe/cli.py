"""Command line interface: certify, bounds, frame-operator, transform,
example, selftest.

Input files are JSON documents describing one algebra, one module
space, a named operator dictionary, a frame block wiring names
together, and an optional task block with transform parameters.
Complex numbers serialize as [re, im] pairs; matrices as row-major
nested lists of such pairs.  Every run emits exactly one JSON document
on stdout (or a flat table with --human) and is byte-deterministic for
a fixed input and seed.

Exit codes: 0 success or verified, 2 certification or inclusion
failure, 1 any other error, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .algebra import Algebra, AlgebraElement
from .errors import (BadParameters, CFrameError, NotFinite, NotIncluded,
                     ParseError, ValidationError)
from .frames import (STATUS_FRAME, ControlledFrameSystem, _operator_spectrum,
                     certify, frame_operator, frame_system, reconstruct,
                     verify_bounds)
from .module_space import ModuleSpace, _groups, make_space, module_norm
from .operators import (ModuleOperator, _of_stacks, identity, op_classify,
                        op_norm)
from .sequence_example import (build_example, example_certificate,
                               example_sum_identity)
from .testing import (diagonal_operator, escape_operator,
                      random_operator_in_range,
                      random_operator_rank_deficient, random_system,
                      random_vector)
from .transforms import (HomomorphismSpec, compose_with_q, douglas_solve,
                         invertible_q_bounds, range_inclusion_transfer,
                         transport)

USAGE_EXIT = 64
# The documented limit of --samples times sum(dims); the library draws
# no samples, and any count > 0 only turns its exact check on.
_MAX_SAMPLE_ENTRIES = 1 << 25


# -- JSON value helpers --------------------------------------------------

def _cnum(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _matrix_json(m: np.ndarray) -> list:
    return [[_cnum(v) for v in row] for row in np.atleast_2d(m)]


def _parse_complex(v, where: str) -> complex:
    try:
        if isinstance(v, (int, float)):
            return complex(v)
        if (isinstance(v, list) and len(v) == 2
                and all(isinstance(t, (int, float)) for t in v)):
            return complex(v[0], v[1])
    except OverflowError as exc:  # an int beyond the float range
        raise ValidationError(f"{where}: entry is not finite") from exc
    raise ValidationError(f"{where}: expected a number or [re, im] pair")


def _homogeneous(rows, ndim: int) -> np.ndarray | None:
    """One np.array call for an array of ndim axes of all numbers or of
    all [re, im] pairs.

    None for anything else (ragged, mixed, or non-numeric entries), which
    the per-entry walk then accepts or rejects with a message naming the
    entry.  Bools and ints convert exactly as complex() converts them.
    """
    try:
        arr = np.array(rows)
    except ValueError:  # ragged rows or entries
        return None
    if arr.dtype.kind not in "biuf" or arr.size == 0:
        return None
    if arr.ndim == ndim:
        return arr.astype(np.complex128)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        return None
    # Assign the parts: re + 1j * im would flip a -0.0 real part.
    out = np.empty(arr.shape[:-1], dtype=np.complex128)
    out.real = arr[..., 0]
    out.imag = arr[..., 1]
    return out


def _parse_matrix(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ValidationError(f"{where}: expected a nonempty matrix")
    out = _homogeneous(rows, 2)
    if out is None:
        out = _walk_matrix(rows, where)
    if not np.isfinite(out).all():
        i, jj = np.argwhere(~np.isfinite(out))[0]
        raise ValidationError(f"{where}[{i}][{jj}]: entry is not finite")
    return out


def _operator_stacks(blocks: list, dims, groups, where: str) -> list:
    """The (g, n, n) group stacks of one operator's blocks, one per
    dimension group.

    Each group takes one np.array call.  When a group is not a clean
    stack of finite numbers or [re, im] pairs of its shape, every block
    goes through _parse_matrix and the shape check in fiber order, so
    the error names the lowest faulty fiber and mixed entries are still
    accepted.
    """
    stacks = []
    for idx in groups:
        n = dims[idx[0]]
        stack = _homogeneous([blocks[j] for j in idx], 3)
        if (stack is None or stack.shape != (len(idx), n, n)
                or not np.isfinite(stack).all()):
            break
        stacks.append(stack)
    else:
        return stacks
    mats = []
    for j, b in enumerate(blocks):
        m = _parse_matrix(b, f"{where}[{j}]")
        if m.shape != (dims[j], dims[j]):
            raise ValidationError(
                f"{where}[{j}]: expected shape ({dims[j]}, {dims[j]})")
        mats.append(m)
    return [np.stack([mats[j] for j in idx]) for idx in groups]


def _walk_matrix(rows: list, where: str) -> np.ndarray:
    out = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise ValidationError(f"{where}: row {i} is not a nonempty list")
        vals = [_parse_complex(v, f"{where}[{i}][{jj}]")
                for jj, v in enumerate(row)]
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ValidationError(f"{where}: ragged rows")
        out.append(vals)
    return np.array(out, dtype=np.complex128)


# -- system descriptions -------------------------------------------------

class SystemDescription:
    """Parsed input file: algebra, space, named operators, frame wiring."""

    def __init__(self, algebra: Algebra, space: ModuleSpace,
                 operators: dict[str, ModuleOperator],
                 family: tuple[str, ...] | None,
                 control: str | None, control_prime: str | None,
                 comparison: str | None, task: dict):
        self.algebra = algebra
        self.space = space
        self.operators = operators
        self.family = family
        self.control = control
        self.control_prime = control_prime
        self.comparison = comparison
        self.task = task

    def operator(self, name: str, where: str) -> ModuleOperator:
        if name not in self.operators:
            raise ValidationError(f"{where}: unknown operator name {name!r}")
        return self.operators[name]

    def build_system(self) -> ControlledFrameSystem:
        if self.family is None:
            raise ValidationError("frame: block is required for this command")
        fam = tuple(self.operator(n, "frame.family") for n in self.family)
        c = (self.operator(self.control, "frame.control")
             if self.control else None)
        cp = (self.operator(self.control_prime, "frame.control_prime")
              if self.control_prime else None)
        k = (self.operator(self.comparison, "frame.comparison")
             if self.comparison else None)
        return frame_system(self.space, fam, control=c, control_prime=cp,
                            comparison=k)


def _default_eps_pos() -> float:
    env = os.environ.get("CFRAME_TOLERANCE")
    if env is None:
        return 1e-10
    try:
        val = float(env)
    except ValueError as exc:
        raise ValidationError(
            f"CFRAME_TOLERANCE: not a number: {env!r}"
        ) from exc
    if not math.isfinite(val):
        raise ValidationError("CFRAME_TOLERANCE: must be finite")
    if val <= 0:
        raise ValidationError("CFRAME_TOLERANCE: must be positive")
    return val


def _is_int(v) -> bool:
    """A JSON integer: bool is a subclass of int, and is refused here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _tolerance(alg_doc: dict, key: str) -> float:
    val = alg_doc[key]
    # abs(val) <= max fails for NaN and for ints too large for a float.
    if (isinstance(val, bool) or not isinstance(val, (int, float))
            or not abs(val) <= sys.float_info.max):
        raise ValidationError(f"algebra.{key}: must be a finite number")
    return float(val)


def _parse_fibers(doc, d: int, where: str) -> tuple[list[int], list]:
    """Dims and make_space specs of d fibers, each a dim and optional weight.

    No space is built here, so a dim too large to allocate is refused by
    the block shape checks that follow, before make_space sees it.
    """
    if not isinstance(doc, dict) or "fibers" not in doc:
        raise ValidationError(f"{where}: block with fibers list required")
    fibers = doc["fibers"]
    if not isinstance(fibers, list) or len(fibers) != d:
        raise ValidationError(f"{where}.fibers: need exactly {d} fibers")
    dims, specs = [], []
    for j, f in enumerate(fibers):
        at = f"{where}.fibers[{j}]"
        if not isinstance(f, dict) or "dim" not in f:
            raise ValidationError(f"{at}: object with dim required")
        n = f["dim"]
        if not _is_int(n) or n < 1:
            raise ValidationError(f"{at}.dim: positive integer")
        dims.append(n)
        if "weight" in f:
            w = _parse_matrix(f["weight"], f"{at}.weight")
            if w.shape != (n, n):
                raise ValidationError(
                    f"{at}.weight: expected shape ({n}, {n})"
                )
            specs.append((n, w))
        else:
            specs.append(n)
    return dims, specs


def description_from_dict(doc: dict) -> SystemDescription:
    if not isinstance(doc, dict):
        raise ValidationError("top level: expected an object")
    alg_doc = doc.get("algebra")
    if not isinstance(alg_doc, dict) or "d" not in alg_doc:
        raise ValidationError("algebra: block with character count d required")
    d = alg_doc["d"]
    if not _is_int(d) or d < 1:
        raise ValidationError("algebra.d: must be a positive integer")
    # The environment is read only when the file leaves eps_pos out.
    eps_pos = (_tolerance(alg_doc, "eps_pos") if "eps_pos" in alg_doc
               else _default_eps_pos())
    eps_nz = _tolerance(alg_doc, "eps_nz") if "eps_nz" in alg_doc else 1e-8
    try:
        algebra = Algebra(d, eps_pos=eps_pos, eps_nz=eps_nz)
    except ValueError as exc:
        raise ValidationError(f"algebra: {exc}") from exc

    dims, specs = _parse_fibers(doc.get("space"), d, "space")

    ops_doc = doc.get("operators") or {}
    if not isinstance(ops_doc, dict):
        raise ValidationError("operators: expected an object of named "
                              "operators")
    if not ops_doc:
        # Every command needs one; refuse before a space is built.
        raise ValidationError("operators: at least one operator required")
    groups = _groups(dims)
    op_stacks: dict[str, list] = {}
    for name, blocks in ops_doc.items():
        if not isinstance(blocks, list) or len(blocks) != d:
            raise ValidationError(
                f"operators.{name}: need one block per fiber ({d})"
            )
        op_stacks[name] = _operator_stacks(blocks, dims, groups,
                                           f"operators.{name}")
    space = make_space(algebra, specs)
    ops = {name: _of_stacks(space, space, stacks)
           for name, stacks in op_stacks.items()}

    family = control = control_prime = comparison = None
    fr = doc.get("frame")
    if fr is not None:
        if not isinstance(fr, dict) or "family" not in fr:
            raise ValidationError("frame: object with family list required")
        fam = fr["family"]
        if (not isinstance(fam, list) or not fam
                or not all(isinstance(n, str) for n in fam)):
            raise ValidationError("frame.family: nonempty list of names")
        family = tuple(fam)
        control = fr.get("control")
        control_prime = fr.get("control_prime")
        comparison = fr.get("comparison")

    task = doc.get("task") or {}
    if not isinstance(task, dict):
        raise ValidationError("task: expected an object")

    desc = SystemDescription(algebra, space, ops, family, control,
                             control_prime, comparison, task)
    for role, name in (("control", control), ("control_prime", control_prime),
                       ("comparison", comparison)):
        if name is not None:
            if not isinstance(name, str):
                raise ValidationError(f"frame.{role}: expected a name")
            desc.operator(name, f"frame.{role}")
    if family:
        for n in family:
            desc.operator(n, "frame.family")
    return desc


def parse_system(path: str) -> SystemDescription:
    """Load and validate a system description file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return description_from_dict(doc)


def serialize_system(desc: SystemDescription) -> dict:
    """Dictionary form that description_from_dict parses back equal."""
    fibers = []
    for j, n in enumerate(desc.space.dims):
        f: dict = {"dim": int(n)}
        if not np.array_equal(desc.space.weights[j], np.eye(n)):
            f["weight"] = _matrix_json(desc.space.weights[j])
        fibers.append(f)
    doc = {
        "algebra": {
            "d": desc.algebra.d,
            "eps_pos": desc.algebra.eps_pos,
            "eps_nz": desc.algebra.eps_nz,
        },
        "space": {"fibers": fibers},
        "operators": {
            name: [_matrix_json(b) for b in op.blocks]
            for name, op in sorted(desc.operators.items())
        },
    }
    if desc.family is not None:
        fr: dict = {"family": list(desc.family)}
        if desc.control:
            fr["control"] = desc.control
        if desc.control_prime:
            fr["control_prime"] = desc.control_prime
        if desc.comparison:
            fr["comparison"] = desc.comparison
        doc["frame"] = fr
    if desc.task:
        doc["task"] = desc.task
    return doc


# -- report plumbing -----------------------------------------------------

def _native(value):
    if isinstance(value, dict):
        return {str(k): _native(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_native(v) for v in value]
    if isinstance(value, AlgebraElement):
        return [_cnum(v) for v in value.values]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return _cnum(value)
    return value


def _render_human(doc: dict) -> str:
    lines = []

    def walk(prefix: str, v):
        if isinstance(v, dict):
            for k in sorted(v):
                walk(f"{prefix}{k}." if prefix else f"{k}.", v[k])
            return
        label = prefix[:-1] if prefix.endswith(".") else prefix
        lines.append(f"{label:<40} {json.dumps(v, allow_nan=False)}")

    walk("", doc)
    return "\n".join(lines)


def _emit(doc: dict, human: bool) -> None:
    """Print the whole report at once, or nothing if a value is not finite."""
    doc = _native(doc)
    try:
        text = (_render_human(doc) if human else
                json.dumps(doc, sort_keys=True, indent=2, allow_nan=False))
    except ValueError as exc:  # NaN or an infinity, refused by allow_nan
        raise NotFinite("report value is not finite") from exc
    print(text)


def _report(command: str, args, algebra: Algebra, result: dict) -> None:
    """Emit the envelope every subcommand shares."""
    _emit({
        "command": command,
        "config": {"seed": args.seed, "samples": args.samples,
                   "eps_pos": algebra.eps_pos, "eps_nz": algebra.eps_nz},
        "result": result,
    }, args.human)


def _certificate_json(cert) -> dict:
    return {
        "status": cert.status,
        "lower": cert.lower,
        "upper": cert.upper,
        "tight": cert.tight,
        "lower_residual": cert.lower_residual,
        "upper_residual": cert.upper_residual,
        "vacuous_fibers": list(cert.vacuous),
    }


# -- subcommand bodies ---------------------------------------------------

def _require_sample_count(space: ModuleSpace, count: int) -> None:
    """BadParameters unless count samples of space fit the limit."""
    if count * sum(space.dims) > _MAX_SAMPLE_ENTRIES:
        raise BadParameters(
            f"{count} samples of {sum(space.dims)} coordinates exceed the "
            f"limit of {_MAX_SAMPLE_ENTRIES} sampled values")


def _cmd_certify(args) -> int:
    desc = parse_system(args.file)
    sysm = desc.build_system()
    _require_sample_count(sysm.space, args.samples)
    cert = certify(sysm, samples=args.samples)
    _report("certify", args, desc.algebra, _certificate_json(cert) | {
        "commutation": {
            "controls_commute": sysm.flags.controls_commute,
            "controls_with_family": sysm.flags.controls_with_family,
            "controls_with_comparison": sysm.flags.controls_with_k,
            "worst_residual": sysm.flags.worst_residual,
        }
    })
    return 0 if cert.status == STATUS_FRAME else 2


def _cmd_bounds(args) -> int:
    desc = parse_system(args.file)
    cert = certify(desc.build_system(), samples=0)
    result = _certificate_json(cert)
    del result["lower_residual"], result["upper_residual"]
    _report("bounds", args, desc.algebra, result)
    return 0 if cert.status == STATUS_FRAME else 2


def _cmd_frame_operator(args) -> int:
    desc = parse_system(args.file)
    sysm = desc.build_system()
    s = frame_operator(sysm)
    flags = op_classify(s)
    lo, hi = _operator_spectrum(sysm, s)
    _report("frame-operator", args, desc.algebra, {
        "blocks": [_matrix_json(b) for b in s.blocks],
        "selfadjoint": flags.selfadjoint,
        "positive": flags.positive,
        "invertible": flags.invertible,
        "lambda_min": lo,
        "lambda_max": hi,
    })
    return 0


def _task_operator(desc: SystemDescription, key: str) -> ModuleOperator:
    name = desc.task.get(key)
    if not isinstance(name, str):
        raise ValidationError(f"task.{key}: operator name required")
    return desc.operator(name, f"task.{key}")


def _hom_spec(desc: SystemDescription) -> HomomorphismSpec:
    """task.hom, checked against the source space before it is built."""
    hom = desc.task.get("hom")
    if not isinstance(hom, dict):
        raise ValidationError("task.hom: object required")
    for key in ("char_map", "theta", "target_space"):
        if key not in hom:
            raise ValidationError(f"task.hom.{key}: required")
    alg = desc.algebra
    char_map = hom["char_map"]
    if (not isinstance(char_map, list) or not char_map
            or not all(_is_int(i) and 0 <= i < alg.d for i in char_map)):
        raise ValidationError(
            "task.hom.char_map: nonempty list of source characters "
            f"0..{alg.d - 1}"
        )
    dims, specs = _parse_fibers(hom["target_space"], len(char_map),
                                "task.hom.target_space")
    theta = hom["theta"]
    if not isinstance(theta, list) or len(theta) != len(char_map):
        raise ValidationError(
            "task.hom.theta: one matrix per target character"
        )
    blocks = []
    for k, (b, i) in enumerate(zip(theta, char_map)):
        m = _parse_matrix(b, f"task.hom.theta[{k}]")
        shape = (dims[k], desc.space.dims[i])
        if m.shape != shape:
            raise ValidationError(
                f"task.hom.theta[{k}]: expected shape {shape}"
            )
        blocks.append(m)
    target = make_space(
        Algebra(len(char_map), eps_pos=alg.eps_pos, eps_nz=alg.eps_nz), specs)
    return HomomorphismSpec(tuple(char_map), tuple(blocks), target)


def _transform(desc: SystemDescription, args) -> tuple[dict, bool]:
    """The result block of one transform and whether it verified."""
    if args.kind == "douglas":
        sol = douglas_solve(_task_operator(desc, "t"),
                            _task_operator(desc, "tprime"))
        return {
            "status": "included",
            "scale": sol.scale,
            "residual": sol.residual,
            "factor_norm": op_norm(sol.factor),
            "factor_blocks": [_matrix_json(b) for b in sol.factor.blocks],
        }, True
    sysm = desc.build_system()
    # "hom" reads task.hom, every other kind an operator name; argparse
    # admits no other kind.
    operand = (_hom_spec(desc) if args.kind == "hom" else
               _task_operator(desc, "u" if args.kind == "range" else "q"))
    _require_sample_count(sysm.space, args.samples)
    cert = certify(sysm, samples=args.samples)
    if args.kind == "q":
        _, report = compose_with_q(sysm, operand, cert=cert)
    elif args.kind == "invq":
        report = invertible_q_bounds(sysm, operand, cert=cert)
    elif args.kind == "range":
        _, report = range_inclusion_transfer(sysm, cert, operand)
    else:
        _, report = transport(sysm, operand, cert=cert)
    result = {"lower": report.lower, "upper": report.upper,
              "verified": report.verified, "residual": report.residual}
    return result | report.details, report.verified


def _cmd_transform(args) -> int:
    desc = parse_system(args.file)
    try:
        result, verified = _transform(desc, args)
    except NotIncluded as exc:
        result = {"status": "not_included", "residual": exc.residual}
        verified = False
    _report(f"transform-{args.kind}", args, desc.algebra, result)
    return 0 if verified else 2


def _cmd_example(args) -> int:
    es = build_example(args.n, args.alpha, args.beta)
    ec = example_certificate(es)
    _report("example", args, es.space.algebra, {
        "n": es.n_max,
        "alpha": es.alpha,
        "beta": es.beta,
        "family_size": len(es.family),
        "identity_residual": ec.identity_residual,
        "status": ec.certificate.status,
        "tight": ec.certificate.tight,
        "fitted_lower": ec.fitted_lower,
        "nominal_lower": ec.nominal_lower,
        "nominal_matches": ec.nominal_matches,
        "nominal_residual": ec.nominal_residual,
        "equality_residual": ec.equality_residual,
        "bessel_min_slack": ec.bessel_min_slack,
        "upper": ec.certificate.upper,
    })
    return 0 if ec.certificate.status == STATUS_FRAME else 2


def _selftest_cases(seed: int, samples: int) -> list[dict]:
    cases = []
    rng = np.random.default_rng(seed)

    alg = Algebra(3)
    a = AlgebraElement(alg, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    b = AlgebraElement(alg, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    invol = float(np.max(np.abs((a.star().star() - a).values)))
    prod = float(np.max(np.abs(((a * b).star() - b.star() * a.star()).values)))
    cases.append({
        "name": "algebra_involution",
        "pass": invol == 0.0 and prod <= 1e-12,
        "involution_residual": invol,
        "antihomomorphism_residual": prod,
    })

    space = make_space(Algebra(2), [2, 3])
    ident_sys = frame_system(space, [identity(space)])
    _require_sample_count(space, samples)
    cert = certify(ident_sys, samples=samples)
    ones = np.ones(2)
    cases.append({
        "name": "identity_parseval",
        "pass": (cert.status == STATUS_FRAME and cert.tight
                 and np.allclose(cert.lower.values, ones)
                 and np.allclose(cert.upper.values, ones)
                 and cert.lower_residual == 0.0
                 and cert.upper_residual == 0.0),
        "status": cert.status,
        "tight": cert.tight,
    })

    sysm = random_system(rng, d=3, dims=[2, 3, 2], ops=3)
    # verify_bounds below takes this count on this space too.
    _require_sample_count(sysm.space, samples)
    cert = certify(sysm, samples=samples)
    ver = verify_bounds(sysm, cert.lower, cert.upper, samples=samples,
                        seed=seed + 1)
    x = random_vector(rng, sysm.space)
    rec = reconstruct(sysm, x, method="richardson")
    rec_err = module_norm(rec.vector - x) / max(module_norm(x), 1e-300)
    cases.append({
        "name": "random_frame_roundtrip",
        "pass": (cert.status == STATUS_FRAME and ver.verified
                 and rec_err <= 1e-7),
        "status": cert.status,
        "verify_residual": ver.residual,
        "reconstruction_error": rec_err,
        "richardson_iterations": rec.iterations,
    })

    t = random_operator_rank_deficient(rng, space)
    d_ok = random_operator_in_range(rng, t)
    sol = douglas_solve(t, d_ok)
    escaped = False
    try:
        douglas_solve(t, escape_operator(rng, t))
    except NotIncluded:
        escaped = True
    cases.append({
        "name": "douglas_factorization",
        "pass": sol.residual <= 1e-9 and escaped,
        "inclusion_residual": sol.residual,
        "escape_detected": escaped,
    })

    sys2 = random_system(rng, d=2, dims=[3, 2], ops=2)
    q = diagonal_operator(rng, sys2.space)
    _, rep = compose_with_q(sys2, q)
    cases.append({
        "name": "family_composition",
        "pass": rep.verified and rep.details[
            "operator_identity_residual"] <= 1e-10,
        "verified": rep.verified,
        "operator_identity_residual": rep.details[
            "operator_identity_residual"],
    })

    es = build_example(21, 2.0, 3.0)
    x = random_vector(rng, es.space)
    ident = example_sum_identity(es, x)
    ec = example_certificate(es)
    cases.append({
        "name": "sequence_example",
        "pass": (ident.residual <= 1e-12 and ec.certificate.tight
                 and not ec.nominal_matches
                 and ec.bessel_min_slack >= -1e-12),
        "identity_residual": ident.residual,
        "tight": ec.certificate.tight,
        "nominal_matches": ec.nominal_matches,
        "bessel_min_slack": ec.bessel_min_slack,
    })
    return cases


def _cmd_selftest(args) -> int:
    cases = _selftest_cases(args.seed, args.samples)
    all_pass = all(c["pass"] for c in cases)
    # selftest reads no file, so its config names the default tolerances.
    _report("selftest", args, Algebra(1, eps_pos=_default_eps_pos()),
            {"cases": cases, "all_pass": all_pass})
    return 0 if all_pass else 1


# -- argument parsing ----------------------------------------------------

def _non_negative(text: str) -> int:
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def build_parser() -> _Parser:
    parser = _Parser(prog="cframe",
                     description="controlled operator-frame toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_non_negative, default=0)
        p.add_argument("--samples", type=_non_negative, default=1000)
        p.add_argument("--human", action="store_true")

    p = sub.add_parser("certify", help="two-sided bound certificate")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("bounds", help="optimal bounds only")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("frame-operator", help="assemble the frame operator")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_frame_operator)

    p = sub.add_parser("transform", help="bound-preserving transforms")
    p.add_argument("kind", choices=["q", "invq", "hom", "douglas", "range"])
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("example", help="worked sequence example")
    p.add_argument("--n", type=int, default=101)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    common(p)
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("selftest", help="deterministic built-in checks")
    common(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CFrameError as exc:
        err = {"type": type(exc).__name__, "message": str(exc)}
        res = getattr(exc, "residual", None)
        if res is not None and math.isfinite(res):
            err["residual"] = float(res)
        _emit({"error": err}, args.human)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
