import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cframe import (cli, description_from_dict, parse_system, run,
                    serialize_system)
from cframe.cli import _parse_matrix
from cframe.errors import ParseError, ValidationError
from cframe.module_space import _groups

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "docs", "golden")


def eye_json(n):
    return [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(n)]
            for i in range(n)]


def weighted_doc():
    return {
        "algebra": {"d": 2, "eps_pos": 1e-10, "eps_nz": 1e-8},
        "space": {"fibers": [
            {"dim": 2, "weight": [[2.0, 0.0], [0.0, 1.0]]},
            {"dim": 1},
        ]},
        "operators": {
            "T": [[[1.0, 0.5], [0.0, 2.0]], [[3.0]]],
            "C": [[[2.0, 0.0], [0.0, 2.0]], [[2.0]]],
            "I": [eye_json(2), eye_json(1)],
        },
        "frame": {"family": ["T", "I"], "control": "C", "comparison": "I"},
        "task": {"q": "I"},
    }


def diag_json(*vals):
    return [[v if i == j else 0.0 for j in range(len(vals))]
            for i, v in enumerate(vals)]


def task_doc():
    """Diagonal controls, a diagonal q, and a hom that swaps the fibers.

    Phi = C T*T C' + C C' is diag(4, 15) on fiber 0 and 20 on fiber 1,
    and K is the identity, so the optimal bounds are lower (2, sqrt 20)
    and upper (sqrt 15, sqrt 20).
    """
    return {
        "algebra": {"d": 2, "eps_pos": 1e-10, "eps_nz": 1e-8},
        "space": {"fibers": [{"dim": 2}, {"dim": 1}]},
        "operators": {
            "T": [diag_json(1.0, 2.0), diag_json(3.0)],
            "C": [diag_json(2.0, 1.0), diag_json(2.0)],
            "Cp": [diag_json(1.0, 3.0), diag_json(1.0)],
            "Q": [diag_json(2.0, 0.5), diag_json(1.5)],
            "I": [eye_json(2), eye_json(1)],
        },
        "frame": {"family": ["T", "I"], "control": "C",
                  "control_prime": "Cp", "comparison": "I"},
        "task": {
            "q": "Q", "u": "Q", "t": "I", "tprime": "Q",
            "hom": {
                "char_map": [1, 0],
                "theta": [eye_json(1), eye_json(2)],
                "target_space": {"fibers": [{"dim": 1}, {"dim": 2}]},
            },
        },
    }


def write_doc(tmp_path, doc, name="sys.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- parsing and validation ----------------------------------------------

def test_serialize_round_trip(tmp_path):
    desc = description_from_dict(weighted_doc())
    stable = serialize_system(desc)
    path = write_doc(tmp_path, stable)
    again = serialize_system(parse_system(path))
    assert again == stable


def test_parse_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"algebra": {\n  "d": oops\n}}')
    with pytest.raises(ParseError, match=r"line 2 column"):
        parse_system(str(path))


def test_parse_missing_file():
    with pytest.raises(ParseError, match="never-there.json"):
        parse_system("never-there.json")


@pytest.mark.parametrize("mutate, field", [
    (lambda d: d.pop("algebra"), "algebra"),
    (lambda d: d["algebra"].__setitem__("d", 0), r"algebra\.d"),
    (lambda d: d["space"]["fibers"].pop(), r"space\.fibers"),
    (lambda d: d["operators"]["T"].__setitem__(
        0, [[1.0, 0.5], [0.0]]), r"operators\.T\[0\]"),
    (lambda d: d["operators"]["T"].__setitem__(1, [[1.0, 2.0]]),
     "expected shape"),
    (lambda d: d["frame"]["family"].append("ghost"), r"frame\.family"),
    (lambda d: d["frame"].__setitem__("control", "ghost"),
     r"frame\.control"),
])
def test_validation_names_the_field(mutate, field):
    doc = weighted_doc()
    mutate(doc)
    with pytest.raises(ValidationError, match=field):
        description_from_dict(doc)


# -- matrix entries ------------------------------------------------------

# Entry values as JSON can carry them: ints of any size, bools, floats
# including -0.0.
REALS = st.one_of(st.integers(-2**70, 2**70), st.booleans(), st.just(-0.0),
                  st.floats(allow_nan=False, allow_infinity=False))
PAIRS = st.lists(REALS, min_size=2, max_size=2)


@st.composite
def matrix_rows(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    style = draw(st.sampled_from(["plain", "pairs", "mixed rows"]))
    rows = []
    for _ in range(n):
        row_style = (draw(st.sampled_from(["plain", "pairs"]))
                     if style == "mixed rows" else style)
        entry = REALS if row_style == "plain" else PAIRS
        rows.append(draw(st.lists(entry, min_size=m, max_size=m)))
    return rows


def per_entry_matrix(rows):
    return np.array([[complex(*v) if isinstance(v, list) else complex(v)
                      for v in row] for row in rows], dtype=np.complex128)


@settings(max_examples=300, deadline=None)
@given(matrix_rows())
def test_parse_matrix_matches_per_entry_complex(rows):
    got = _parse_matrix(rows, "m")
    want = per_entry_matrix(rows)
    assert got.dtype == np.complex128
    assert np.array_equal(got, want)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)),
                              np.signbit(getattr(want, part)))


@pytest.mark.parametrize("rows, message", [
    ([[1.0, 2.0], [3.0]], "m: ragged rows"),
    ([[1.0], []], "m: row 1 is not a nonempty list"),
    ([[]], "m: row 0 is not a nonempty list"),
    ([[1.0, "x"]], "m[0][1]: expected a number or [re, im] pair"),
    ([[[1.0, 2.0, 3.0]]], "m[0][0]: expected a number or [re, im] pair"),
    ([[[1.0, 0.0]], [[2.0, 0.0, 1.0]]],
     "m[1][0]: expected a number or [re, im] pair"),
    ([1.0, 2.0], "m: row 0 is not a nonempty list"),
    ([], "m: expected a nonempty matrix"),
])
def test_parse_matrix_rejects_with_entry_message(rows, message):
    with pytest.raises(ValidationError) as exc:
        _parse_matrix(rows, "m")
    assert str(exc.value) == message


def test_parse_matrix_accepts_mixed_entries():
    got = _parse_matrix([[1, [2.0, -1.0]], [[0.0, 3.0], True]], "m")
    np.testing.assert_array_equal(got, [[1, 2 - 1j], [3j, 1]])


def operator_doc(dims, blocks):
    return {"algebra": {"d": len(dims), "eps_pos": 1e-10},
            "space": {"fibers": [{"dim": n} for n in dims]},
            "operators": {"A": blocks}}


def per_block_stacks(dims, blocks):
    """The group stacks of blocks parsed one by one by _parse_matrix."""
    mats = [_parse_matrix(b, f"A[{j}]") for j, b in enumerate(blocks)]
    return [np.stack([mats[j] for j in idx]) for idx in _groups(dims)]


def parsed_stacks(monkeypatch, dims, blocks):
    """The operator's group stacks from description_from_dict, and the
    number of blocks that took the per-block _parse_matrix."""
    calls = []
    monkeypatch.setattr(cli, "_parse_matrix",
                        lambda rows, where: calls.append(where)
                        or _parse_matrix(rows, where))
    desc = description_from_dict(operator_doc(dims, blocks))
    return desc.operators["A"].stacks, len(calls)


def assert_bitwise_equal(got, want):
    assert [s.shape for s in got] == [s.shape for s in want]
    assert [s.dtype for s in got] == [np.complex128] * len(want)
    assert [s.tobytes() for s in got] == [s.tobytes() for s in want]


# Fibers of dims 2, 1, 2, 1, 3: groups {0, 2}, {1, 3} and {4}.
GROUP_DIMS = [2, 1, 2, 1, 3]
BIG = [2 ** 53 + 1, -(2 ** 62 + 3), 2 ** 63 - 1]


@pytest.mark.parametrize("blocks, per_block", [
    # -0.0 real and imaginary parts, plain and as pairs
    ([[[-0.0, 0.0], [1.0, -0.0]], [[-0.0]], [[0.5, -0.0], [-0.0, -2.0]],
      [[-1.5]], [[-0.0] * 3, [1.0, -0.0, 2.0], [0.0] * 3]], False),
    ([[[[-0.0, -0.0], [0.0, -0.0]], [[-0.0, 0.0], [1.0, 2.0]]],
      [[[-0.0, -0.0]]],
      [[[1.0, -0.0], [-0.0, 1.0]], [[0.0, 0.0], [-3.0, -0.0]]],
      [[[0.0, -0.0]]], [[[-0.0, 1.0]] * 3] * 3], False),
    # bools, ints and ints above 2^53, with floats in one group
    ([[[True, False], [1, -2]], [[True]], [[3, BIG[0]], [BIG[1], BIG[2]]],
      [[0.5]], [[False, 1, 2.5], BIG, [-1, 0, True]]], False),
    ([[[[True, False], [1, BIG[0]]], [[BIG[1], 0], [2, -0.0]]],
      [[[False, True]]],
      [[[1, 1], [0, 0]], [[BIG[2], -1], [True, True]]], [[[7, 8]]],
      [[[1, 2], [3, 4], [5, 6]]] * 3], False),
    # a group whose blocks mix plain and pair formats: fibers 0 and 2
    ([[[1.0, -0.0], [2.0, 3.0]], [[1.0]],
      [[[1.0, -0.0], [0.0, 2.0]], [[-0.0, 1.0], [3.0, 4.0]]], [[2.0]],
      [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]], True),
    # a matrix that mixes plain and pair entries: fiber 4
    ([[[1.0, 0.0], [0.0, 1.0]], [[1.0]], [[2.0, 0.0], [0.0, 2.0]],
      [[3.0]], [[1, [2.0, -0.0], True], [[-0.0, 3.0], -0.0, BIG[0]],
                [0.0, 0.0, [1.0, 1.0]]]], True),
], ids=["negative-zero", "negative-zero-pairs", "bool-int", "bool-int-pairs",
        "group-mixes-formats", "matrix-mixes-entries"])
def test_group_parse_equals_per_block_parse(monkeypatch, blocks, per_block):
    got, walked = parsed_stacks(monkeypatch, GROUP_DIMS, blocks)
    assert_bitwise_equal(got, per_block_stacks(GROUP_DIMS, blocks))
    # A clean operator takes one np.array call per group and no
    # per-block parse; any other goes block by block.
    assert walked == (len(blocks) if per_block else 0)


BLOCK_ENTRIES = st.one_of(REALS, PAIRS)


@st.composite
def operator_blocks(draw):
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    blocks = []
    for n in dims:
        style = draw(st.sampled_from(["plain", "pairs", "mixed"]))
        entry = {"plain": REALS, "pairs": PAIRS,
                 "mixed": BLOCK_ENTRIES}[style]
        blocks.append([draw(st.lists(entry, min_size=n, max_size=n))
                       for _ in range(n)])
    return dims, blocks


@settings(max_examples=200, deadline=None)
@given(operator_blocks())
def test_group_parse_equals_per_block_parse_on_drawn_blocks(drawn):
    dims, blocks = drawn
    desc = description_from_dict(operator_doc(dims, blocks))
    assert_bitwise_equal(desc.operators["A"].stacks,
                         per_block_stacks(dims, blocks))


@pytest.mark.parametrize("bad, message", [
    # fiber 2 is in the first group, fiber 1 in the second
    ({2: [[1.0, 0.0], [float("nan"), 1.0]], 1: [[float("inf")]]},
     "operators.A[1][0][0]: entry is not finite"),
    ({2: [[1.0, 0.0], [0.0, 10 ** 400]], 1: [[[0.0, -float("inf")]]]},
     "operators.A[1][0][0]: entry is not finite"),
    ({2: [[1.0, float("inf")], [0.0, 1.0]], 1: [[1.0, 2.0]]},
     "operators.A[1]: expected shape (1, 1)"),
    ({2: [[1.0]], 3: [[float("nan")]]}, "operators.A[2]: expected shape "
                                        "(2, 2)"),
    ({0: [[1.0, 2.0], [3.0]], 3: [["x"]]}, "operators.A[0]: ragged rows"),
])
def test_bad_blocks_in_two_groups_name_the_lowest_fiber(bad, message):
    dims = [2, 1, 2, 1]
    blocks = [np.eye(n).tolist() for n in dims]
    for j, b in bad.items():
        blocks[j] = b
    with pytest.raises(ValidationError) as exc:
        description_from_dict(operator_doc(dims, blocks))
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 10 ** 400])
@pytest.mark.parametrize("place, field", [
    (lambda d, v: d["space"]["fibers"][0]["weight"][1].__setitem__(0, v),
     r"space\.fibers\[0\]\.weight\[1\]\[0\]"),
    (lambda d, v: d["operators"]["I"][0][0].__setitem__(1, [0.0, v]),
     r"operators\.I\[0\]\[0\]\[1\]"),
    (lambda d, v: d["operators"]["T"][0][1].__setitem__(0, [v, 0.0]),
     r"operators\.T\[0\]\[1\]\[0\]"),
])
def test_non_finite_entry_is_a_json_error(tmp_path, capsys, bad, place,
                                          field):
    doc = weighted_doc()
    place(doc, bad)
    path = write_doc(tmp_path, doc)
    code, out = run_json(capsys, ["certify", path])
    assert code == 1
    assert out["error"]["type"] == "ValidationError"
    assert re.match(field + ": entry is not finite", out["error"]["message"])


def test_overflowing_gram_is_a_json_error(tmp_path, capsys):
    with open(golden("identity_system.json")) as fh:
        doc = json.load(fh)
    doc["operators"]["I"][0][0][0] = [1e200, 0.0]
    code, out = run_json(capsys, ["certify", write_doc(tmp_path, doc)])
    assert code == 1
    assert out["error"]["type"] == "NotFinite"
    assert "family[0]" in out["error"]["message"]


@pytest.mark.parametrize("key", ["eps_pos", "eps_nz"])
@pytest.mark.parametrize("value", [-1, 0.0, "abc", True, float("nan"),
                                   10 ** 400])
def test_bad_tolerance_is_a_json_error(tmp_path, capsys, key, value):
    doc = weighted_doc()
    doc["algebra"][key] = value
    path = write_doc(tmp_path, doc)
    code, out = run_json(capsys, ["certify", path])
    assert code == 1
    assert out["error"]["type"] == "ValidationError"
    assert "algebra" in out["error"]["message"]


# -- subcommand behavior -------------------------------------------------

def golden(name):
    return os.path.join(GOLDEN_DIR, name)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_certify_identity_system(capsys):
    code, doc = run_json(capsys, ["certify", golden("identity_system.json")])
    assert code == 0
    assert doc["result"]["status"] == "frame"
    assert doc["result"]["lower"] == [[1.0, 0.0], [1.0, 0.0]]
    assert doc["result"]["tight"] is True


def test_certify_matches_golden_output(capsys):
    code, doc = run_json(capsys, ["certify", golden("identity_system.json")])
    assert code == 0
    with open(golden("identity_certify.json")) as fh:
        assert doc == json.load(fh)


def test_certify_zero_family_exits_two(tmp_path, capsys):
    doc = weighted_doc()
    doc["operators"]["Z"] = [[[0.0, 0.0], [0.0, 0.0]], [[0.0]]]
    doc["frame"] = {"family": ["Z"]}
    path = write_doc(tmp_path, doc)
    code, out = run_json(capsys, ["certify", path])
    assert code == 2
    assert out["result"]["status"] == "not_frame"


def test_missing_input_exits_one(capsys):
    code, doc = run_json(capsys, ["certify", "no-such-file.json"])
    assert code == 1
    assert doc["error"]["type"] == "ParseError"


def test_unknown_subcommand_exits_usage(capsys):
    assert run(["frobnicate"]) == 64


def test_output_is_deterministic(capsys):
    code1 = run(["certify", golden("identity_system.json")])
    first = capsys.readouterr().out
    code2 = run(["certify", golden("identity_system.json")])
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second


def test_bounds_human_rendering(capsys):
    code = run(["bounds", golden("identity_system.json"), "--human"])
    out = capsys.readouterr().out
    assert code == 0
    assert "{" not in out
    assert any(line.startswith("result.status") for line in out.splitlines())


def test_douglas_escape_exits_two(tmp_path, capsys):
    doc = {
        "algebra": {"d": 1},
        "space": {"fibers": [{"dim": 2}]},
        "operators": {
            "P": [[[1.0, 0.0], [0.0, 0.0]]],
            "I": [eye_json(2)],
        },
        "task": {"t": "P", "tprime": "I"},
    }
    path = write_doc(tmp_path, doc)
    code, out = run_json(capsys, ["transform", "douglas", path])
    assert code == 2
    assert out["result"]["status"] == "not_included"
    assert out["result"]["residual"] > 1e-6


def test_douglas_inclusion_reports_factor(tmp_path, capsys):
    doc = {
        "algebra": {"d": 1},
        "space": {"fibers": [{"dim": 2}]},
        "operators": {
            "I": [eye_json(2)],
            "H": [[[2.0, 0.0], [0.0, 3.0]]],
        },
        "task": {"t": "I", "tprime": "H"},
    }
    path = write_doc(tmp_path, doc)
    code, out = run_json(capsys, ["transform", "douglas", path])
    assert code == 0
    assert out["result"]["status"] == "included"
    assert out["result"]["scale"] == pytest.approx(9.0, rel=1e-9)


SQRT15, SQRT20 = np.sqrt(15.0), np.sqrt(20.0)


def real_parts(pairs):
    return [re for re, _ in pairs]


def test_bounds_reports_optimal_bounds(tmp_path, capsys):
    code, out = run_json(capsys, ["bounds", write_doc(tmp_path, task_doc())])
    assert code == 0
    assert out["command"] == "bounds"
    assert out["config"]["samples"] == 1000
    res = out["result"]
    assert set(res) == {"status", "lower", "upper", "tight",
                        "vacuous_fibers"}
    assert res["status"] == "frame"
    assert res["tight"] is False
    assert res["vacuous_fibers"] == []
    assert real_parts(res["lower"]) == pytest.approx([2.0, SQRT20], rel=1e-12)
    assert real_parts(res["upper"]) == pytest.approx([SQRT15, SQRT20],
                                                     rel=1e-12)


# q scales the upper bound by |q| = 2; invq brackets with |q^-1| = 2 as
# well; range divides the lower bound by sqrt of the scale |Q|^2 = 4; hom
# swaps the two characters.
@pytest.mark.parametrize("kind, lower, upper, extra", [
    ("q", [2.0, SQRT20], [2 * SQRT15, 2 * SQRT20],
     {"q_norm": 2.0, "operator_identity_residual": 0.0}),
    ("invq", [1.0, SQRT20 / 2], [2 * SQRT15, 2 * SQRT20],
     {"q_norm": 2.0, "q_inverse_norm": 2.0, "transformed_status": "frame"}),
    ("hom", [SQRT20, 2.0], [SQRT20, SQRT15],
     {"bound_residual": 0.0, "transformed_status": "frame"}),
    ("range", [1.0, SQRT20 / 2], [SQRT15, SQRT20],
     {"majorization_scale": 4.0, "factorization_residual": 0.0}),
])
def test_transform_reports_derived_bounds(tmp_path, capsys, kind, lower,
                                          upper, extra):
    path = write_doc(tmp_path, task_doc())
    code, out = run_json(capsys, ["transform", kind, path, "--samples", "50"])
    assert code == 0
    assert out["command"] == f"transform-{kind}"
    assert out["config"] == {"seed": 0, "samples": 50, "eps_pos": 1e-10,
                             "eps_nz": 1e-8}
    res = out["result"]
    assert res["verified"] is True
    assert res["residual"] <= 1e-12
    assert real_parts(res["lower"]) == pytest.approx(lower, rel=1e-12)
    assert real_parts(res["upper"]) == pytest.approx(upper, rel=1e-12)
    for key, val in extra.items():
        assert res[key] == pytest.approx(val, rel=1e-12)


def test_range_escape_exits_two(tmp_path, capsys):
    doc = task_doc()
    doc["operators"]["P"] = [diag_json(1.0, 0.0), diag_json(1.0)]
    doc["frame"]["comparison"] = "P"
    code, out = run_json(capsys, ["transform", "range",
                                  write_doc(tmp_path, doc)])
    assert code == 2
    assert out["command"] == "transform-range"
    assert out["result"]["status"] == "not_included"
    assert out["result"]["residual"] > 1e-6


def set_at(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


HOM = ("task", "hom")
TARGET = HOM + ("target_space", "fibers")


@pytest.mark.parametrize("command, path, value, field", [
    pytest.param(["transform", "hom"], HOM + ("char_map",), [],
                 r"task\.hom\.char_map", id="empty-char-map"),
    pytest.param(["transform", "hom"], TARGET, [{"dim": 1}],
                 r"task\.hom\.target_space\.fibers: need exactly 2 fibers",
                 id="short-target-space"),
    pytest.param(["transform", "hom"], HOM + ("char_map",), [5, 0],
                 r"task\.hom\.char_map", id="char-map-out-of-range"),
    pytest.param(["transform", "hom"], HOM + ("theta", 0), [[1.0, 0.0]],
                 r"task\.hom\.theta\[0\]: expected shape \(1, 1\)",
                 id="theta-shape"),
    pytest.param(["transform", "hom"], TARGET + (1, "dim"), "2",
                 r"task\.hom\.target_space\.fibers\[1\]\.dim",
                 id="string-target-dim"),
    pytest.param(["transform", "hom"], TARGET + (0, "dim"), True,
                 r"task\.hom\.target_space\.fibers\[0\]\.dim",
                 id="bool-target-dim"),
    pytest.param(["transform", "hom"], HOM + ("char_map",), [True, 0],
                 r"task\.hom\.char_map", id="bool-char-map"),
    pytest.param(["certify"], ("space", "fibers", 1, "dim"), True,
                 r"space\.fibers\[1\]\.dim", id="bool-dim"),
    pytest.param(["certify"], ("algebra", "d"), True, r"algebra\.d",
                 id="bool-d-certify"),
    pytest.param(["bounds"], ("algebra", "d"), True, r"algebra\.d",
                 id="bool-d-bounds"),
    pytest.param(["frame-operator"], ("algebra", "d"), True, r"algebra\.d",
                 id="bool-d-frame-operator"),
])
def test_bad_input_is_a_json_error(tmp_path, capsys, command, path, value,
                                   field):
    doc = task_doc()
    set_at(doc, path, value)
    code, out = run_json(capsys, command + [write_doc(tmp_path, doc)])
    assert code == 1
    assert out["error"]["type"] == "ValidationError"
    assert re.match(field, out["error"]["message"])


@pytest.mark.parametrize("command", [
    ["certify", golden("identity_system.json")],
    ["transform", "q", golden("identity_system.json")],
    ["example"],
    ["selftest"],
])
def test_negative_samples_is_a_usage_error(capsys, command):
    assert run(command + ["--samples", "-5"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples" in captured.err


@pytest.mark.parametrize("command", [
    ["certify", golden("identity_system.json")],
    ["transform", "q", golden("identity_system.json")],
    ["example"],
    ["selftest"],
])
def test_negative_seed_is_a_usage_error(capsys, command):
    assert run(command + ["--seed", "-3"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err


@pytest.mark.parametrize("command", [
    ["certify", golden("identity_system.json")],
    ["transform", "q", None],
    ["selftest"],
    ["transform", "hom", None],
])
def test_sample_draw_beyond_the_limit_is_a_json_error(tmp_path, capsys,
                                                      command):
    # 10**8 samples of 3 or 5 coordinates would need 5 to 8 GB; the
    # draw is refused before anything is allocated
    command = [write_doc(tmp_path, task_doc()) if arg is None else arg
               for arg in command]
    code, out = run_strict(command + ["--samples", "100000000"])
    assert code == 1
    assert out["error"]["type"] == "BadParameters"
    assert "exceed the limit of 33554432 sampled values" in (
        out["error"]["message"])


def test_certify_and_invq_leave_numpy_random_unimported(tmp_path, child_env):
    # the first default_rng call imports numpy.random, about 16 ms of a
    # cold process; certify and the transforms draw no samples
    path = write_doc(tmp_path, task_doc())
    commands = [["certify", golden("identity_system.json")]] + [
        ["transform", kind, path] for kind in ("invq", "q", "range", "hom")]
    code = ("import contextlib, io, sys\n"
            "from cframe import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [cli.run(c) for c in {commands!r}]\n"
            "assert codes == [0] * 5, codes\n"
            "assert 'numpy.random' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env)


def test_selftest_without_samples_passes(capsys):
    code, out = run_json(capsys, ["selftest", "--samples", "0"])
    assert code == 0
    assert out["result"]["all_pass"] is True
    cases = {c["name"]: c for c in out["result"]["cases"]}
    assert cases["random_frame_roundtrip"]["verify_residual"] == 0.0


@pytest.mark.parametrize("kind", ["q", "range"])
def test_transform_without_samples_verifies(tmp_path, capsys, kind):
    # --samples 0 skips no transform check: the result is the default one
    path = write_doc(tmp_path, task_doc())
    code, out = run_json(capsys, ["transform", kind, path, "--samples", "0"])
    assert code == 0
    assert out["result"]["verified"] is True
    assert out["result"] == run_json(capsys, ["transform", kind, path])[1][
        "result"]


def test_transform_hom_result_does_not_depend_on_samples_or_seed(
        tmp_path, capsys):
    doc = task_doc()
    # theta_1 rotates fiber 0 by 0.3 rad, so the transported frame
    # operator is not diagonal and a sampled check would see rounding
    c, s = np.cos(0.3), np.sin(0.3)
    doc["task"]["hom"]["theta"][1] = [[c, -s], [s, c]]
    path = write_doc(tmp_path, doc)
    results = set()
    for extra in (["--seed", "0"], ["--seed", "5"], ["--samples", "0"],
                  ["--samples", "7"], ["--samples", "1000"]):
        code, out = run_json(capsys, ["transform", "hom", path] + extra)
        assert code == 0
        results.add(json.dumps(out["result"], sort_keys=True))
    assert len(results) == 1
    assert json.loads(results.pop())["operator_transport_residual"] <= 1e-14


@pytest.mark.parametrize("kind", ["q", "invq", "range", "hom"])
def test_transform_refusal_follows_only_the_given_sample_count(
        tmp_path, capsys, monkeypatch, kind):
    # task_doc has 3 coordinates, so a limit of 3 sampled values refuses
    # --samples 1000; --samples 0 still runs every check of the transform
    path = write_doc(tmp_path, task_doc())
    want = run_json(capsys, ["transform", kind, path])[1]["result"]
    monkeypatch.setattr(cli, "_MAX_SAMPLE_ENTRIES", 3)
    code, out = run_json(capsys, ["transform", kind, path,
                                  "--samples", "1000"])
    assert code == 1
    assert out["error"]["type"] == "BadParameters"
    code, out = run_json(capsys, ["transform", kind, path, "--samples", "0"])
    assert code == 0
    assert out["result"] == want


def test_operators_list_is_a_json_error(tmp_path, capsys):
    doc = task_doc()
    doc["operators"] = [1]
    code, out = run_json(capsys, ["certify", write_doc(tmp_path, doc)])
    assert code == 1
    assert out["error"]["type"] == "ValidationError"
    assert out["error"]["message"].startswith("operators:")


EXAMPLE_FIELDS = {
    "n", "alpha", "beta", "family_size", "identity_residual", "status",
    "tight", "fitted_lower", "nominal_lower", "nominal_matches",
    "nominal_residual", "equality_residual", "bessel_min_slack", "upper",
}


@pytest.mark.parametrize("extra", [
    [], ["--alpha", "2.5", "--beta", "0.7", "--seed", "3"],
    ["--n", "40", "--samples", "7", "--seed", "9"], ["--samples", "0"],
])
def test_example_report_keeps_every_field(capsys, extra):
    code, out = run_json(capsys, ["example"] + extra)
    assert code == 0
    res = out["result"]
    assert set(res) == EXAMPLE_FIELDS
    assert res["status"] == "frame"
    assert res["tight"] is True
    assert res["nominal_matches"] is False
    assert 0.0 <= res["identity_residual"] <= 1e-12


def test_example_result_does_not_depend_on_samples_or_seed(capsys):
    results = set()
    for extra in (["--seed", "0"], ["--seed", "5"], ["--samples", "0"],
                  ["--samples", "7"], ["--samples", "1000"]):
        code, out = run_json(capsys, ["example"] + extra)
        assert code == 0
        results.add(json.dumps(out["result"], sort_keys=True))
    assert len(results) == 1


@pytest.mark.parametrize("alpha, beta", [
    ("1e200", "1e200"), ("inf", "1.0"), ("1.0", "inf"),
])
def test_example_overflowing_scalars_exit_one(capsys, alpha, beta):
    code, out = run_json(capsys, ["example", "--n", "9", "--alpha", alpha,
                                  "--beta", beta])
    assert code == 1
    assert out["error"]["type"] == "BadParameters"


def test_frame_operator_of_identity_system(capsys):
    code, out = run_json(capsys, ["frame-operator",
                                  golden("identity_system.json")])
    assert code == 0
    assert out["result"]["lambda_min"] == 1.0
    assert out["result"]["lambda_max"] == 1.0
    assert out["result"]["positive"] is True


def test_example_subcommand(capsys):
    code, out = run_json(capsys, ["example", "--n", "9", "--alpha", "2.0",
                                  "--beta", "3.0", "--samples", "50"])
    assert code == 0
    assert out["result"]["identity_residual"] <= 1e-12
    assert out["result"]["tight"] is True
    assert out["result"]["nominal_matches"] is False


def test_selftest_passes_and_repeats(capsys):
    code = run(["selftest"])
    first = capsys.readouterr().out
    assert code == 0
    doc = json.loads(first)
    assert doc["result"]["all_pass"] is True
    assert run(["selftest"]) == 0
    assert capsys.readouterr().out == first


# -- tolerance environment override --------------------------------------

def test_env_tolerance_fills_default(tmp_path, capsys, monkeypatch):
    doc = weighted_doc()
    del doc["algebra"]["eps_pos"]
    path = write_doc(tmp_path, doc)
    monkeypatch.setenv("CFRAME_TOLERANCE", "1e-6")
    code, out = run_json(capsys, ["certify", path])
    assert code in (0, 2)
    assert out["config"]["eps_pos"] == 1e-6


def test_explicit_tolerance_beats_env(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, weighted_doc())
    monkeypatch.setenv("CFRAME_TOLERANCE", "1e-6")
    code, out = run_json(capsys, ["certify", path])
    assert out["config"]["eps_pos"] == 1e-10


def test_explicit_tolerance_ignores_bad_env(capsys, monkeypatch):
    monkeypatch.setenv("CFRAME_TOLERANCE", "abc")
    code = run(["certify", golden("identity_system.json")])
    assert code == 0
    with open(golden("identity_certify.json"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_bad_env_tolerance_is_an_error(tmp_path, capsys, monkeypatch):
    doc = weighted_doc()
    del doc["algebra"]["eps_pos"]
    path = write_doc(tmp_path, doc)
    monkeypatch.setenv("CFRAME_TOLERANCE", "not-a-number")
    code, out = run_json(capsys, ["certify", path])
    assert code == 1
    assert out["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_env_tolerance_is_an_error(tmp_path, capsys, monkeypatch,
                                              value):
    doc = weighted_doc()
    del doc["algebra"]["eps_pos"]
    path = write_doc(tmp_path, doc)
    monkeypatch.setenv("CFRAME_TOLERANCE", value)
    code, out = run_json(capsys, ["certify", path])
    assert code == 1
    assert out["error"]["type"] == "ValidationError"
    assert "CFRAME_TOLERANCE" in out["error"]["message"]


# -- overflow, huge dims and weights: a JSON error, never NaN or Infinity ---

def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_strict(argv):
    """Exit code and stdout of one in-process run; stdout must be one
    standard JSON document, NaN and Infinity refused."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, json.loads(buf.getvalue(), parse_constant=reject_constant)


def overflowing_sum_doc():
    """Each M^H W M is finite (1.44e308) but the family sum overflows."""
    return {"algebra": {"d": 1}, "space": {"fibers": [{"dim": 1}]},
            "operators": {"T": [[[1.2e154]]]}, "frame": {"family": ["T", "T"]}}


@pytest.mark.parametrize("command, form", [
    ("certify", "frame form Phi"), ("bounds", "frame form Phi"),
    ("frame-operator", "frame operator"),
])
def test_overflowing_frame_form_is_a_json_error(tmp_path, capsys, command,
                                                form):
    path = write_doc(tmp_path, overflowing_sum_doc())
    code, out = run_strict([command, path])
    assert code == 1
    assert out["error"] == {"type": "NotFinite",
                            "message": f"{form} at fiber 0 is not finite"}
    assert run([command, path, "--human"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["error.message",
                                                   "error.type"]


@pytest.mark.parametrize("kind", ["douglas", "range"])
def test_overflowing_douglas_scale_is_a_json_error(tmp_path, kind):
    doc = task_doc()
    doc["operators"]["Q"][1] = [[1e200]]
    code, out = run_strict(["transform", kind, write_doc(tmp_path, doc)])
    assert code == 1
    assert out["error"] == {"type": "NotFinite",
                            "message": "Douglas scale |D|^2 is not finite"}


def test_infinite_residual_is_left_out_of_the_error(tmp_path):
    doc = task_doc()
    doc["task"]["hom"]["theta"][1][0][0] = [1.2e154, 0.0]
    code, out = run_strict(["transform", "hom", write_doc(tmp_path, doc)])
    assert code == 1
    assert out["error"]["type"] == "IntertwiningViolated"
    assert "residual" not in out["error"]


@pytest.mark.parametrize("human", [False, True])
def test_non_finite_report_value_prints_only_the_error(capsys, monkeypatch,
                                                       human):
    monkeypatch.setattr(cli, "_operator_spectrum",
                        lambda sysm, s: (float("nan"), 1.0))
    argv = ["frame-operator", golden("identity_system.json")]
    assert run(argv + ["--human"] * human) == 1
    out = capsys.readouterr().out
    want = {"type": "NotFinite", "message": "report value is not finite"}
    if human:  # the error lines alone, no part of the report
        assert out == "".join(f"error.{k:<34} {json.dumps(want[k])}\n"
                              for k in sorted(want))
    else:
        assert json.loads(out) == {"error": want}


@pytest.mark.parametrize("dim", [10 ** 20, 10 ** 6])
def test_huge_dim_is_refused_by_the_block_shapes(tmp_path, dim):
    with open(golden("identity_system.json")) as fh:
        doc = json.load(fh)
    doc["space"]["fibers"][1]["dim"] = dim
    code, out = run_strict(["certify", write_doc(tmp_path, doc)])
    assert code == 1
    assert out["error"] == {
        "type": "ValidationError",
        "message": f"operators.I[1]: expected shape ({dim}, {dim})"}


def test_huge_target_dim_is_refused_by_the_theta_shapes(tmp_path):
    doc = task_doc()
    doc["task"]["hom"]["target_space"]["fibers"][0]["dim"] = 10 ** 20
    code, out = run_strict(["transform", "hom", write_doc(tmp_path, doc)])
    assert code == 1
    assert out["error"]["message"] == (
        f"task.hom.theta[0]: expected shape ({10 ** 20}, 1)")


@pytest.mark.parametrize("ops", [None, {}])
def test_file_without_operators_is_refused(tmp_path, ops):
    doc = {"algebra": {"d": 1}, "space": {"fibers": [{"dim": 10 ** 20}]}}
    if ops is not None:
        doc["operators"] = ops
    code, out = run_strict(["certify", write_doc(tmp_path, doc)])
    assert code == 1
    assert out["error"] == {
        "type": "ValidationError",
        "message": "operators: at least one operator required"}


@pytest.mark.parametrize("command", ["certify", "bounds", "frame-operator"])
def test_weight_definiteness_follows_the_pencil_rule(tmp_path, command):
    # 1e-11 passed the old 1e-12 weight check, then failed in the pencil
    # solve as "G is not positive definite", naming neither weight nor
    # fiber.
    with open(golden("identity_system.json")) as fh:
        doc = json.load(fh)
    doc["space"]["fibers"][0]["weight"] = [[1, 0], [0, 1e-11]]
    code, out = run_strict([command, write_doc(tmp_path, doc)])
    assert code == 1
    assert out["error"] == {
        "type": "NotDefinite",
        "message": "fiber 0: weight is not positive definite"}


# -- fuzz: every document ends in a report or a JSON error -----------------

FILE_COMMANDS = [["certify"], ["bounds"], ["frame-operator"]] + [
    ["transform", kind] for kind in ("q", "invq", "hom", "douglas", "range")]

# Overflowing and non-finite numbers, absurd dims, and wrong types.
POOL = [1.2e154, 1e200, 10 ** 400, float("nan"), 10 ** 6, 10 ** 20, True,
        False, "x", [], 0, -1, 2, [[1.0]]]


def node_paths(node, prefix=()):
    """The path of every node below the root, parents first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


def draw_path(data, doc):
    """A node path, drawn so that each field name is about as likely as
    any other: a dim or a theta block is not outnumbered by the many
    matrix entries."""
    by_field: dict = {}
    for path in node_paths(doc):
        field = [k for k in path if isinstance(k, str)][-1]
        by_field.setdefault(field, []).append(path)
    field = data.draw(st.sampled_from(sorted(by_field)))
    return data.draw(st.sampled_from(by_field[field]))


def mutate(doc, path, value, delete):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


def fuzz_bases():
    with open(golden("identity_system.json")) as fh:
        return [json.load(fh), task_doc()]


# Derandomized, so every run checks the same documents and a failure
# reproduces; wider random runs belong outside the suite.
@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_documents_end_in_a_report_or_a_json_error(data):
    doc = data.draw(st.sampled_from(fuzz_bases()))
    for _ in range(data.draw(st.integers(1, 3))):
        if not doc:
            break
        mutate(doc, draw_path(data, doc), data.draw(st.sampled_from(POOL)),
               data.draw(st.booleans()))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sys.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for command in FILE_COMMANDS:
            code, out = run_strict(command + [path, "--samples", "20"])
            assert code in (0, 1, 2)
            assert ("error" in out) == (code == 1)


# -- vacuity, overflow-safe scales and the example's derived status --------

def skewed_doc(scale):
    """C does not commute with T^* T = diag(1, 4) scale^2, so Phi is
    skew and the system is not a frame at any scale."""
    return {"algebra": {"d": 1}, "space": {"fibers": [{"dim": 2}]},
            "operators": {"T": [[[scale, 0], [0, 2 * scale]]],
                          "C": [[[2, 1], [1, 2]]]},
            "frame": {"family": ["T"], "control": "C"}}


@pytest.mark.parametrize("command", ["certify", "bounds"])
@pytest.mark.parametrize("scale", [1.0, 1e100])
def test_skew_verdict_survives_overflowing_scales(tmp_path, command, scale):
    code, out = run_strict([command, write_doc(tmp_path, skewed_doc(scale))])
    assert code == 2
    assert out["result"]["status"] == "not_frame"


@pytest.mark.parametrize("command", ["certify", "bounds"])
def test_fiber_with_zero_forms_is_vacuous_for_both_bounds(tmp_path, command):
    doc = {"algebra": {"d": 2}, "space": {"fibers": [{"dim": 2}, {"dim": 2}]},
           "operators": {"P": [eye_json(2), diag_json(0.0, 0.0)]},
           "frame": {"family": ["P"], "comparison": "P"}}
    code, out = run_strict([command, write_doc(tmp_path, doc)])
    assert code == 0
    res = out["result"]
    assert res["status"] == "frame"
    assert res["upper"] == [[1.0, 0.0], [1.0, 0.0]]
    assert res["vacuous_fibers"] == [1]


def test_small_comparison_form_is_not_vacuous(tmp_path):
    doc = {"algebra": {"d": 2}, "space": {"fibers": [{"dim": 1}, {"dim": 1}]},
           "operators": {"T": [[[1.0]], [[1e-6]]],
                         "K": [[[1.0]], [[3.1622776601683795e-05]]]},
           "frame": {"family": ["T"], "comparison": "K"}}
    code, out = run_strict(["certify", write_doc(tmp_path, doc)])
    assert code == 0
    assert out["result"]["vacuous_fibers"] == []
    # Phi_1 / Gamma_1 = 1e-12 / 1e-9
    assert out["result"]["lower"][1][0] == pytest.approx(np.sqrt(1e-3),
                                                         rel=1e-12)


def test_example_below_eps_nz_is_not_a_frame(capsys):
    code, out = run_json(capsys, ["example", "--alpha", "1e-10", "--beta",
                                  "1e-10", "--n", "9"])
    assert code == 2
    assert out["result"]["status"] == "not_frame"


def test_example_length_is_bounded(capsys):
    code, out = run_json(capsys, ["example", "--n", "1000000000"])
    assert code == 1
    assert out["error"] == {"type": "BadParameters",
                            "message": "truncation length must be at most 1001"}
