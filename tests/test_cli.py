import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liereg import cli, duals, jsonio, reps
from liereg.words import Alphabet


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_shuffle_subcommand(capsys):
    code, out, _ = run(capsys, "shuffle", "--w1", "e1", "--w2", "e2")
    assert code == 0
    assert json.loads(out) == {
        "terms": [
            {"word": "e1.e2", "coeff": "1"},
            {"word": "e2.e1", "coeff": "1"},
        ]
    }


def test_mul_and_antipode(capsys):
    code, out, _ = run(capsys, "mul", "--x", "e1", "--y", "e2")
    assert code == 0
    assert json.loads(out)["terms"] == [{"word": "e1.e2", "coeff": "1"}]
    code, out, _ = run(capsys, "antipode", "--x", "e1.e2")
    assert json.loads(out)["terms"] == [{"word": "e2.e1", "coeff": "1"}]


def test_coproduct_subcommand(capsys):
    code, out, _ = run(capsys, "coproduct", "--x", "e1")
    assert code == 0
    terms = json.loads(out)["terms"]
    assert {"left": "1", "right": "e1", "coeff": "1"} in terms
    assert {"left": "e1", "right": "1", "coeff": "1"} in terms


def test_eval_and_taylor(capsys):
    code, out, _ = run(capsys, "eval", "--functional", "phi:e1.e2", "--x", "e1.e2")
    assert code == 0
    assert json.loads(out)["value"] == "1"
    code, out, _ = run(capsys, "taylor", "--functional", "phi:e1", "--tuple", "e1")
    assert json.loads(out)["pretty"] == "t1"


MC_3 = (
    '{"kind":"matrix-coefficient","rep":{"dim":3,"letters":['
    '{"name":"a","matrix":[["0","0","0"],["1","0","0"],["0","2/3","0"]]},'
    '{"name":"b","matrix":[["0","0","0"],["0","0","0"],["5","-1","0"]]}]},'
    '"phi":["1","-2","3/7"],"v":["1","1/2","0"]}'
)


def test_taylor_matrix_coefficient_output(capsys):
    """The taylor JSON of a fixed matrix coefficient, byte for byte."""
    code, out, _ = run(capsys, "taylor", "--functional", MC_3, "--tuple", "a,b,a")
    assert code == 0
    terms = [
        ([0, 0, 1], "-13/7"), ([0, 0, 2], "1/7"), ([0, 1, 0], "27/14"), ([0, 1, 1], "-3/7"),
        ([1, 0, 0], "-13/7"), ([1, 0, 1], "2/7"), ([2, 0, 0], "1/7"),
    ]
    assert out == json.dumps({
        "nvars": 3,
        "terms": [{"k": k, "c": c} for k, c in terms],
        "pretty": "-13/7*t3 + 1/7*t3^2 + 27/14*t2 + -3/7*t2*t3 + -13/7*t1 + 2/7*t1*t3"
                  " + 1/7*t1^2",
    }, indent=2) + "\n"


def test_act_subcommand(capsys):
    rep = reps.make_chain(Alphabet(("e1", "e2")), (0, 1))
    rep_json = json.dumps(jsonio.encode_rep(rep))
    code, out, _ = run(
        capsys,
        "act",
        "--rep", rep_json,
        "--vector", '["1","0","0"]',
        "--x", "e2.e1",
    )
    assert code == 0
    assert json.loads(out)["vector"] == ["0", "0", "1"]
    code, out, _ = run(
        capsys,
        "act",
        "--rep", rep_json,
        "--vector", '["1","0","0"]',
        "--group", '[{"letter":"e2","kind":"exp","param":"3"},'
                   '{"letter":"e1","kind":"exp","param":"2"}]',
    )
    assert json.loads(out)["vector"] == ["1", "2", "6"]


@pytest.mark.parametrize("vector", ['["1","0"]', '["1","0","0","0"]'])
@pytest.mark.parametrize("action", [
    ["--x", "e2.e1"],
    ["--x", "[]"],
    ["--group", '[{"letter":"e1","kind":"exp","param":"2"}]'],
])
def test_act_rejects_a_vector_of_the_wrong_length(capsys, vector, action):
    rep = reps.make_chain(Alphabet(("e1", "e2")), (0, 1))
    rep_json = json.dumps(jsonio.encode_rep(rep))
    code, out, err = run(capsys, "act", "--rep", rep_json, "--vector", vector, *action)
    assert code == 1 and out == ""
    assert err.startswith("error: vector: has length") and "Traceback" not in err


NONSTRING_FIELDS = [
    ('{"dim":2,"letters":[{"name":"e","kind":["x"],"matrix":[[0,1],[0,0]]}]}', None,
     "rep.letters[0].kind"),
    ('{"dim":2,"letters":[{"name":["e"],"matrix":[[0,1],[0,0]]}]}', None,
     "rep.letters[0].name"),
    ('{"dim":2,"letters":[{"name":"e","matrix":[[0,1],[0,0]]}]}',
     '[{"letter":"e","param":"2","kind":["exp"]}]', "group[0].kind"),
]


@pytest.mark.parametrize("rep_json, group, field", NONSTRING_FIELDS)
def test_act_rejects_a_field_that_is_not_a_string(capsys, rep_json, group, field):
    action = ["--x", "e"] if group is None else ["--group", group]
    code, out, err = run(capsys, "act", "--rep", rep_json, "--vector", "[1,0]", *action)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {field}: ") and "Traceback" not in err


def test_act_names_the_param_of_a_zero_torus_factor(capsys):
    rep_json = ('{"dim":2,"letters":[{"name":"d","kind":"diagonalizable-integer",'
                '"matrix":[[1,0],[0,-1]]}]}')
    group = '[{"letter":"d","kind":"torus","param":"0"}]'
    code, out, err = run(capsys, "act", "--rep", rep_json, "--vector", "[1,1]", "--group", group)
    assert (code, out) == (1, "")
    assert err == "error: group[0].param: a torus factor needs a nonzero parameter\n"


MIXED_REP = ('{"dim":2,"letters":[{"name":"e","matrix":[[0,1],[0,0]]},'
             '{"name":"d","kind":"diagonalizable-integer","matrix":[[3,0],[0,-2]]}]}')
KIND_MISMATCHES = [
    (["act", "--rep", MIXED_REP, "--vector", "[1,1]", "--group",
      '[{"letter":"e","kind":"exp","param":"2"},{"letter":"d","kind":"exp","param":"1"}]'],
     "group[1].kind: letter d is diagonalizable-integer, so its factor kind is 'torus', not 'exp'"),
    (["act", "--rep", MIXED_REP, "--vector", "[1,1]", "--group",
      '[{"letter":"e","kind":"torus","param":"2"}]'],
     "group[0].kind: letter e is locally-nilpotent, so its factor kind is 'exp', not 'torus'"),
    (["witness", "--letters", "e1,e2", "--group",
      '[{"letter":"e1","kind":"exp","param":"2"},{"letter":"e2","kind":"torus","param":"3"}]'],
     "group[1].kind: letter e2 is locally-nilpotent, so its factor kind is 'exp', not 'torus'"),
]


@pytest.mark.parametrize("argv, message", KIND_MISMATCHES)
def test_a_factor_kind_that_does_not_fit_its_letter_is_named(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_xi_map_realizes_a_word_on_its_suffixes_under_a_small_cap(capsys, monkeypatch):
    """The realization has one dimension per suffix, ignoring the cap: V_8
    over three letters would have 9,841."""
    monkeypatch.setenv("LIEREG_DIM_CAP", "14")
    code, out, _ = run(capsys, "xi-map", "--functional", "phi:e1.e2.e3.e1.e2.e3.e1.e2")
    assert code == 0
    realized = json.loads(out)
    assert realized["rep"]["dim"] == 9
    assert realized["rep"]["labels"][-1] == "e1.e2.e3.e1.e2.e3.e1.e2"
    assert realized["phi"] == ["0"] * 8 + ["1"] and realized["v"] == ["1"] + ["0"] * 8


def test_membership_subcommand(capsys):
    code, out, _ = run(
        capsys, "membership", "--functional", "phi:e1.e2", "--bound", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["closure-dimension"] == 3
    assert data["in-shuffle-span"] is True


def test_membership_span_verdict_is_exact(capsys):
    # b10*(x . b0) on the chain e1.e2.e1...: 1 on one word of length 10
    rep = reps.make_chain(Alphabet(("e1", "e2")), [i % 2 for i in range(10)])
    h = duals.MatrixCoefficient(rep, rep.basis_vector(10), rep.basis_vector(0))
    functional = json.dumps(jsonio.encode_functional(h))
    code, out, _ = run(capsys, "membership", "--functional", functional, "--bound", "0")
    assert code == 0
    assert json.loads(out)["in-shuffle-span"] is False
    code, out, _ = run(capsys, "membership", "--functional", functional, "--bound", "10")
    assert json.loads(out)["in-shuffle-span"] is True
    with pytest.raises(SystemExit) as exc:
        cli.main(["membership", "--functional", functional, "--bound", "0", "--slack", "20"])
    assert exc.value.code == 2
    assert "--slack" in capsys.readouterr().err


def test_witness_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "witness",
        "--letters", "e1,e2",
        "--group", '[{"letter":"e1","kind":"exp","param":"5"},'
                   '{"letter":"e2","kind":"exp","param":"7"}]',
    )
    assert code == 0
    assert json.loads(out)["moved"][-1] == "35"


KM_BUILD_B2 = """{
  "symmetrizer": [
    "2",
    "1"
  ],
  "weights": [
    {
      "depth": [
        0,
        0
      ],
      "lambda": [
        1,
        0
      ],
      "multiplicity": 1
    },
    {
      "depth": [
        1,
        0
      ],
      "lambda": [
        -1,
        2
      ],
      "multiplicity": 1
    },
    {
      "depth": [
        1,
        1
      ],
      "lambda": [
        0,
        0
      ],
      "multiplicity": 1
    }
  ],
  "total-dimension": 3
}
"""


def test_km_build_output_is_pinned_byte_for_byte(capsys):
    code, out, err = run(
        capsys,
        "km-build",
        "--matrix", '{"matrix": [[2, -1], [-2, 2]]}',
        "--weight", "[1, 0]",
        "--depth", "2",
    )
    assert (code, err) == (0, "")
    assert out == KM_BUILD_B2


def test_km_subcommands(capsys):
    code, out, _ = run(
        capsys,
        "km-build",
        "--matrix", '{"matrix":[[2]]}',
        "--weight", "[2]",
        "--depth", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["total-dimension"] == 3
    assert data["symmetrizer"] == ["1"]
    code, out, _ = run(
        capsys,
        "km-build",
        "--matrix", '{"matrix":[[2,-1],[-3,2]]}',
        "--weight", "[0,1]",
        "--depth", "1",
    )
    assert json.loads(out)["symmetrizer"] == ["3", "1"]
    code, out, _ = run(
        capsys,
        "km-mult",
        "--matrix", '{"matrix":[[2,-2],[-2,2]]}',
        "--weight", "[1,0]",
        "--k", "[2,2]",
        "--oracle",
    )
    data = json.loads(out)
    assert data["multiplicity"] == data["gram-rank"] == data["freudenthal"] == 2
    code, out, _ = run(
        capsys,
        "km-theta",
        "--matrix", '{"matrix":[[2]]}',
        "--weight", "[2]",
        "--depth", "2",
        "--group", '[{"kind":"e","index":0,"param":"1"},{"kind":"f","index":0,"param":"1"}]',
    )
    assert json.loads(out)["theta"] == "4"


def test_km_theta_acts_past_the_declared_depth(capsys):
    """exp(f) reaches depth 2 from a module declared at depth 0, and exp(e)
    comes back from there: --depth bounds only km-build's listing."""
    code, out, err = run(
        capsys,
        "km-theta",
        "--matrix", '{"matrix":[[2]]}',
        "--weight", "[2]",
        "--depth", "0",
        "--group", '[{"kind":"e","index":0,"param":"1"},{"kind":"f","index":0,"param":"1"}]',
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["theta"] == "4"


def test_km_mult_oracle_past_a_zero_peterson_denominator(capsys):
    # (beta|beta-2rho) = 0 at beta = (2,2) for A2
    code, out, _ = run(
        capsys,
        "km-mult",
        "--matrix", '{"matrix":[[2,-1],[-1,2]]}',
        "--weight", "[1,1]",
        "--k", "[2,2]",
        "--oracle",
    )
    assert code == 0
    data = json.loads(out)
    assert data["multiplicity"] == data["gram-rank"] == data["freudenthal"] == 1


def test_exit_codes(capsys):
    code, _, err = run(capsys, "shuffle", "--w1", "e1..x", "--w2", "e1")
    assert code == 1 and "empty letter" in err
    code, _, err = run(
        capsys,
        "km-build",
        "--matrix", '{"matrix":[[2]]}',
        "--weight", "[1]",
        "--depth", "99",
    )
    assert code == 2 and "cap" in err
    code, _, err = run(capsys, "eval", "--functional", "{bad json", "--x", "e1")
    assert code == 1


def test_phi_functional_alphabet_takes_the_other_words(capsys):
    code, out, err = run(capsys, "taylor", "--functional", "phi:1", "--tuple", "a")
    assert code == 0, err
    assert json.loads(out) == {"nvars": 1, "terms": [{"k": [0], "c": "1"}], "pretty": "1"}
    code, out, _ = run(capsys, "eval", "--functional", "phi:e1", "--x", "e2")
    assert code == 0 and json.loads(out)["value"] == "0"


AFFINE_A1 = '{"matrix":[[2,-2],[-2,2]]}'


@pytest.mark.parametrize("env, argv, needs", [
    ({}, ["km-build", "--matrix", '{"matrix":[[2]]}', "--weight", "[1]", "--depth", "99"],
     ["truncation depth 99", "depth cap is 24", "LIEREG_DEPTH_CAP"]),
    ({"LIEREG_DEPTH_CAP": "3"},
     ["km-build", "--matrix", '{"matrix":[[2]]}', "--weight", "[1]", "--depth", "8"],
     ["truncation depth 8", "depth cap is 3", "LIEREG_DEPTH_CAP"]),
    ({"LIEREG_DIM_CAP": "1"},
     ["km-mult", "--matrix", AFFINE_A1, "--weight", "[1,0]", "--k", "[2,2]"],
     ["candidate set of size 2", "dimension cap 1", "LIEREG_DIM_CAP"]),
    ({"LIEREG_DIM_CAP": "14"}, ["witness", "--x", "e1.e2.e1"],
     ["V_N(J) dimension 15", "dimension cap 14", "LIEREG_DIM_CAP"]),
])
def test_cap_errors_name_the_cap_and_its_variable(capsys, monkeypatch, env, argv, needs):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, _, err = run(capsys, *argv)
    assert code == 2
    for text in needs:
        assert text in err, err
    # the named variable lifts the cap
    monkeypatch.setenv(needs[-1], "99" if "DEPTH" in needs[-1] else "15")
    code, _, err = run(capsys, *argv)
    assert code == 0, err


@pytest.mark.parametrize("name, value", [
    ("LIEREG_DIM_CAP", "abc"),
    ("LIEREG_DIM_CAP", "-1"),
    ("LIEREG_DEPTH_CAP", "-3"),
    ("LIEREG_DEPTH_CAP", "2.5"),
])
def test_a_cap_variable_must_be_a_nonnegative_integer(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, "km-build", "--matrix", '{"matrix":[[2]]}', "--weight", "[1]",
                         "--depth", "1")
    assert code == 1 and out == ""
    assert err == f"error: {name}: expected a nonnegative integer, got {value!r}\n"


@pytest.mark.parametrize("option, field, argv", [
    ("--functional", "functional", ["eval", "--x", "e1"]),
    ("--rep", "rep", ["act", "--vector", "[1]", "--x", "e1"]),
    ("--matrix", "gcm", ["km-build", "--weight", "[1]", "--depth", "1"]),
])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
def test_an_unreadable_at_file_names_the_field_and_the_path(
        capsys, tmp_path, option, field, argv, kind):
    path = {"missing": tmp_path / "missing.json", "directory": tmp_path,
            "not-utf-8": tmp_path / "latin-1.json"}[kind]
    if kind == "not-utf-8":
        path.write_bytes(b'{"matrix": [[2]], "note": "\xff"}')
    code, out, err = run(capsys, argv[0], option, f"@{path}", *argv[1:])
    assert code == 1 and out == ""
    assert err.startswith(f"error: {field}: ") and repr(str(path)) in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("k, code, multiplicity", [
    # lambda(h_1) = -4: s_1 takes the weight to depth (1,-1), above Lambda,
    # so no candidate is reduced and the cap does not apply
    ("[1,3]", 0, 0),
    # dominant: the elimination decides, over f_0 V_(0,1) and f_1 V_(1,0)
    ("[1,1]", 2, None),
])
def test_dim_cap_applies_only_to_weights_the_reflections_leave_open(
        capsys, monkeypatch, k, code, multiplicity):
    monkeypatch.setenv("LIEREG_DIM_CAP", "1")
    got, out, err = run(
        capsys, "km-mult", "--matrix", '{"matrix":[[2,-1],[-1,2]]}', "--weight", "[1,1]", "--k", k
    )
    assert got == code, err
    if code:
        assert "candidate set of size 2" in err
    else:
        assert json.loads(out)["multiplicity"] == multiplicity


def test_km_mult_reads_the_multiplicity_at_the_dominant_weight(capsys, monkeypatch):
    """(5,3) reflects to the dominant (1,1), whose one candidate f_1 f_0 v
    fits the cap; reduced where it lies, V_(5,3) has 3 candidates."""
    monkeypatch.setenv("LIEREG_DIM_CAP", "2")
    code, out, err = run(capsys, "km-mult", "--matrix", AFFINE_A1, "--weight", "[1,0]",
                         "--k", "[5,3]")
    assert code == 0, err
    assert json.loads(out)["multiplicity"] == 1


@pytest.mark.parametrize("cap, argv, code, out_or_err", [
    # exp(f) exp(2f) v_Lambda: f f v_Lambda lies at depth 2, past the cap,
    # where the reflection walk proves the weight zero
    ("1", ["km-theta", "--matrix", '{"matrix":[[2]]}', "--weight", "[1]", "--depth", "0",
      "--group", '[{"kind":"f","index":0,"param":"2"},{"kind":"f","index":0,"param":"1"}]'],
     0, '"theta": "1"'),
    # L(Lambda_1) of A2 is zero at depth (3,0): it has no coordinates
    ("2", ["km-cone", "--matrix", '{"matrix":[[2,-1],[-1,2]]}', "--weight", "[1,0]", "--depth", "1",
      "--vector", '[{"depth":[0,0],"coords":["1"]},{"depth":[3,0],"coords":["1"]}]'],
     1, "vector[1].coords: expected 0 coordinates"),
], ids=["km-theta", "km-cone"])
def test_a_zero_weight_past_the_depth_cap_is_answered(
        capsys, monkeypatch, cap, argv, code, out_or_err):
    monkeypatch.setenv("LIEREG_DEPTH_CAP", cap)
    got, out, err = run(capsys, *argv)
    assert got == code, err
    assert out_or_err in (out if code == 0 else err)


def test_km_cone_refuses_a_huge_depth_vector_at_once(capsys):
    """The reflection walk is bounded by the depth cap, not by the size of
    the depth: unbounded, this one runs about 2e9 steps before it ends at a
    dominant weight."""
    vector = '[{"depth":[10000000001000000000,10000000000000000000],"coords":[]}]'
    code, out, err = run(capsys, "km-cone", "--matrix", AFFINE_A1, "--weight", "[1,0]",
                         "--depth", "1", "--vector", vector)
    assert code == cli.EXIT_CAP
    assert out == ""
    assert "LIEREG_DEPTH_CAP" in err


def test_python_dash_m_liereg_runs_the_command():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "liereg", "km-mult", "--matrix", AFFINE_A1,
         "--weight", "[1,0]", "--k", "[3,2]"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["multiplicity"] == 2


def test_python_dash_m_liereg_cli_exits_nonzero_and_points_to_python_dash_m_liereg():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "liereg.cli", "km-mult", "--matrix", AFFINE_A1,
         "--weight", "[1,0]", "--k", "[3,2]"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.endswith("error: run the liereg command as python -m liereg\n")


@pytest.mark.parametrize("vector, field", [
    ('[{"depth":[1,0,0],"coords":["1"]}]', "vector[0].depth"),
    ('[{"depth":[1],"coords":["1"]}]', "vector[0].depth"),
    ('[["x"]]', "vector[0]:"),
    ('[{"depth":[-1,1],"coords":["1"]}]', "vector[0].depth:"),
    ('[{"depth":[1,0],"coords":["1","2"]}]', "vector[0].coords: expected 1 coordinates"),
    ('[{"depth":[0,0],"coords":["1"]},{"depth":[1,1],"coords":[]}]',
     "vector[1].coords: expected 1 coordinates"),
    # a repeated depth: whichever entry won, the verdict would follow their order
    ('[{"depth":[0,0],"coords":["1"]},{"depth":[0,0],"coords":["0"]}]', "vector[1].depth:"),
])
def test_km_cone_rejects_malformed_vector(capsys, vector, field):
    code, _, err = run(
        capsys,
        "km-cone",
        "--matrix", '{"matrix":[[2,-1],[-1,2]]}',
        "--weight", "[1,0]",
        "--depth", "1",
        "--vector", vector,
    )
    assert code == 1
    assert field in err and "Traceback" not in err


A1 = '{"matrix":[[2]]}'
A2 = '{"matrix":[[2,-1],[-1,2]]}'
A2_THETA = ["km-theta", "--matrix", A2, "--weight", "[1,0]", "--depth", "2", "--group"]


@pytest.mark.parametrize("argv, field", [
    (["km-build", "--matrix", A1, "--weight", "[1.5]", "--depth", "2"], "weight:"),
    (["km-build", "--matrix", A1, "--weight", "[true]", "--depth", "2"], "weight:"),
    (["km-build", "--matrix", A2, "--weight", "3", "--depth", "2"], "weight:"),
    (["km-mult", "--matrix", A1, "--weight", '["2"]', "--k", "[1]"], "weight:"),
    (["km-mult", "--matrix", A1, "--weight", "[2]", "--k", "[1.9]"], "k:"),
    (["km-mult", "--matrix", A2, "--weight", "[1,0]", "--k", "[1]"], "k:"),
    (A2_THETA + ['[{"kind":"e","index":2,"param":"1"}]'], "group[0].index:"),
    (A2_THETA + ['[{"kind":"f","index":true,"param":"1"}]'], "group[0].index:"),
    (A2_THETA + ['[{"kind":"root","indices":[0,1.0],"param":"1"}]'], "group[0].indices:"),
    (A2_THETA + ['[{"kind":"root","indices":1,"param":"1"}]'], "group[0].indices:"),
    (A2_THETA + ['[{"kind":"torus","coweight":[1,0,5],"param":"2"}]'], "group[0].coweight:"),
    (A2_THETA + ['[{"kind":"torus","coweight":[1.7,0],"param":"2"}]'], "group[0].coweight:"),
    (["km-build", "--matrix", '{"matrix":[[2.5]]}', "--weight", "[1]", "--depth", "2"],
     "gcm.matrix[0]:"),
    (["km-build", "--matrix", '{"matrix":[["2"]]}', "--weight", "[1]", "--depth", "2"],
     "gcm.matrix[0]:"),
    (["km-build", "--matrix", A2, "--weight", "[1,0]", "--depth", "-1"], "depth:"),
    (["km-mult", "--matrix", A2, "--weight", "[1,0]", "--k", "[-1,0]"], "k:"),
    (["km-mult", "--matrix", A2, "--weight", "[1,0]", "--k", "[-1,2]"], "k:"),
    (["km-mult", "--matrix", A2, "--weight", "[-1,0]", "--k", "[1,0]"], "weight:"),
])
def test_km_integer_fields_rejected(capsys, argv, field):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith(f"error: {field}") and "Traceback" not in err


@pytest.mark.parametrize("group, field", [
    ('[{"kind":"e","index":0,"param":[1]}]', "group[0].param:"),
    ('[{"kind":"f","index":0,"param":"1/0"}]', "group[0].param:"),
    ('[{"kind":"e","index":0}]', "group[0].param:"),
    ('[{"kind":"f","index":0,"param":"1"},{"kind":"torus","coweight":[1,0]}]',
     "group[1].param:"),
    ('[{"kind":"torus","coweight":[1,0],"param":"0"}]', "group[0].param:"),
    ('[{"kind":"root","indices":[],"param":"1"}]', "group[0].indices:"),
    ('[{"kind":"root","param":"1"}]', "group[0].indices:"),
])
def test_km_theta_names_the_bad_param_or_indices(capsys, group, field):
    code, _, err = run(capsys, *A2_THETA, group)
    assert code == 1
    assert err.startswith(f"error: {field}") and "Traceback" not in err


# arbitrary JSON, and lists of near-integers, for the integer fields of km-*
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
NEAR_INTS = st.lists(
    st.integers(-2, 3) | st.floats(-2, 3) | st.booleans() | st.sampled_from(["1", "x"]),
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_km_integer_fields_fuzz(data):
    """Any JSON in --matrix, --weight, --k and --vector ends in exit 0, 1 or 2."""
    matrix = data.draw(st.sampled_from([[[2]], [[2, -1], [-1, 2]], [[2, -2], [-2, 2]]]))
    # one draw in three is well-formed, so that the later checks are reached too
    field = st.lists(st.integers(-1, 3), min_size=len(matrix), max_size=len(matrix))
    field = field | JSON | NEAR_INTS
    rows = st.lists(NEAR_INTS, min_size=len(matrix), max_size=len(matrix))
    entries = data.draw(st.just(matrix) | rows | JSON)
    command = data.draw(st.sampled_from(["km-build", "km-mult", "km-cone"]))
    # the --name=value form keeps argparse from reading -Infinity as an option
    argv = [command, "--matrix", json.dumps({"matrix": entries})]
    argv.append("--weight=" + json.dumps(data.draw(field)))
    if command == "km-mult":
        argv.append("--k=" + json.dumps(data.draw(field)))
    else:
        argv.append(f"--depth={data.draw(st.integers(0, 3))}")
    if command == "km-cone":
        coords = st.lists(st.sampled_from(["1", "-1/2"]), max_size=2) | JSON
        entry = st.fixed_dictionaries({"depth": field, "coords": coords}) | JSON
        argv.append("--vector=" + json.dumps(data.draw(st.lists(entry, max_size=2) | JSON)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) in (0, 1, 2)


NOT_NILPOTENT = (
    '{"dim":2,"letters":[{"name":"e1","kind":"locally-nilpotent",'
    '"matrix":[["1","0"],["0","0"]]}]}'
)
NOT_NILPOTENT_MC = (
    '{"kind":"matrix-coefficient","rep":' + NOT_NILPOTENT
    + ',"phi":["1","0"],"v":["1","0"]}'
)


@pytest.mark.parametrize("argv, field", [
    (["taylor", "--functional", NOT_NILPOTENT_MC, "--tuple", "e1"], "functional.rep:"),
    (["eval", "--functional", NOT_NILPOTENT_MC, "--x", "e1"], "functional.rep:"),
    (
        ["phi-map", "--rep", NOT_NILPOTENT, "--phi", '["1","0"]', "--vector", '["1","0"]'],
        "rep:",
    ),
])
def test_non_integrable_rep_rejected(capsys, argv, field):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith(f"error: {field}") and "not nilpotent" in err


REP_1 = '{"dim":1,"letters":[{"name":"a"}]'


@pytest.mark.parametrize("argv, field", [
    (["eval", "--functional", '{"kind":"finite","terms":["x"]}', "--x", "e1", "--letters", "e1"],
     "functional.terms[0]:"),
    (["eval", "--functional", '{"kind":"finite","terms":5}', "--x", "e1", "--letters", "e1"],
     "functional.terms:"),
    (["xi-map", "--functional", '{"kind":"finite","terms":[{"coeff":"1"}]}', "--letters", "a"],
     "functional.terms[0]:"),
    (["taylor", "--functional", "phi:a.b", "--tuple", "a,c", "--letters", "a,b"], "tuple:"),
    (["phi-map", "--rep", '{"dim":2.7,"letters":[{"name":"a"}]}', "--phi", '["1","0"]',
      "--vector", '["1","0"]'], "rep.dim:"),
    (["phi-map", "--rep", '{"dim":true,"letters":[{"name":"a"}]}', "--phi", '["1"]',
      "--vector", '["1"]'], "rep.dim:"),
    (["phi-map", "--rep", REP_1 + ',"labels":5}', "--phi", '["1"]', "--vector", '["1"]'],
     "rep.labels:"),
    (["phi-map", "--rep", REP_1 + ',"labels":[1]}', "--phi", '["1"]', "--vector", '["1"]'],
     "rep.labels:"),
    (["phi-map", "--rep", REP_1 + ',"labels":["x","y"]}', "--phi", '["1"]', "--vector", '["1"]'],
     "rep.labels:"),
    (["membership", "--functional", "phi:e1.e2", "--bound", "-1"], "bound:"),
])
def test_malformed_field_named(capsys, argv, field):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith(f"error: {field}") and "Traceback" not in err


@pytest.mark.parametrize("letters, why", [("a,a", "duplicate letter names"),
                                          (",", "alphabet must be nonempty")])
def test_bad_letters_name_the_field(capsys, letters, why):
    code, out, err = run(capsys, "shuffle", "--w1", "a", "--w2", "a", "--letters", letters)
    assert (code, out) == (1, "")
    assert err == f"error: letters: {why}\n"


SUITE_TIME = re.compile(r" \(\d+\.\d\d s\)")


def test_check_single_suite_deterministic(capsys):
    code, out1, _ = run(capsys, "check", "--suite", "hopf-axioms", "--seed", "3")
    assert code == 0
    code, out2, _ = run(capsys, "check", "--suite", "hopf-axioms", "--seed", "3")
    # everything but the wall times repeats
    assert SUITE_TIME.sub("", out1) == SUITE_TIME.sub("", out2)
    assert "[PASS] hopf-axioms" in out1


def test_check_lines_carry_suite_seconds(capsys):
    code, out, _ = run(capsys, "check", "--suite", "z-monoid", "--seed", "1")
    assert code == 0
    line, summary = out.splitlines()
    assert re.fullmatch(r"\[PASS\] z-monoid \(\d+\.\d\d s\): \S.*", line)
    assert summary == "1/1 suites passed (seed 1)"


def test_parser_is_built_once_and_reused_after_an_error(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(capsys, "shuffle", "--w1", "e1", "--w2", "e2")
    assert code == 0
    first = json.loads(out)
    with pytest.raises(SystemExit) as exc:  # argparse: unknown option
        cli.main(["shuffle", "--w1", "e1", "--w2", "e2", "--w3", "e1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --w3" in capsys.readouterr().err
    code, out, _ = run(capsys, "mul", "--x", "e1", "--y", "e2")
    assert code == 0
    assert json.loads(out)["terms"] == [{"word": "e1.e2", "coeff": "1"}]
    code, out, _ = run(capsys, "shuffle", "--w1", "e1", "--w2", "e2")
    assert code == 0 and json.loads(out) == first


@pytest.mark.parametrize("k, code, out_or_err", [
    # the walk reflects (0,9) past Lambda: 0, with no space reduced
    ("[0,9]", 0, [0, 0]),
    # (5,3) reflects to the dominant (1,1), which the walk leaves open
    ("[5,3]", 2, "error: operation requires truncation depth 8, the depth cap is 4; "
                 "raise it with LIEREG_DEPTH_CAP\n"),
])
def test_km_mult_answers_a_zero_weight_past_the_depth_cap(
        capsys, monkeypatch, k, code, out_or_err):
    monkeypatch.setenv("LIEREG_DEPTH_CAP", "4")
    got, out, err = run(capsys, "km-mult", "--matrix", AFFINE_A1, "--weight", "[1,0]",
                        "--k", k, "--oracle")
    assert got == code, err
    if code:
        assert (out, err) == ("", out_or_err)
    else:
        data = json.loads(out)
        assert [data["multiplicity"], data["freudenthal"]] == out_or_err


ROUTED = [
    # every subcommand's valid form
    ["shuffle", "--w1", "e1", "--w2", "e2"],
    ["mul", "--x", "e1", "--y", "e2", "--letters", "e1,e2"],
    ["coproduct", "--x", "e1.e2"],
    ["antipode", "--x", "e1.e2"],
    ["act", "--rep", '{"dim":2,"letters":[{"name":"e","matrix":[[0,0],[1,0]]}]}',
     "--vector", "[1,0]", "--x", "e"],
    ["eval", "--functional", "phi:e1.e2", "--x", "e1.e2"],
    ["taylor", "--functional", "phi:e1", "--tuple", "e1"],
    ["phi-map", "--rep", '{"dim":2,"letters":[{"name":"e","matrix":[[0,0],[1,0]]}]}',
     "--phi", "[0,1]", "--vector", "[1,0]"],
    ["xi-map", "--functional", "phi:e1.e2"],
    ["witness", "--x", "e1.e2"],
    ["membership", "--functional", "phi:e1.e2", "--bound", "2"],
    ["km-build", "--matrix", '{"matrix":[[2]]}', "--weight", "[2]", "--depth", "3"],
    ["km-mult", "--matrix", AFFINE_A1, "--weight", "[1,0]", "--k", "[2,2]", "--oracle"],
    ["km-theta", "--matrix", '{"matrix":[[2]]}', "--weight", "[2]", "--depth", "2",
     "--group", '[{"kind":"e","index":0,"param":"1"},{"kind":"f","index":0,"param":"1"}]'],
    ["km-cone", "--matrix", '{"matrix":[[2]]}', "--weight", "[1]", "--depth", "1",
     "--vector", '[{"depth":[0],"coords":["1"]}]'],
    ["check", "--suite", "z-monoid", "--seed", "1"],
    # help, and what the top-level parser refuses
    [], ["-h"], ["km-mult", "-h"], ["nope"], ["nope", "--matrix", "x"],
    # what a subcommand's parser refuses or leaves over
    ["km-mult", "--matrix", '{"matrix":[[2]]}'],
    ["km-mult", "--matrix", '{"matrix":[[2]]}', "--weight", "[1]", "--k", "[1]", "--bogus", "x"],
    ["shuffle", "--w1", "e1", "--w2", "e2", "stray"],
    ["km-build", "--matrix", '{"matrix":[[2]]}', "--weight", "[1]", "--depth", "one"],
    # an abbreviated option and the --opt=value form
    ["km-mult", "--mat", '{"matrix":[[2]]}', "--weight", "[1]", "--k", "[1]"],
    ["km-mult", '--matrix={"matrix":[[2]]}', "--weight=[1]", "--k=[1]", "--oracle"],
]


@pytest.mark.parametrize(
    "argv", ROUTED, ids=[f"{i}-{argv[0] if argv else 'none'}" for i, argv in enumerate(ROUTED)]
)
def test_main_routes_as_the_top_level_parser_does(capsys, argv):
    """main hands a subcommand's arguments straight to its parser; the exit
    code, stdout, stderr and the Namespace the command runs with are those of
    the full top-level parse."""
    parser = cli.build_parser()
    seen = []
    originals = {name: p.get_default("fn") for name, p in parser.commands.items()}

    def outcome(call):
        seen.clear()
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, SUITE_TIME.sub("", out.out), out.err, list(seen)

    def full_path():
        args = parser.parse_args(argv)
        return args.fn(args)

    try:
        for name, p in parser.commands.items():
            def spy(args, fn=originals[name]):
                seen.append(args)
                return fn(args)
            p.set_defaults(fn=spy)
        routed, full = outcome(lambda: cli.main(list(argv))), outcome(full_path)
    finally:
        for name, p in parser.commands.items():
            p.set_defaults(fn=originals[name])
    assert routed == full
    assert routed[0] in (0, 2), routed
