import json

import pytest

from liereg import cli, jsonio, reps
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


def test_membership_subcommand(capsys):
    code, out, _ = run(
        capsys, "membership", "--functional", "phi:e1.e2", "--bound", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["closure-dimension"] == 3
    assert data["in-shuffle-span"] is True


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
    code, out, _ = run(
        capsys,
        "km-mult",
        "--matrix", '{"matrix":[[2,-2],[-2,2]]}',
        "--weight", "[1,0]",
        "--k", "[2,2]",
        "--oracle",
    )
    data = json.loads(out)
    assert data["gram-rank"] == data["freudenthal"]
    code, out, _ = run(
        capsys,
        "km-theta",
        "--matrix", '{"matrix":[[2]]}',
        "--weight", "[2]",
        "--depth", "2",
        "--group", '[{"kind":"e","index":0,"param":"1"},{"kind":"f","index":0,"param":"1"}]',
    )
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
    assert data["gram-rank"] == data["freudenthal"] == 1


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


@pytest.mark.parametrize("vector, field", [
    ('[{"depth":[1,0,0],"coords":["1"]}]', "vector[0].depth"),
    ('[{"depth":[1],"coords":["1"]}]', "vector[0].depth"),
    ('[["x"]]', "vector[0]:"),
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


def test_check_single_suite_deterministic(capsys):
    code, out1, _ = run(capsys, "check", "--suite", "hopf-axioms", "--seed", "3")
    assert code == 0
    code, out2, _ = run(capsys, "check", "--suite", "hopf-axioms", "--seed", "3")
    assert out1 == out2
    assert "[PASS] hopf-axioms" in out1
