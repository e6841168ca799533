import json
from fractions import Fraction

import pytest

from liereg import duals, grp, jsonio, reps
from liereg.jsonio import SchemaError
from liereg.words import Alphabet, NcPoly


AB = Alphabet(("e1", "e2"))


def test_fraction_round_trip():
    for x in [Fraction(0), Fraction(3), Fraction(-5, 7), Fraction(22, 4)]:
        assert jsonio.decode_fraction(jsonio.encode_fraction(x)) == x
    assert jsonio.encode_fraction(Fraction(3)) == "3"
    assert jsonio.encode_fraction(Fraction(-1, 2)) == "-1/2"
    with pytest.raises(SchemaError):
        jsonio.decode_fraction("1/0")
    with pytest.raises(SchemaError):
        jsonio.decode_fraction("abc")


def test_ncpoly_round_trip():
    p = NcPoly({(0, 1): Fraction(1, 2), (): -3})
    encoded = jsonio.encode_ncpoly(AB, p)
    assert jsonio.decode_ncpoly(AB, encoded) == p
    with pytest.raises(SchemaError):
        jsonio.decode_ncpoly(AB, [{"word": "zap", "coeff": "1"}])


def test_rep_round_trip():
    rep = reps.make_chain(AB, (0, 1))
    decoded = jsonio.decode_rep(jsonio.encode_rep(rep))
    assert decoded.dim == rep.dim
    assert decoded.matrices == rep.matrices
    assert decoded.alphabet == rep.alphabet
    with pytest.raises(SchemaError):
        jsonio.decode_rep({"dim": 2})


def test_tensor_rep_round_trip():
    # tensor labels are pairs of factor labels, nested for iterated products
    left = reps.tensor(reps.make_VNJ(AB, 1, (0, 1)), reps.make_chain(AB, (1,)))
    rep = reps.tensor(left, reps.make_VNJ(AB, 1, (1,)))
    obj = jsonio.encode_rep(rep)
    assert obj["labels"][:2] == ["((1 (x) b0) (x) 1)", "((1 (x) b0) (x) e2)"]
    assert len(set(obj["labels"])) == rep.dim
    decoded = jsonio.decode_rep(obj)
    assert decoded.matrices == rep.matrices
    assert jsonio.encode_rep(decoded) == obj


def test_functional_round_trip():
    h = duals.phi((0, 1)) + duals.phi(())
    obj = jsonio.encode_functional(h, AB)
    assert jsonio.decode_functional(obj, AB) == h
    rep = reps.make_cyclic_pair(AB, 0, 1)
    mc = duals.MatrixCoefficient(rep, (1, 1), (1, 0))
    obj2 = jsonio.encode_functional(mc)
    decoded = jsonio.decode_functional(obj2)
    for w in [(), (1,), (0, 1)]:
        assert decoded.evaluate_word(w) == mc.evaluate_word(w)
    with pytest.raises(SchemaError):
        jsonio.decode_functional({"kind": "mystery"})


def test_group_word_round_trip():
    g = grp.GroupWord([grp.exp_factor(0, Fraction(1, 3)), grp.exp_factor(1, -2)])
    obj = json.loads(
        '[{"letter": "e1", "kind": "exp", "param": "1/3"}, {"letter": "e2", "param": "-2"}]'
    )
    assert jsonio.decode_group_word(AB, obj) == g
    with pytest.raises(SchemaError):
        jsonio.decode_group_word(AB, [{"letter": "e9", "kind": "exp", "param": "1"}])
    with pytest.raises(SchemaError):
        jsonio.decode_group_word(AB, [{"letter": "e1", "kind": "torus", "param": "0"}])


def test_gcm_decoding():
    assert jsonio.decode_gcm_matrix({"matrix": [[2, -1], [-1, 2]]}) == [[2, -1], [-1, 2]]
    with pytest.raises(SchemaError):
        jsonio.decode_gcm_matrix({"matrix": [[2, "x"]]})
    with pytest.raises(SchemaError):
        jsonio.decode_gcm_matrix({})
