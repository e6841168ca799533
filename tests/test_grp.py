import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liereg import duals, grp, linalg, reps, words
from liereg.duals import MatrixCoefficient
from liereg.grp import GroupWord, RegularFunction, exp_factor, torus_factor
from liereg.words import Alphabet, NcPoly
from test_reps import NIL_DIAG, ZERO, module_matrices, modules, ref_act_word, vectors


AB = Alphabet(("e1", "e2"))
MIXED = Alphabet(("e1", "d"), (words.NILPOTENT, words.DIAGONAL))


def test_factor_validation():
    with pytest.raises(ValueError):
        grp.OneParamFactor(0, "bogus", 1)
    with pytest.raises(ValueError):
        torus_factor(0, 0)
    assert exp_factor(0, 0).param == 0  # exp of zero is allowed (identity)


def test_group_word_reduction():
    g = GroupWord([exp_factor(0, 1), exp_factor(1, 2)])
    assert g.is_reduced()
    assert not GroupWord([]).is_reduced()
    assert not GroupWord([exp_factor(0, 1), exp_factor(0, 1)]).is_reduced()
    assert not GroupWord([exp_factor(0, 0)]).is_reduced()


def test_act_group_chain():
    rep = reps.make_chain(AB, (0, 1))
    b0 = rep.basis_vector(0)
    t1, t2 = Fraction(2), Fraction(3)
    g = GroupWord([exp_factor(1, t2), exp_factor(0, t1)])  # exp(t2 e2) exp(t1 e1)
    assert grp.act_group(rep, g, b0) == (Fraction(1), t1, t1 * t2)
    assert grp.act_group(rep, GroupWord([]), b0) == b0


def test_act_group_torus():
    rep = reps.RepSpec(MIXED, 1, {1: [[2]]})
    out = grp.act_group(rep, GroupWord([torus_factor(1, 3)]), (Fraction(1),))
    assert out == (Fraction(9),)


def test_one_parameter_homomorphism():
    rep = reps.make_VNJ(AB, 3, (0,))
    v = tuple(Fraction(1) for _ in range(rep.dim))
    s, t = Fraction(1, 2), Fraction(2, 3)
    lhs = grp.act_group(rep, GroupWord([exp_factor(0, s + t)]), v)
    rhs = grp.act_group(
        rep, GroupWord([exp_factor(0, s), exp_factor(0, t)]), v
    )
    assert lhs == rhs


def test_eval_regular_chain_theta():
    rep = reps.make_chain(AB, (0, 1))
    f = RegularFunction(rep, (0, 0, 1), rep.basis_vector(0))
    g = GroupWord([exp_factor(1, 1), exp_factor(0, 1)])
    assert f(g) == 1
    assert f(GroupWord([])) == 0


def test_phi_xi_round_trip():
    rep = reps.make_cyclic_pair(AB, 0, 1)
    f = RegularFunction(rep, (1, 1), (1, 0))
    h = grp.phi_map(f)
    assert isinstance(h, MatrixCoefficient)
    f2 = grp.xi_map(h)
    for g in [
        GroupWord([exp_factor(0, 2)]),
        GroupWord([exp_factor(1, 3), exp_factor(0, Fraction(1, 2))]),
    ]:
        assert f2(g) == f(g)


def test_xi_on_finite_functional():
    f = grp.xi_map(duals.phi((0,)), AB)
    assert f(GroupWord([exp_factor(0, Fraction(5, 7))])) == Fraction(5, 7)
    one = grp.xi_map(duals.phi(()), AB)
    assert one(GroupWord([exp_factor(0, 3)])) == 1


def test_taylor_expand_examples():
    poly = grp.taylor_expand(duals.phi((0, 1)), (0, 1), AB)
    assert poly.coeffs == {(1, 1): Fraction(1)}
    const = grp.taylor_expand(duals.phi(()), (0,), AB)
    assert const.coeffs == {(0,): Fraction(1)}
    assert const(Fraction(9)) == 1


def test_taylor_matches_group_evaluation():
    rep = reps.make_cyclic_pair(AB, 0, 1)
    h = MatrixCoefficient(rep, (1, 1), (1, 0))
    letters = (1, 0, 1)
    poly = grp.taylor_expand(h, letters)
    f = grp.xi_map(h)
    for t1, t2, t3 in [(1, 2, 3), (Fraction(1, 2), -1, Fraction(2, 5)), (0, 4, -2)]:
        g = GroupWord(
            [exp_factor(letters[0], t1), exp_factor(letters[1], t2), exp_factor(letters[2], t3)]
        )
        assert poly(t1, t2, t3) == f(g)


def test_taylor_rejects_diagonalizable():
    rep = reps.RepSpec(MIXED, 1, {1: [[2]]})
    h = MatrixCoefficient(rep, (1,), (1,))
    with pytest.raises(ValueError):
        grp.taylor_expand(h, (1,))


def test_f_w_examples():
    a, b = Fraction(2), Fraction(5)
    g = GroupWord([exp_factor(0, a), exp_factor(1, b)])
    assert grp.f_w((0, 1), g) == a * b
    assert grp.f_w((), g) == 1
    assert grp.f_w((0, 0), GroupWord([exp_factor(0, a)])) == a * a / 2
    assert grp.f_w((1, 0), g) == 0  # e2 cannot precede e1 in this factorization
    with pytest.raises(ValueError):
        grp.f_w((0,), GroupWord([torus_factor(0, 2)]))


def test_f_w_multiplicativity_via_shuffles():
    g = GroupWord([exp_factor(0, 3), exp_factor(1, Fraction(1, 2)), exp_factor(0, -2)])
    w1, w2 = (0, 1), (0,)
    lhs = grp.f_w(w1, g) * grp.f_w(w2, g)
    rhs = sum(
        (Fraction(mult) * grp.f_w(w, g) for w, mult in words.shuffles(w1, w2).items()),
        Fraction(0),
    )
    assert lhs == rhs


def test_derivations():
    rep = reps.make_chain(AB, (0, 1))
    f = RegularFunction(rep, (0, 0, 1), rep.basis_vector(0))
    df = grp.derive_right(0, f)  # v-slot becomes b1
    assert df(GroupWord([exp_factor(1, 1)])) == 1
    zero_letter_rep = reps.RepSpec(AB, 2, {0: [[0, 1], [0, 0]]})
    f2 = RegularFunction(zero_letter_rep, (1, 0), (0, 1))
    assert grp.derive_right(1, f2)(GroupWord([exp_factor(0, 1)])) == 0
    dlf = grp.derive_left(0, f)
    # phi-slot pairing: (phi e1)(exp(e2) b0)
    assert dlf(GroupWord([exp_factor(1, 1)])) == 0


def test_derive_right_builds_no_fraction(monkeypatch):
    """e |> f moves v's stored pair by RepSpec.image: no Fraction is made, and
    its values are those of e acting on v in Fractions, for both kinds."""
    rep = reps.RepSpec(MIXED, 3, {0: [[0, Fraction(1, 2), 0], [0, 0, -3], [0, 0, 0]],
                                  1: [[2, 0, 0], [0, -1, 0], [0, 0, 0]]})
    f = RegularFunction(rep, (Fraction(1, 3), 2, 0), (Fraction(3, 4), Fraction(-1, 5), 7))

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    moved = [grp.derive_right(e, f) for e in (0, 1)]
    monkeypatch.undo()
    assert [(d.phi, d.v) for d in moved] == [(f.phi, ref_act_word(rep, (e,), f.v)) for e in (0, 1)]


def test_derivation_leibniz_instance():
    rep = reps.make_cyclic_pair(AB, 0, 1)
    f1 = RegularFunction(rep, (1, 0), (0, 1))
    f2 = RegularFunction(rep, (1, 1), (1, 0))
    h1, h2 = grp.phi_map(f1), grp.phi_map(f2)
    prod = duals.product(h1, h2)
    e = 1
    lhs = duals.right_translate(NcPoly.letter(e), prod)
    rhs_a = duals.product(duals.right_translate(NcPoly.letter(e), h1), h2)
    rhs_b = duals.product(h1, duals.right_translate(NcPoly.letter(e), h2))
    for n in range(4):
        for w in itertools.product((0, 1), repeat=n):
            assert lhs.evaluate_word(w) == rhs_a.evaluate_word(w) + rhs_b.evaluate_word(w)


def test_faithfulness_witness_examples():
    x = NcPoly({(0, 1): 1, (1, 0): -1})
    rep, v0, moved = grp.faithfulness_witness(x, AB)
    nonzero = [c for c in moved if c != 0]
    assert sorted(nonzero) == [-1, 1]
    rep2, v02, moved2 = grp.faithfulness_witness(NcPoly.one(), AB)
    assert moved2 == v02
    rep3, _v, moved3 = grp.faithfulness_witness(NcPoly({(0,): 3}), AB)
    assert moved3[rep3.labels.index((0,))] == 3
    with pytest.raises(ValueError):
        grp.faithfulness_witness(NcPoly.zero(), AB)


def test_group_faithfulness_witness():
    g = GroupWord([exp_factor(1, 2), exp_factor(0, 3)])
    rep, v0, moved = grp.group_faithfulness_witness(g, AB)
    assert moved[-1] == 6
    g2 = GroupWord([exp_factor(0, 5), exp_factor(1, 7), exp_factor(0, 11)])
    _rep, _v0, moved2 = grp.group_faithfulness_witness(g2, AB)
    assert moved2[-1] == 385
    with pytest.raises(ValueError):
        grp.group_faithfulness_witness(GroupWord([exp_factor(0, 0)]), AB)


# ---------------------------------------------------------------------------
# Group actions and developments run on integer vectors over one
# denominator; these compare them with the textbook Fraction formulas on the
# modules of test_reps (sparse and dense e1, e2; d with eigenvalues of both
# signs).

ACTION = settings(max_examples=40, deadline=None)
PARAMS = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))


def ref_act_group(rep, g, v):
    """exp(t M) v = sum_k t^k M^k v / k! summed until a term is zero; s^d v
    scales the entry of eigenvalue n by s^n."""
    v = [Fraction(x) for x in v]
    for f in reversed(g):
        if f.kind == words.NILPOTENT:
            out, term, k = list(v), v, 0
            while any(term):
                k += 1
                term = [f.param / k * x for x in ref_act_word(rep, (f.letter,), term)]
                out = [a + b for a, b in zip(out, term)]
            v = out
        else:
            diag = rep.matrices[f.letter]
            v = [x * f.param ** int(diag[i][i]) for i, x in enumerate(v)]
    return tuple(v)


@st.composite
def full_index_modules(draw):
    """A module of test_reps whose e1 is dense strictly upper triangular in a
    permuted basis, every entry nonzero: its nilpotency index is the
    dimension, so exp(t e1) runs the longest series, m = dim - 1."""
    dim, mats = draw(module_matrices())
    perm = draw(st.permutations(range(dim)))
    nonzero = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    m = [[ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            m[perm[i]][perm[j]] = draw(nonzero)
    mats[0] = m
    return reps.RepSpec(NIL_DIAG, dim, mats)


ACTION_MODULES = st.one_of(modules(), full_index_modules())


@st.composite
def group_words(draw):
    factor = st.one_of(
        st.builds(exp_factor, st.integers(0, 1), PARAMS),
        st.builds(torus_factor, st.just(2), PARAMS.filter(bool)),
    )
    return GroupWord(draw(st.lists(factor, max_size=5)))


@ACTION
@given(st.data())
def test_act_group_matches_reference(data):
    rep = data.draw(ACTION_MODULES)
    v = data.draw(vectors(rep.dim))
    g = data.draw(group_words())
    out = grp.act_group(rep, g, v)
    assert out == ref_act_group(rep, g, v)
    assert all(type(x) is Fraction for x in out)
    phi = data.draw(vectors(rep.dim))
    f = RegularFunction(rep, phi, v)
    expected = sum((Fraction(a) * b for a, b in zip(phi, ref_act_group(rep, g, v))), ZERO)
    value = grp.eval_regular(f, g)
    assert value == f(g) == expected and type(value) is Fraction
    assert f.phi == tuple(map(Fraction, phi)) and f.v == tuple(map(Fraction, v))
    assert grp.xi_map(grp.phi_map(f))(g) == expected


def ref_expansion(rep, phi, v, letters):
    """phi(y_1 ... y_p v) over every index tuple: e^k / k! on a nilpotent
    letter, the projection onto the eigenvalue n on a diagonal one."""
    out = {}

    def walk(u, i, ks):  # u = y_(i+1) ... y_p v
        if not any(u):
            return
        if i == 0:
            out[ks] = sum((a * b for a, b in zip(phi, u)), ZERO)
            return
        e = letters[i - 1]
        if rep.kind(e) == words.NILPOTENT:
            k = 0
            while any(u):
                walk(u, i - 1, (k,) + ks)
                k += 1
                u = [x / k for x in ref_act_word(rep, (e,), u)]
        else:
            for n in reps.eigenvalues(rep, e):
                walk([x if rep.matrices[e][j][j] == n else ZERO for j, x in enumerate(u)],
                     i - 1, (n,) + ks)

    walk([Fraction(x) for x in v], len(letters), ())
    return {ks: c for ks, c in out.items() if c}


@ACTION
@given(st.data())
def test_taylor_expand_matches_reference(data):
    rep = data.draw(ACTION_MODULES)
    phi, v = data.draw(vectors(rep.dim)), data.draw(vectors(rep.dim))
    h = MatrixCoefficient(rep, phi, v)
    nilpotent = data.draw(st.lists(st.integers(0, 1), max_size=3).map(tuple))
    assert grp.taylor_expand(h, nilpotent).coeffs == ref_expansion(rep, phi, v, nilpotent)
    mixed = data.draw(st.lists(st.integers(0, 2), max_size=3).map(tuple))
    assert duals.expand_rho(h, mixed).coeffs == ref_expansion(rep, phi, v, mixed)


class CountingFraction(Fraction):
    """A Fraction that counts the sums and products it takes part in."""

    ops = 0

    def _count(name):
        def op(self, other):
            CountingFraction.ops += 1
            return getattr(Fraction, name)(self, other)
        return op

    __mul__, __rmul__ = _count("__mul__"), _count("__rmul__")
    __add__, __radd__ = _count("__add__"), _count("__radd__")
    del _count


def test_actions_run_without_fraction_arithmetic():
    rep = reps.RepSpec(NIL_DIAG, 4, {
        0: [[0, CountingFraction(2, 3), 0, 0], [0, 0, CountingFraction(-1, 2), 0],
            [0, 0, 0, 5], [0, 0, 0, 0]],
        1: [[0, 0, 0, CountingFraction(7, 4)], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        2: [[2, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -3]],
    })
    v = tuple(CountingFraction(i - 2, i + 1) for i in range(4))
    g = GroupWord([
        exp_factor(0, CountingFraction(-3, 2)),
        torus_factor(2, CountingFraction(-2, 5)),
        exp_factor(1, CountingFraction(4, 3)),
    ])
    # adjacent repeats: an exp pair that cancels, a torus pair and an exp pair that fold
    repeats = GroupWord([
        exp_factor(1, CountingFraction(5, 2)),
        exp_factor(0, CountingFraction(1, 3)),
        exp_factor(0, CountingFraction(-1, 3)),
        exp_factor(1, CountingFraction(-2, 7)),
        torus_factor(2, CountingFraction(-2, 5)),
        torus_factor(2, CountingFraction(3, 4)),
    ])
    h = MatrixCoefficient(rep, v, v)
    f = RegularFunction(rep, v, v)
    x = NcPoly({(0, 1): CountingFraction(1, 2), (1,): CountingFraction(-3)})
    CountingFraction.ops = 0
    grp.act_group(rep, g, v)
    f(g)
    grp.act_group(rep, repeats, v)
    f(repeats)
    reps.act_word(rep, (0, 1, 0), v)
    reps.act_poly(rep, x, v)
    h.evaluate_word((1, 0))
    assert CountingFraction.ops == 0


def test_group_actions_reject_a_vector_of_the_wrong_length():
    rep = reps.make_chain(AB, (0, 1))
    g = GroupWord([exp_factor(0, 2)])
    for v in [(1, 0), (1, 0, 0, 0), ()]:
        with pytest.raises(reps.RepError, match="^vector: has length"):
            grp.act_group(rep, g, v)
        with pytest.raises(reps.RepError, match="^vector: has length"):
            grp.act_group(rep, GroupWord([]), v)
        with pytest.raises(reps.RepError, match="^vector: has length"):
            RegularFunction(rep, (0, 0, 1), v)
        with pytest.raises(reps.RepError, match="^phi: has length"):
            RegularFunction(rep, v, (1, 0, 0))


def test_exp_of_a_letter_that_is_not_nilpotent_is_refused():
    # the module is not validated, so the letter's matrix may be invertible;
    # exp of it is refused alone, folded, and next to a pair that cancels
    rep = reps.RepSpec(AB, 2, {0: [[1, 0], [0, 1]]})
    for g in [GroupWord([exp_factor(0, 1)]),
              GroupWord([exp_factor(0, Fraction(1, 2)), exp_factor(0, Fraction(1, 2))]),
              GroupWord([exp_factor(0, 3), exp_factor(1, 5), exp_factor(1, -5)])]:
        with pytest.raises(reps.RepError, match="not nilpotent"):
            grp.act_group(rep, g, (1, 0))
    with pytest.raises(reps.RepError, match="not nilpotent"):
        grp.taylor_expand(MatrixCoefficient(rep, (1, 0), (1, 0)), (0,))
    # every factor's kind is checked before the word is folded: a pair that
    # cancels, or multiplies to 1, is refused on a letter of the other kind
    mixed = reps.RepSpec(MIXED, 2, {0: [[0, 1], [0, 0]], 1: [[2, 0], [0, -1]]})
    for module, g in [(rep, GroupWord([torus_factor(0, 2)])),
                      (mixed, GroupWord([exp_factor(1, 2), exp_factor(1, -2)])),
                      (mixed, GroupWord([torus_factor(0, 3), torus_factor(0, Fraction(1, 3))])),
                      (mixed, GroupWord([exp_factor(0, 1), exp_factor(1, 0)]))]:
        with pytest.raises(reps.RepError, match="does not match"):
            grp.act_group(module, g, (1, 0))


# ---------------------------------------------------------------------------
# A word acts through its reduced form: adjacent factors on one letter fold
# (exp parameters add, torus parameters multiply) and identities drop out.


@st.composite
def words_with_repeats(draw):
    """Group words over e1, e2 (exp) and d (torus) built from runs: a single
    factor, two factors on one letter, or a cancelling pair (s, -s) or
    (s, 1/s); neighbouring runs may share their letter too."""
    factors = []
    for _ in range(draw(st.integers(0, 4))):
        e = draw(st.integers(0, 2))
        make, params = (exp_factor, PARAMS) if e < 2 else (torus_factor, PARAMS.filter(bool))
        s = draw(params)
        run = draw(st.sampled_from(("single", "pair", "cancel")))
        if run == "single":
            factors.append(make(e, s))
        elif run == "pair":
            factors += [make(e, s), make(e, draw(params))]
        elif e < 2:
            factors += [make(e, s), make(e, -s)]
        else:
            factors += [make(e, s), make(e, 1 / s)]
    return GroupWord(factors)


@ACTION
@given(st.data())
def test_words_with_adjacent_repeats_match_reference(data):
    rep = data.draw(ACTION_MODULES)
    v = data.draw(vectors(rep.dim))
    g = data.draw(words_with_repeats())
    expected = ref_act_group(rep, g, v)
    out = grp.act_group(rep, g, v)
    assert out == expected and all(type(x) is Fraction for x in out)
    phi = data.draw(vectors(rep.dim))
    value = grp.eval_regular(RegularFunction(rep, phi, v), g)
    assert value == sum((Fraction(a) * b for a, b in zip(phi, expected)), ZERO)
    assert type(value) is Fraction


def _count_images(call, method="image"):
    """(result, number of Operator.image calls, or calls of the Operator
    method named, made by call())."""
    real = getattr(linalg.Operator, method)
    count = 0

    def counted(self, ints):
        nonlocal count
        count += 1
        return real(self, ints)

    with mock.patch.object(linalg.Operator, method, counted):
        return call(), count


def test_a_word_costs_the_images_of_its_reduced_form():
    rep = reps.make_VNJ(AB, 3, (0, 1))
    v = tuple(Fraction(i + 1, 2) for i in range(rep.dim))
    half, third = Fraction(1, 2), Fraction(2, 3)
    # the e2 pair cancels, so the three e1 factors meet: 1/2 + 2/3 - 1 = 1/6
    g = GroupWord([exp_factor(0, half), exp_factor(0, third), exp_factor(1, 3),
                   exp_factor(1, -3), exp_factor(0, -1), exp_factor(1, 2), exp_factor(1, 0)])
    reduced = GroupWord([exp_factor(0, Fraction(1, 6)), exp_factor(1, 2)])
    out, count = _count_images(lambda: grp.act_group(rep, g, v))
    out_reduced, count_reduced = _count_images(lambda: grp.act_group(rep, reduced, v))
    assert out == out_reduced == ref_act_group(rep, g, v)
    assert count == count_reduced
    factor_by_factor = sum(_count_images(lambda f=f: grp.act_group(rep, GroupWord([f]), v))[1]
                           for f in g)
    assert count < factor_by_factor
    f = RegularFunction(rep, v, v)
    assert _count_images(lambda: f(g)) == _count_images(lambda: f(reduced))
    # a word that reduces to nothing makes no image
    identity = GroupWord([exp_factor(1, 2), exp_factor(0, 0), exp_factor(1, -2)])
    assert _count_images(lambda: grp.act_group(rep, identity, v)) == (v, 0)
    # nor reads an eigenvalue, when torus factors multiply to 1
    rep = reps.RepSpec(NIL_DIAG, 2, {0: [[0, 1], [0, 0]], 2: [[2, 0], [0, -1]]})
    identity = GroupWord([torus_factor(2, Fraction(-2, 3)), torus_factor(2, Fraction(-3, 2))])
    with mock.patch.object(linalg.Operator, "diagonal", side_effect=AssertionError):
        assert grp.act_group(rep, identity, (1, 2)) == (1, 2)


# ---------------------------------------------------------------------------
# A word action stops at the letter that makes the vector zero.

CHAIN = reps.make_chain(AB, (0, 1))  # e1 b0 = b1, e2 b1 = b2
KILLING = (1, 0, 1, 0, 1, 0)  # from b0: e1 gives b1, e2 gives b2, e1 gives 0


def test_a_word_action_stops_at_zero():
    b0 = [1, 0, 0]
    (d, u), count = _count_images(lambda: CHAIN.image(KILLING, b0))
    assert count == 3 and d == 1 and u == [0, 0, 0]
    assert _count_images(lambda: CHAIN.image((1, 0), b0)) == ((1, [0, 0, 1]), 2)
    b0 = CHAIN.basis_vector(0)
    assert reps.act_word(CHAIN, KILLING, b0) == ref_act_word(CHAIN, KILLING, b0) == (ZERO,) * 3
    x = NcPoly({KILLING: Fraction(3, 2), (1, 0): Fraction(-2, 5), (0, 0): 7})
    assert reps.act_poly(CHAIN, x, b0) == (ZERO, ZERO, Fraction(-2, 5))


def test_a_pull_back_stops_at_a_zero_covector():
    # phi M_e2 = (0, 1, 0) and phi M_e2 M_e2 = 0: the last four letters are not read
    h = MatrixCoefficient(CHAIN, (1, 1, 1), (Fraction(1, 2), 3, 0))
    w = (1, 1, 0, 1, 0, 1)
    (d, p), count = _count_images(lambda: CHAIN.pull_back(w, [1, 1, 1]), "pull_back")
    assert count == 2 and p == [0, 0, 0]
    left, count = _count_images(lambda: duals.left_translate(w, h), "pull_back")
    assert count == 2 and left.phi == (ZERO,) * 3 and left.v == h.v
    assert all(left.evaluate_word(y) == h.evaluate_word(w + y) == 0
               for y in [(), (0,), (1, 0)])
    x = NcPoly({w: 2, (1,): Fraction(1, 3), (): -1})
    assert duals.left_translate(x, h).phi == (-1, Fraction(-2, 3), -1)
    # a letter past the stop is still checked against the alphabet
    with pytest.raises(reps.RepError, match="^letter 7 is not in the alphabet"):
        CHAIN.pull_back(w + (7,), [1, 1, 1])


def _count_fractions(monkeypatch, call):
    """(result, number of Fraction.__new__ calls made by call())."""
    new = Fraction.__new__
    count = 0

    def counted(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    out = call()
    monkeypatch.undo()
    return out, count


def test_the_witnesses_build_only_their_output_fractions(monkeypatch):
    """One Fraction per nonzero entry of moved, and v0's one 1."""
    g = GroupWord([exp_factor(0, Fraction(-2, 3)), exp_factor(1, 5), exp_factor(0, Fraction(1, 4))])
    x = NcPoly({(0, 1): Fraction(3, 2), (1,): -4, (1, 1): 1})
    for call in [lambda: grp.group_faithfulness_witness(g, AB),
                 lambda: grp.faithfulness_witness(x, AB)]:
        (rep, v0, moved), count = _count_fractions(monkeypatch, call)
        assert v0 == rep.basis_vector(0)
        assert count == 1 + sum(1 for c in moved if c)
    assert moved[rep.labels.index((0, 1))] == Fraction(3, 2)
    assert _count_fractions(monkeypatch, lambda: CHAIN.basis_vector(1)) == ((0, 1, 0), 1)


def test_a_zero_pairing_builds_no_fraction(monkeypatch):
    h = MatrixCoefficient(CHAIN, (1, 2, 3), (Fraction(1, 2), 0, 0))
    f = RegularFunction(CHAIN, (0, 1, 0), (1, 0, 0))
    # exp(e2) exp(e1) b0 = b0 + b1 + b2, which (0, 1, -1) pairs to 0
    g = GroupWord([exp_factor(1, 1), exp_factor(0, 1)])
    f_zero = RegularFunction(CHAIN, (0, 1, -1), (1, 0, 0))
    g_fixed = GroupWord([exp_factor(1, 4)])  # exp(4 e2) b0 = b0

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    values = [h.evaluate_word(KILLING), h.evaluate_word((1,)), f(g_fixed), f_zero(g)]
    monkeypatch.undo()
    assert values == [0, 0, 0, 0] and all(type(x) is Fraction for x in values)
    assert h.evaluate_word((0,)) == 1 and f(g) == 1


def test_translates_are_unchanged_on_words_that_kill_the_vector():
    phi, v = (1, Fraction(-1, 3), 2), (Fraction(3, 4), 5, -1)
    h = MatrixCoefficient(CHAIN, phi, v)
    x = NcPoly({KILLING: 2, (0,): Fraction(1, 3), (1, 1): -1, (): Fraction(-1, 2)})
    moved = duals.right_translate(x, h)
    for n in range(4):
        for y in itertools.product((0, 1), repeat=n):
            expected = sum(
                (c * sum((Fraction(a) * b for a, b in zip(phi, ref_act_word(CHAIN, y + u, v))),
                         ZERO) for u, c in x.terms.items()),
                ZERO,
            )
            assert moved.evaluate_word(y) == expected == duals.evaluate(h, NcPoly.word(y) * x)
