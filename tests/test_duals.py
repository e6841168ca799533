import itertools
import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liereg import duals, grp, linalg, reps, words
from liereg.duals import FiniteFunctional, MatrixCoefficient
from liereg.words import Alphabet, NcPoly


AB = Alphabet(("e1", "e2"))


def cyclic_functional():
    """The rep-backed functional with support on every alternating word."""
    rep = reps.make_cyclic_pair(AB, 0, 1)
    return MatrixCoefficient(rep, (Fraction(1), Fraction(1)), (Fraction(1), Fraction(0)))


def test_phi_delta_behaviour():
    h = duals.phi((0,))
    assert h.evaluate_word((0,)) == 1
    assert h.evaluate_word((1,)) == 0
    assert duals.phi((0, 1)).evaluate_word((0, 1)) == 1


def test_shuffle_product_examples():
    assert duals.shuffle_product(duals.phi((0,)), duals.phi((1,))) == FiniteFunctional(
        {(0, 1): 1, (1, 0): 1}
    )
    assert duals.shuffle_product(duals.phi((0,)), duals.phi((0,))) == FiniteFunctional(
        {(0, 0): 2}
    )
    h = FiniteFunctional({(0, 1): 3, (1,): -2})
    assert duals.shuffle_product(duals.phi(()), h) == h


def test_evaluate_infinite_support_functional():
    h = cyclic_functional()
    assert duals.evaluate(h, (0, 1)) == 1  # e1(e2 b1) = e1 b2 = b1
    assert duals.evaluate(h, (0,)) == 0  # e1 b1 = 0
    assert duals.evaluate(h, NcPoly.zero()) == 0
    assert duals.evaluate(h, ()) == 1


def test_right_translate_strips_suffix():
    assert duals.right_translate(NcPoly.letter(1), duals.phi((0, 1))) == duals.phi((0,))
    assert duals.right_translate(NcPoly.letter(0), duals.phi((0, 1))).is_zero()
    h = FiniteFunctional({(0, 1): 2})
    assert duals.right_translate(NcPoly.one(), h) == h


def test_left_translate_strips_prefix():
    assert duals.left_translate(NcPoly.letter(0), duals.phi((0, 1))) == duals.phi((1,))
    assert duals.left_translate(NcPoly.letter(1), duals.phi((0, 1))).is_zero()
    h = FiniteFunctional({(0, 1): 2})
    assert duals.left_translate(NcPoly.one(), h) == h


def test_translations_on_matrix_coefficient():
    h = cyclic_functional()
    # (e2 |> h)(w) = h(w.e2)
    moved = duals.right_translate(NcPoly.letter(1), h)
    assert moved.evaluate_word(()) == h.evaluate_word((1,))
    assert moved.evaluate_word((0,)) == h.evaluate_word((0, 1))
    lmoved = duals.left_translate(NcPoly.letter(0), h)
    assert lmoved.evaluate_word((1,)) == h.evaluate_word((0, 1))


def test_left_translate_matrix_coefficient_is_product_on_the_left():
    """(x <| h)(y) = h(x y), with x a combination of words of different orders."""
    rep = reps.make_VNJ(AB, 6, [0, 1])
    h = MatrixCoefficient(rep, range(1, rep.dim + 1), rep.basis_vector(rep.labels.index(())))
    x = NcPoly({(0, 1): 2, (1,): 1, (): -3})
    moved = duals.left_translate(x, h)
    for n in range(5):
        for y in itertools.product((0, 1), repeat=n):
            assert moved.evaluate_word(y) == duals.evaluate(h, x * NcPoly.word(y)), y


def test_term_maps_of_different_classes_differ():
    terms = {(0, 1): Fraction(1, 2), (): 3}
    assert NcPoly(terms) == NcPoly(terms)
    assert FiniteFunctional(terms) == FiniteFunctional(terms)
    assert NcPoly(terms) != FiniteFunctional(terms)
    assert FiniteFunctional(terms) != NcPoly(terms)


def test_translation_commutation_instance():
    h = cyclic_functional()
    x, y = NcPoly.word((0, 1)), NcPoly.word((1,))
    lhs = duals.right_translate(x, duals.left_translate(y, h))
    rhs = duals.left_translate(y, duals.right_translate(x, h))
    for n in range(5):
        for w in itertools.product((0, 1), repeat=n):
            assert lhs.evaluate_word(w) == rhs.evaluate_word(w)


def test_product_examples():
    p = duals.product(duals.phi((0,)), duals.phi((1,)))
    assert p.evaluate_word((0, 1)) == 1
    assert p.evaluate_word((1, 0)) == 1
    assert p.evaluate_word((0, 0)) == 0
    h = FiniteFunctional({(1, 0): 5})
    assert duals.product(h, duals.phi(())) == h


def test_product_mixed_finite_and_rep_backed():
    h1 = duals.phi((0,))
    h2 = cyclic_functional()
    prod = duals.product(h1, h2, AB)
    for n in range(5):
        for w in itertools.product((0, 1), repeat=n):
            expected = Fraction(0)
            for (l, r), c in words.coproduct(NcPoly.word(w)).terms.items():
                expected += c * h1.evaluate_word(l) * h2.evaluate_word(r)
            assert prod.evaluate_word(w) == expected


def test_realize_rep_backed_matches_finite():
    h = FiniteFunctional({(0, 1): 2, (1,): -1})
    mc = duals.realize_rep_backed(h, AB)
    for n in range(5):
        for w in itertools.product((0, 1), repeat=n):
            assert mc.evaluate_word(w) == h.evaluate_word(w)


def test_expand_rho_finite():
    exp = duals.expand_rho(duals.phi((0, 1)), (0, 1))
    assert exp.coeffs == {(1, 1): Fraction(1)}
    exp2 = duals.expand_rho(duals.phi(()), (0, 1, 0))
    assert exp2.coeffs == {(0, 0, 0): Fraction(1)}
    # factorial normalization: h(e1.e1) = 1 gives c_2 = 1/2
    exp3 = duals.expand_rho(duals.phi((0, 0)), (0,))
    assert exp3.coeffs == {(2,): Fraction(1, 2)}


def test_expand_rho_matrix_coefficient():
    h = cyclic_functional()
    exp = duals.expand_rho(h, (1,))
    assert exp.coeffs == {(0,): Fraction(1), (1,): Fraction(1)}


def test_expand_rho_diagonalizable():
    mixed = Alphabet(("e1", "d"), (words.NILPOTENT, words.DIAGONAL))
    rep = reps.RepSpec(mixed, 2, {1: [[1, 0], [0, -1]]})
    h = MatrixCoefficient(rep, (Fraction(2), Fraction(3)), (Fraction(1), Fraction(1)))
    exp = duals.expand_rho(h, (1,))
    assert exp.coeffs == {(-1,): Fraction(3), (1,): Fraction(2)}
    with pytest.raises(ValueError):
        duals.expand_rho(duals.phi((0,)), (1,), mixed)


def test_membership_ffr():
    ok, dim = duals.membership_ffr(duals.phi((0, 1)), AB)
    assert ok and dim == 3
    ok2, dim2 = duals.membership_ffr(cyclic_functional())
    assert ok2 and dim2 == 2
    ok3, dim3 = duals.membership_ffr(duals.phi(()), AB)
    assert ok3 and dim3 == 1


@pytest.mark.parametrize("call", [duals.realize_rep_backed, duals.membership_ffr],
                         ids=["realize", "membership"])
def test_a_letter_outside_the_alphabet_is_refused_by_name(call):
    with pytest.raises(ValueError, match=r"letter 1 .*not in the alphabet \(a\)"):
        call(duals.phi((0, 1)), Alphabet(("a",)))


CHAIN_AB = reps.make_chain(AB, (0, 1))  # e1 b0 = b1, e2 b1 = b2


def evaluate_past_a_zero_path(w):
    h = MatrixCoefficient(CHAIN_AB, (1, 1, 1), (1, 0, 0))
    assert h.evaluate_word((1, 1)) == 0  # phi M_e2 M_e2 = 0: the path ends at zero
    return h.evaluate_word(w)


# e2 kills b0, read first by an action; phi M_e2 M_e2 = 0, read first by a
# pull back: each word puts the bad letter before or after a killing letter
@pytest.mark.parametrize("w", [(7, 1), (1, 7), (7, 1, 1), (1, 1, 7)],
                         ids=lambda w: ".".join(map(str, w)))
@pytest.mark.parametrize("call", [
    lambda w: MatrixCoefficient(CHAIN_AB, (1, 1, 1), (1, 0, 0)).evaluate_word(w),
    evaluate_past_a_zero_path,
    lambda w: reps.act_word(CHAIN_AB, w, (1, 0, 0)),
    lambda w: duals.left_translate(w, MatrixCoefficient(CHAIN_AB, (1, 1, 1), (1, 0, 0))),
    lambda w: duals.right_translate(w, MatrixCoefficient(CHAIN_AB, (1, 1, 1), (1, 0, 0))),
], ids=["evaluate_word", "evaluate_word-past-zero", "act_word", "left_translate",
        "right_translate"])
def test_a_letter_outside_a_module_is_refused_by_name_wherever_it_sits(call, w):
    with pytest.raises(reps.RepError, match=r"^letter 7 is not in the alphabet \(e1, e2\)$"):
        call(w)


def test_r_cut_spans_translation_closure():
    for w in [(0,), (0, 1), (1, 0, 0)]:
        ok, dim = duals.membership_ffr(duals.phi(w), AB)
        assert ok and dim == len(w) + 1


def chain_functional(p=10):
    """h = b_p*(x . b_0) on the chain a.b.a.b... of length p: h is 1 on one
    word of length p and 0 on every other word."""
    rep = reps.make_chain(AB, [i % 2 for i in range(p)])
    return MatrixCoefficient(rep, rep.basis_vector(p), rep.basis_vector(0))


def test_in_shuffle_span():
    assert duals.in_shuffle_span(duals.phi((0, 1)), 2)
    assert not duals.in_shuffle_span(duals.phi((0, 1)), 1)
    assert duals.in_shuffle_span(FiniteFunctional({}), 0)
    h = cyclic_functional()
    for bound in range(6):
        assert not duals.in_shuffle_span(h, bound)
    # the one nonzero value lies up to ten letters past the bound
    chain = chain_functional(10)
    assert [duals.in_shuffle_span(chain, bound) for bound in range(12)] == [False] * 10 + [True] * 2
    realized = duals.realize_rep_backed(duals.phi((0, 1, 1)), AB)
    assert duals.in_shuffle_span(realized, 3)
    assert not duals.in_shuffle_span(realized, 2)
    assert duals.in_shuffle_span(realized, 10**9)
    assert not duals.in_shuffle_span(h, 10**9)


def inside_by_brute_force(h, bound):
    """h vanishes on every word of length bound+1 .. bound+dim+1.

    Enough to vanish past the bound: the sums of the layers
    span{w . v : |w| = k} from bound+1 on stop growing within dim steps.
    """
    letters = sorted(h.rep.matrices)
    return not any(
        h.evaluate_word(w)
        for n in range(bound + 1, bound + h.rep.dim + 2)
        for w in itertools.product(letters, repeat=n)
    )


@st.composite
def matrix_coefficients(draw):
    """Random h = phi(x . v) on 1- to 4-dim modules over two letters, with a
    drawn share of zero entries, so that both verdicts occur."""
    dim = draw(st.integers(1, 4))
    zero_pct = draw(st.integers(0, 100))
    nonzero = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))

    def entries(n):
        return [
            Fraction(0) if draw(st.integers(0, 99)) < zero_pct else draw(nonzero)
            for _ in range(n)
        ]

    mats = {e: [entries(dim) for _ in range(dim)] for e in AB.letters()}
    return MatrixCoefficient(reps.RepSpec(AB, dim, mats), entries(dim), entries(dim))


def partly_new_layer():
    """e1: b0 -> b1 -> b1, e2: b1 -> b2 -> b3, h = b3*(x . b0).  The layer
    span{b1, b2} of length 2 is only partly inside the layer b1 before it,
    and h is nonzero on e2.e2.e1."""
    z, o = Fraction(0), Fraction(1)
    e1 = [[z, z, z, z], [o, o, z, z], [z, z, z, z], [z, z, z, z]]
    e2 = [[z, z, z, z], [z, z, z, z], [z, o, z, z], [z, z, o, z]]
    rep = reps.RepSpec(AB, 4, {0: e1, 1: e2})
    return MatrixCoefficient(rep, rep.basis_vector(3), rep.basis_vector(0))


@settings(max_examples=150, deadline=None)
@given(matrix_coefficients(), st.integers(0, 4))
@example(partly_new_layer(), 0)
def test_in_shuffle_span_matches_brute_force(h, bound):
    assert duals.in_shuffle_span(h, bound) == inside_by_brute_force(h, bound)


ABC = Alphabet(("e1", "e2", "e3"))


def fraction_rank(rows):
    """Rank by plain Gaussian elimination in Fractions."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def hankel_rank(h, letters):
    """dim U(g) |> h as the rank of [h(y x)] over words x, y of length at most
    h's longest word: x |> h is y -> h(y x), and it vanishes on longer y."""
    n = h.max_length()
    ws = [w for k in range(n + 1) for w in itertools.product(letters, repeat=k)]
    return fraction_rank([[h.coeff(y + x) for y in ws] for x in ws])


def closure_dim_by_fractions(rep, v):
    """dim U(g) . v by a breadth-first closure in Fractions: a vector joins
    when it raises the rank, and then its images under every letter queue."""
    mats = [rep.matrices[e] for e in sorted(rep.matrices)]
    found, queue = [], [list(v)]
    while queue:
        u = queue.pop(0)
        if fraction_rank(found + [u]) > len(found):
            found.append(u)
            queue += [[sum(a * b for a, b in zip(row, u)) for row in m] for m in mats]
    return len(found)


@st.composite
def finite_functionals(draw):
    """Up to four terms on words of length up to 3 over e1, e2 and sometimes
    e3, so that a letter of the alphabet often lies outside h's support."""
    letters = [0, 1, 2] if draw(st.booleans()) else [0, 1]
    word = st.lists(st.sampled_from(letters), max_size=3).map(tuple)
    coeff = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4))
    return FiniteFunctional(draw(st.dictionaries(word, coeff, max_size=4)))


def ref_shuffle_product(h1, h2):
    """The shuffle product summed term by term in Fractions."""
    out = {}
    for w1, c1 in h1.terms.items():
        for w2, c2 in h2.terms.items():
            for w, mult in words.shuffles(w1, w2).items():
                out[w] = out.get(w, Fraction(0)) + c1 * c2 * mult
    return FiniteFunctional(out)


@settings(max_examples=100, deadline=None)
@given(finite_functionals(), finite_functionals())
@example(FiniteFunctional({}), duals.phi((0,)))
@example(FiniteFunctional({(0,): Fraction(1, 2), (1,): Fraction(-1, 3)}),
         FiniteFunctional({(1,): Fraction(1, 3), (0,): Fraction(1, 2)}))  # e1 e2 cancels
def test_shuffle_product_matches_the_fraction_sum(h1, h2):
    got = duals.shuffle_product(h1, h2)
    assert got == ref_shuffle_product(h1, h2)
    assert all(type(c) is Fraction and c for c in got.terms.values())


# the third letter diagonalizable: membership answers h over it too, where
# realize_rep_backed refuses h
ABD = Alphabet(("e1", "e2", "d"), (words.NILPOTENT, words.NILPOTENT, words.DIAGONAL))


@settings(max_examples=100, deadline=None)
@given(finite_functionals(), st.sampled_from((ABC, ABD)))
@example(FiniteFunctional({}), ABC)
@example(duals.phi(()), ABC)
@example(FiniteFunctional({(0, 1): Fraction(1, 3), (1, 1): Fraction(-2, 5), (): 7}), ABC)
@example(FiniteFunctional({(2, 0): 1, (0, 2, 2): 2}), ABD)
def test_membership_of_a_finite_functional_is_its_hankel_rank(h, alphabet):
    expected = hankel_rank(h, sorted(alphabet.letters()))
    assert duals.membership_ffr(h, alphabet) == (True, expected)
    assert duals.membership_ffr(h) == (True, expected)
    if not all(map(alphabet.is_nilpotent, h.support_letters())):
        with pytest.raises(ValueError):
            duals.realize_rep_backed(h, alphabet)


@st.composite
def long_finite_functionals(draw):
    """Up to five terms on words of length up to 5 over two or three letters;
    one draw in ten is a multiple of phi_() alone."""
    letters = [0, 1, 2] if draw(st.booleans()) else [0, 1]
    coeff = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4))
    if draw(st.integers(0, 9)) == 0:
        return FiniteFunctional({(): draw(coeff)})
    word = st.lists(st.sampled_from(letters), max_size=5).map(tuple)
    return FiniteFunctional(draw(st.dictionaries(word, coeff, max_size=5)))


def suffixes(h):
    return {w[i:] for w in h.terms for i in range(len(w) + 1)} | {()}


def vnj_realization(h, alphabet):
    """h as phi(. b_()) on V_N(J), N its longest word and J its letters (e1
    when it has none)."""
    rep = reps.make_VNJ(alphabet, h.max_length(), sorted(h.support_letters()) or [0])
    return grp.RegularFunction(rep, [h.coeff(w) for w in rep.labels], rep.basis_vector(0))


EXP_FACTORS = st.builds(
    grp.exp_factor, st.integers(0, 2), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
)
EXP_WORDS = st.lists(st.lists(EXP_FACTORS, max_size=5).map(grp.GroupWord), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(long_finite_functionals(), EXP_WORDS)
@example(FiniteFunctional({}), [grp.GroupWord([grp.exp_factor(0, 3)])])
@example(FiniteFunctional({(): Fraction(-5, 2)}), [grp.GroupWord([grp.exp_factor(2, 1)])])
@example(FiniteFunctional({(0, 1): 1, (0, 2): 1}), [grp.GroupWord([grp.exp_factor(2, 1),
                                                                   grp.exp_factor(0, 2)])])
def test_a_finite_functional_is_realized_on_its_suffixes(h, gs):
    mc = duals.realize_rep_backed(h, ABC)
    assert mc.rep.dim == len(suffixes(h))
    assert reps.validate_integrable(mc.rep) == []
    for w in words.all_words(ABC.letters(), h.max_length() + 1):
        assert mc.evaluate_word(w) == h.coeff(w)
    xi, reference = grp.xi_map(h, ABC), vnj_realization(h, ABC)
    assert [xi(g) for g in gs] == [reference(g) for g in gs]
    # without an alphabet, h's letters 0 .. max are read as locally nilpotent
    bare = grp.xi_map(h)
    inside = [g for g in gs if all(f.letter < len(bare.rep.alphabet) for f in g)]
    assert [bare(g) for g in inside] == [reference(g) for g in inside]


@settings(max_examples=60, deadline=None)
@given(long_finite_functionals(), st.lists(st.integers(0, 3), max_size=4).map(tuple),
       st.booleans())
@example(FiniteFunctional({}), (0, 3), False)
@example(FiniteFunctional({(): 2}), (1, 0, 1), True)
def test_expand_rho_of_a_finite_functional_is_its_values_over_factorials(h, letters, named):
    """The coefficient at k is h(e1^k1 ... ep^kp) / (k1! ... kp!), with an
    alphabet and without one."""
    alphabet = Alphabet(("e1", "e2", "e3", "e4")) if named else None
    expected = {}
    for ks in itertools.product(range(h.max_length() + 1), repeat=len(letters)):
        c = h.coeff(tuple(e for e, k in zip(letters, ks) for _ in range(k)))
        if c:
            expected[ks] = c / math.prod(map(math.factorial, ks))
    assert duals.expand_rho(h, letters, alphabet).coeffs == expected


def vnj_from_the_empty_word(n=3):
    """b_()*(x . b_()) on V_n({e1, e2}): b_() generates the whole module."""
    rep = reps.make_VNJ(AB, n, (0, 1))
    return MatrixCoefficient(rep, rep.basis_vector(0), rep.basis_vector(0))


@settings(max_examples=100, deadline=None)
@given(matrix_coefficients())
@example(cyclic_functional())
@example(chain_functional(6))
@example(vnj_from_the_empty_word())
def test_membership_of_a_matrix_coefficient_is_dim_u_v(h):
    assert duals.membership_ffr(h) == (True, closure_dim_by_fractions(h.rep, h.v))


def test_membership_builds_no_fraction_and_stops_at_full_rank(monkeypatch):
    finite = FiniteFunctional({(0, 1): Fraction(1, 3), (1, 1, 0): Fraction(-2, 5), (): 7})
    full = vnj_from_the_empty_word()
    made, ranks, late = [], [], []
    new, add, image = Fraction.__new__, linalg.Echelon.add, linalg.Operator.image

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    def recording_add(self, v):
        grew = add(self, v)
        ranks.append(self.rank)
        return grew

    def recording_image(self, ints):
        if ranks and ranks[-1] == len(ints):
            late.append(ints)
        return image(self, ints)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(linalg.Echelon, "add", recording_add)
    monkeypatch.setattr(linalg.Operator, "image", recording_image)
    results = [duals.membership_ffr(finite, AB), duals.membership_ffr(full)]
    monkeypatch.undo()
    assert made == []
    assert late == []
    assert results == [(True, 5), (True, 15)]
    assert ranks[-1] == 15


def ref_covector(h, u):
    """phi M_u1 ... M_uk in Fractions, on h.rep.matrices."""
    mats = h.rep.matrices
    p = list(h.phi)
    for e in u:
        p = [sum((x * row[j] for x, row in zip(p, mats[e])), Fraction(0)) for j in range(len(p))]
    return p


def ref_value(h, w):
    """phi(M_w1 (... (M_wk v))) in Fractions, on h.rep.matrices."""
    mats = h.rep.matrices
    u = list(h.v)
    for e in reversed(w):
        u = [sum((a * b for a, b in zip(row, u)), Fraction(0)) for row in mats[e]]
    return sum((a * b for a, b in zip(h.phi, u)), Fraction(0))


LETTERS = st.integers(0, 1)
SHORT_WORDS = st.lists(LETTERS, max_size=5).map(tuple)


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrix_coefficients(), st.builds(chain_functional, st.integers(1, 5)),
                 st.builds(cyclic_functional)),
       st.data())
def test_consecutive_words_read_the_path_of_the_last(h, data):
    """Repeats, one-letter extensions, prefixes, the empty word, words past a
    zero covector, and calls on coefficients sharing phi or v with h, in a
    drawn order: every value is the reference and a fresh coefficient's."""
    phi, v = h._phi, h._v
    phi_ints, v_ints = list(phi[1]), list(v[1])
    sharing = [duals.left_translate((0,), h), duals.right_translate((1,), h),
               duals.product(h, duals.phi((0,))), grp.phi_map(grp.xi_map(h))]
    last, zeros = (), []  # zeros: words whose covector phi M_u is 0
    for _ in range(data.draw(st.integers(1, 30))):
        step = data.draw(st.sampled_from(
            ("repeat", "extend", "prefix", "empty", "word", "past-zero", "sharing")))
        target = h
        if step == "repeat":
            w = last
        elif step == "extend":
            w = last + (data.draw(LETTERS),)
        elif step == "prefix":
            w = last[:data.draw(st.integers(0, max(len(last) - 1, 0)))]
        elif step == "empty":
            w = ()
        elif step == "past-zero" and zeros:
            w = data.draw(st.sampled_from(zeros)) + data.draw(SHORT_WORDS)
        elif step == "sharing":
            target, w = data.draw(st.sampled_from(sharing)), data.draw(SHORT_WORDS)
        else:
            w = data.draw(SHORT_WORDS)
        fresh = MatrixCoefficient(target.rep, target.phi, target.v)
        assert target.evaluate_word(w) == ref_value(target, w) == fresh.evaluate_word(w)
        if target is h:
            last = w
            if not any(ref_covector(h, w)):
                zeros.append(w)
    assert h._phi is phi and h._v is v
    assert phi[1] == phi_ints and v[1] == v_ints
    assert sharing[0]._v is v and sharing[1]._phi is phi
    assert sharing[3]._phi is phi and sharing[3]._v is v


def dense_product():
    """phi(. v) on the tensor square of a dense 3-dimensional module whose
    letters are conjugates of strictly upper triangular matrices."""
    f = Fraction
    # P N P^-1 for P with rows (1, 0, 0), (1, 1, 0), (2, 1, 1)
    e1 = [[f(-3, 2), f(1, 2), f(1, 2)], [f(1, 2), f(5, 2), f(-3, 2)], [f(-1), f(3), f(-1)]]
    e2 = [[f(-2), f(-4), f(3)], [f(-8, 3), f(-14, 3), f(11, 3)], [f(-14, 3), f(-26, 3), f(20, 3)]]
    rep = reps.RepSpec(AB, 3, {0: e1, 1: e2})
    h1 = MatrixCoefficient(rep, (1, f(2, 3), -1), (f(1, 2), 1, 3))
    h2 = MatrixCoefficient(rep, (2, -1, f(1, 4)), (1, -2, f(1, 3)))
    return duals.product(h1, h2)


def test_consecutive_words_pull_back_only_past_the_shared_prefix(monkeypatch):
    h = dense_product()
    calls = []
    image, pull_back = linalg.Operator.image, linalg.Operator.pull_back

    def counting_image(self, ints):
        calls.append("image")
        return image(self, ints)

    def counting_pull_back(self, ints):
        calls.append("pull_back")
        return pull_back(self, ints)

    def cost(w):
        del calls[:]
        value = h.evaluate_word(w)
        assert value == ref_value(h, w)
        return list(calls)

    monkeypatch.setattr(linalg.Operator, "image", counting_image)
    monkeypatch.setattr(linalg.Operator, "pull_back", counting_pull_back)
    assert any(ref_covector(h, (0, 1)))  # so (0, 1, 0) costs one pull_back
    made = []
    for w in words.all_words((0, 1), 5):
        made += cost(w)
    # the prefix-tree nodes of each length, walked once per length
    assert made.count("image") == 0 and len(made) <= 2 + 6 + 14 + 30 + 62
    assert cost((1, 1, 1, 1, 1)) == [] and cost(()) == []
    # every word of length 5 kills the tensor square, so no word past it pulls
    assert not any(ref_covector(h, (1, 1, 1, 1, 1))) and cost((1, 1, 1, 1, 1, 0)) == []
    cost((0, 1))
    assert cost((0, 1, 0)) == ["pull_back"]


def test_threads_sharing_a_coefficient_read_whole_paths():
    """The path is only ever replaced whole: threads evaluating one
    coefficient in different word orders read the reference values."""
    h = dense_product()
    ws = list(words.all_words((0, 1), 4))
    expected = {w: ref_value(h, w) for w in ws}
    orders = [ws, ws[::-1], sorted(ws, key=lambda w: w[::-1]), ws[1::2] + ws[::2]]
    wrong = []

    def work(order):
        try:
            for _ in range(3):
                wrong.extend(w for w in order if h.evaluate_word(w) != expected[w])
        except Exception as exc:  # reported by the assertion below
            wrong.append(exc)

    threads = [threading.Thread(target=work, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_z_monoid():
    m = duals.ZMonoid({2, 3})
    assert m.contains(0) and m.contains(5) and m.contains(7)
    assert not m.contains(1)
    assert duals.ZMonoid({0}).sample(3) == [0]
    full = duals.ZMonoid({1, -1})
    assert all(full.contains(n) for n in range(-10, 11))
    neg = duals.ZMonoid({-2, -3})
    assert neg.contains(-7) and not neg.contains(2)


def test_z_monoid_from_reps():
    mixed = Alphabet(("d",), (words.DIAGONAL,))
    r1 = reps.RepSpec(mixed, 2, {0: [[0, 0], [0, 2]]})
    r2 = reps.RepSpec(mixed, 1, {0: [[3]]})
    m = duals.z_monoid(0, [r1, r2])
    assert m.contains(2) and m.contains(3) and not m.contains(1)
    with pytest.raises(reps.RepError):
        duals.z_monoid(0, [reps.RepSpec(Alphabet(("d",)), 1, {0: [[0]]})])
