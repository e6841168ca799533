from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liereg import duals, linalg, reps, words
from liereg.duals import MatrixCoefficient
from liereg.linalg import CapError
from liereg.reps import RepError, RepSpec
from liereg.words import Alphabet, NcPoly


AB = Alphabet(("e1", "e2"))
MIXED = Alphabet(("e1", "d"), (words.NILPOTENT, words.DIAGONAL))


def chain12():
    return reps.make_chain(AB, (0, 1))


def test_chain_action_examples():
    rep = chain12()
    b0 = rep.basis_vector(0)
    # word e2.e1 acts as e2(e1(b0)) = b2
    assert reps.act_word(rep, (1, 0), b0) == rep.basis_vector(2)
    # word e1.e2 kills b0 since e2 b0 = 0
    assert not any(reps.act_word(rep, (0, 1), b0))
    assert reps.act_word(rep, (), b0) == b0


def test_act_word_is_monoid_homomorphism():
    rep = reps.make_VNJ(AB, 3, (0, 1))
    v = tuple(Fraction(i + 1, 3) for i in range(rep.dim))
    for w1 in [(0,), (1, 0), (0, 0, 1)]:
        for w2 in [(1,), (0, 1)]:
            assert reps.act_word(rep, w1 + w2, v) == reps.act_word(
                rep, w1, reps.act_word(rep, w2, v)
            )


class CountingFraction(Fraction):
    """A Fraction that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        CountingFraction.products += 1
        return Fraction.__mul__(self, other)

    __rmul__ = __mul__


def test_letter_operators_are_built_once_and_run_on_integers(monkeypatch):
    calls = []  # one entry per Operator built, wherever it is built
    init = linalg.Operator.__init__
    monkeypatch.setattr(
        linalg.Operator, "__init__", lambda self, *args: calls.append(1) or init(self, *args)
    )
    abc = Alphabet(("e1", "e2", "e3"))
    vnj = reps.make_VNJ(abc, 4, (0, 1, 2))
    assert vnj.dim == 121 and len(calls) == 3
    counting = {
        e: [[CountingFraction(x) for x in row] for row in m] for e, m in vnj.matrices.items()
    }
    rep = RepSpec(abc, vnj.dim, counting)
    assert len(calls) == 6  # once per letter, while the module is built
    v = tuple(CountingFraction(i % 5 - 2, i % 3 + 1) for i in range(rep.dim))
    for w in [(0,), (2, 1), (0, 1, 2), (1, 1, 0, 2), ()]:
        expected = tuple(Fraction(x) for x in v)
        for e in reversed(w):  # the textbook product, on plain Fractions
            expected = tuple(
                sum((a * b for a, b in zip(row, expected)), Fraction(0))
                for row in vnj.matrices[e]
            )
        CountingFraction.products = 0
        assert reps.act_word(rep, w, v) == expected
        assert CountingFraction.products == 0
    assert len(calls) == 6  # not once per product
    with pytest.raises(TypeError):
        rep.matrices[0] = ((Fraction(0),) * rep.dim,) * rep.dim
    with pytest.raises(TypeError):
        rep.operators[0] = None


def test_act_poly_linear():
    rep = chain12()
    b0 = rep.basis_vector(0)
    x = NcPoly({(0, 1): 1, (1, 0): -1})
    # e1e2 kills b0, e2e1 sends it to b2
    assert reps.act_poly(rep, x, b0) == tuple(-y for y in rep.basis_vector(2))
    assert not any(reps.act_poly(rep, NcPoly.zero(), b0))
    assert reps.act_poly(rep, NcPoly.one(), b0) == b0


def test_dimension_mismatch_raises():
    rep = chain12()
    with pytest.raises(RepError):
        reps.act_word(rep, (0,), (1, 0))


def test_a_basis_index_outside_the_module_is_refused():
    rep = chain12()
    assert rep.basis_vector(0) == (1, 0, 0) and rep.basis_vector(2) == (0, 0, 1)
    for i in [-1, 3, 5]:
        with pytest.raises(RepError, match=f"^basis index {i} is outside the module: dimension is 3$"):
            rep.basis_vector(i)


def test_validate_integrable():
    rep = chain12()
    assert reps.validate_integrable(rep) == []
    bad = RepSpec(Alphabet(("e1",)), 1, {0: [[1]]})
    report = reps.validate_integrable(bad)
    assert len(report) == 1 and "nilpotent" in report[0]
    diag = RepSpec(MIXED, 2, {1: [[1, 0], [0, -1]]})
    assert reps.validate_integrable(diag) == []
    assert reps.eigenvalues(diag, 1) == [-1, 1]
    nondiag = RepSpec(MIXED, 2, {1: [[1, 1], [0, 1]]})
    assert any("diagonal" in v for v in reps.validate_integrable(nondiag))


def test_tensor_leibniz():
    r = chain12()
    t = reps.tensor(r, r)
    v = (Fraction(1), Fraction(2), Fraction(0))
    w = (Fraction(0), Fraction(1), Fraction(3))
    for e in (0, 1):
        lhs = reps.act_word(t, (e,), linalg.vec_kron(v, w))
        rhs = tuple(
            a + b
            for a, b in zip(
                linalg.vec_kron(reps.act_word(r, (e,), v), w),
                linalg.vec_kron(v, reps.act_word(r, (e,), w)),
            )
        )
        assert lhs == rhs


def test_tensor_diagonal_adds_eigenvalues():
    r1 = RepSpec(MIXED, 1, {1: [[1]]})
    r2 = RepSpec(MIXED, 1, {1: [[2]]})
    t = reps.tensor(r1, r2)
    assert t.matrices[1] == ((3,),)


def letter_images(rep):
    """Each letter's Operator.image, the linear maps of the closure walk."""
    return [rep.operators[e].image for e in sorted(rep.alphabet.letters())]


def test_submodule_generated():
    maps = letter_images(chain12())
    assert reps.submodule_generated(maps, [1, 0, 0]).rank == 3
    assert reps.submodule_generated(maps, [0, 0, 0]).basis() == []
    assert reps.submodule_generated(maps, [0, 0, 5]).basis() == [(0, 0, 1)]


def test_submodule_closure_property():
    rep = reps.make_VNJ(AB, 2, (0, 1))
    basis = reps.submodule_generated(letter_images(rep), [0, 1, 0, 0, 0, 0, 0]).basis()
    ech = linalg.Echelon()
    for b in basis:
        ech.add(linalg.integral(b)[1])
    for b in basis:
        for e in rep.alphabet.letters():
            assert ech.contains(linalg.integral(linalg.mat_vec(rep.matrices[e], b))[1])


def test_make_vnj_dimensions():
    assert reps.make_VNJ(AB, 1, (0,)).dim == 2
    assert reps.make_VNJ(AB, 0, (0,)).dim == 1
    assert reps.make_VNJ(AB, 2, (0, 1)).dim == 7


def test_make_vnj_cap():
    with pytest.raises(CapError):
        reps.make_VNJ(AB, 13, (0, 1))


def test_make_chain_validation():
    with pytest.raises(RepError):
        reps.make_chain(AB, (0, 0))
    with pytest.raises(RepError):
        reps.make_chain(AB, ())
    rep = reps.make_chain(AB, (0, 1, 0))
    assert rep.dim == 4
    assert reps.act_word(rep, (0, 1, 0), rep.basis_vector(0)) == rep.basis_vector(3)


def test_make_cyclic_pair_matrices():
    rep = reps.make_cyclic_pair(AB, 0, 1)
    b1, b2 = rep.basis_vector(0), rep.basis_vector(1)
    assert reps.act_word(rep, (0,), b2) == b1
    assert reps.act_word(rep, (1,), b1) == b2
    assert not any(reps.act_word(rep, (0,), b1))
    assert reps.validate_integrable(rep) == []


def test_support():
    rep = chain12()
    assert reps.support(rep) == frozenset({0, 1})
    trivial = RepSpec(AB, 1, {})
    assert reps.support(trivial) == frozenset()
    assert reps.support(reps.make_VNJ(AB, 2, (0,))) == frozenset({0})


# ---------------------------------------------------------------------------
# Word and polynomial actions carry the vector as integers over one
# denominator; these compare them with the textbook Fraction formulas.

ACTION = settings(max_examples=40, deadline=None)
ZERO = Fraction(0)
NIL_DIAG = Alphabet(("e1", "e2", "d"), (words.NILPOTENT, words.NILPOTENT, words.DIAGONAL))


def _entries(draw, n, zero_pct):
    """n Fractions: a drawn share of zeros, mixed denominators, both signs."""
    nonzero = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    return [ZERO if draw(st.integers(0, 99)) < zero_pct else draw(nonzero) for _ in range(n)]


@st.composite
def module_matrices(draw):
    """(dim, matrices) of a module over NIL_DIAG: e1, e2 strictly upper
    triangular in a permuted basis, from all zero to dense, and d diagonal
    with eigenvalues of both signs."""
    dim = draw(st.integers(1, 9))
    perm = draw(st.permutations(range(dim)))
    mats = {}
    for e in (0, 1):
        zero_pct = draw(st.integers(0, 100))
        m = [[ZERO] * dim for _ in range(dim)]
        for i in range(dim):
            for j, x in enumerate(_entries(draw, dim - i - 1, zero_pct), i + 1):
                m[perm[i]][perm[j]] = x
        mats[e] = m
    mats[2] = [[Fraction(draw(st.integers(-3, 3))) if i == j else ZERO for j in range(dim)]
               for i in range(dim)]
    return dim, mats


def modules():
    return module_matrices().map(lambda dim_mats: RepSpec(NIL_DIAG, *dim_mats))


@st.composite
def vectors(draw, dim):
    v = _entries(draw, dim, draw(st.integers(0, 100)))
    if draw(st.booleans()):  # plain ints, as callers may pass them
        v = [x.numerator for x in v]
    return tuple(v)


NIL_WORDS = st.lists(st.integers(0, 1), max_size=6).map(tuple)


def ref_act_word(rep, w, v):
    out = [Fraction(x) for x in v]
    for e in reversed(w):
        out = [sum((a * b for a, b in zip(row, out)), ZERO) for row in rep.matrices[e]]
    return tuple(out)


@ACTION
@given(st.data())
def test_act_word_matches_reference(data):
    rep = data.draw(modules())
    v = data.draw(vectors(rep.dim))
    w = data.draw(st.lists(st.integers(0, 2), max_size=6).map(tuple))
    out = reps.act_word(rep, w, v)
    assert out == ref_act_word(rep, w, v)
    assert all(type(x) is Fraction for x in out)


@ACTION
@given(st.data())
def test_act_poly_matches_reference(data):
    rep = data.draw(modules())
    v = data.draw(vectors(rep.dim))
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
    x = NcPoly(data.draw(st.dictionaries(NIL_WORDS, coeff, max_size=5)))
    expected = [ZERO] * rep.dim
    for w, c in x.terms.items():
        expected = [a + c * b for a, b in zip(expected, ref_act_word(rep, w, v))]
    out = reps.act_poly(rep, x, v)
    assert out == tuple(expected)
    assert all(type(y) is Fraction for y in out)
    d, ints = linalg.integral(v)
    den, u = rep.poly_image(x, ints)
    assert linalg.over(u, d * den) == out and all(type(y) is int for y in u)


@ACTION
@given(st.data())
def test_evaluate_word_matches_reference(data):
    rep = data.draw(modules())
    phi, v = data.draw(vectors(rep.dim)), data.draw(vectors(rep.dim))
    h = MatrixCoefficient(rep, phi, v)
    for w in data.draw(st.lists(st.lists(st.integers(0, 2), max_size=5), max_size=4)):
        value = h.evaluate_word(tuple(w))
        image = ref_act_word(rep, tuple(w), v)
        assert value == sum((a * b for a, b in zip(phi, image)), ZERO)
        assert type(value) is Fraction


@ACTION
@given(st.data())
def test_translations_match_reference(data):
    rep = data.draw(modules())
    phi, v = data.draw(vectors(rep.dim)), data.draw(vectors(rep.dim))
    h = MatrixCoefficient(rep, phi, v)
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
    x = NcPoly(data.draw(st.dictionaries(NIL_WORDS, coeff, max_size=4)))
    pulled = [ZERO] * rep.dim  # sum c phi M_u1 ... M_um, the textbook row-vector products
    moved = [ZERO] * rep.dim  # sum c M_u1 ... M_um v
    for u, c in x.terms.items():
        p = [Fraction(y) for y in phi]
        for e in u:
            p = [sum((p[i] * rep.matrices[e][i][j] for i in range(rep.dim)), ZERO)
                 for j in range(rep.dim)]
        pulled = [a + c * b for a, b in zip(pulled, p)]
        moved = [a + c * b for a, b in zip(moved, ref_act_word(rep, u, v))]
    left, right = duals.left_translate(x, h), duals.right_translate(x, h)
    assert left.phi == tuple(pulled) and left.v == h.v
    assert right.v == tuple(moved) and right.phi == h.phi
    (d_phi, phi_ints), (d_v, v_ints) = linalg.integral(phi), linalg.integral(v)
    den, p = rep.poly_pull_back(x, phi_ints)
    assert linalg.over(p, d_phi * den) == tuple(pulled)
    den, u = rep.poly_image(x, v_ints)
    assert linalg.over(u, d_v * den) == tuple(moved)
    for y in data.draw(st.lists(NIL_WORDS, max_size=3)):
        assert left.evaluate_word(y) == sum((c * h.evaluate_word(u + y) for u, c in x.terms.items()), ZERO)
        assert right.evaluate_word(y) == sum((c * h.evaluate_word(y + u) for u, c in x.terms.items()), ZERO)


def test_actions_reject_a_vector_of_the_wrong_length():
    rep = chain12()
    for v in [(1, 0), (1, 0, 0, 0), ()]:
        with pytest.raises(RepError, match="^vector: has length"):
            reps.act_word(rep, (), v)
        with pytest.raises(RepError, match="^vector: has length"):
            reps.act_poly(rep, NcPoly.zero(), v)
        with pytest.raises(RepError, match="^vector: has length"):
            MatrixCoefficient(rep, (1, 0, 0), v)
        with pytest.raises(RepError, match="^phi: has length"):
            MatrixCoefficient(rep, v, (1, 0, 0))


# ---------------------------------------------------------------------------
# Modules are stored as integer operators only; these compare the builders,
# the tensor product and validation with plain Fraction formulas.


def ref_mat_mul(a, b):
    return [[sum((row[k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
            for row in a]


def ref_kron_sum(a, b):
    """a (x) 1 + 1 (x) b, entry by entry."""
    n1, n2 = len(a), len(b)
    return tuple(
        tuple(
            (a[i][j] if k == l else ZERO) + (b[k][l] if i == j else ZERO)
            for j in range(n1) for l in range(n2)
        )
        for i in range(n1) for k in range(n2)
    )


def as_tuples(m):
    return tuple(tuple(Fraction(x) for x in row) for row in m)


@ACTION
@given(module_matrices())
def test_matrices_view_round_trips(dim_mats):
    dim, mats = dim_mats
    rep = RepSpec(NIL_DIAG, dim, mats)
    assert dict(rep.matrices) == {e: as_tuples(m) for e, m in mats.items()}
    assert all(type(x) is Fraction for m in rep.matrices.values() for row in m for x in row)


@ACTION
@given(module_matrices(), module_matrices(), st.data())
def test_tensor_matches_kronecker_sum(first, second, data):
    (n1, m1), (n2, m2) = first, second
    t = reps.tensor(RepSpec(NIL_DIAG, n1, m1), RepSpec(NIL_DIAG, n2, m2))
    assert t.dim == n1 * n2
    ref = {e: ref_kron_sum(m1[e], m2[e]) for e in (0, 1, 2)}
    assert dict(t.matrices) == ref
    assert all(x for op in t.operators.values() for _, column in op.columns for _, x in column)
    assert reps.support(t) == {e for e, m in ref.items() if any(map(any, m))}
    assert reps.validate_integrable(t) == []
    v = data.draw(vectors(t.dim))
    for e in (0, 1, 2):
        expected = tuple(sum((a * b for a, b in zip(row, v)), ZERO) for row in ref[e])
        assert reps.act_word(t, (e,), v) == expected


ABC = Alphabet(("e1", "e2", "e3"))


@st.composite
def builders(draw):
    """A call of one builder that writes an Operator's columns itself, with
    drawn input: V_N(J), a chain, the cyclic pair, a tensor module (with a
    diagonal letter, or of two built modules), or the prefix operators of
    membership_ffr."""
    n, j = draw(st.integers(0, 3)), draw(st.sets(st.integers(0, 2), min_size=1))
    vnj = partial(reps.make_VNJ, ABC, n, j)
    seq = [draw(st.integers(0, 2))]
    for step in draw(st.lists(st.integers(1, 2), max_size=6)):
        seq.append((seq[-1] + step) % 3)  # adjacent letters differ
    chain = partial(reps.make_chain, ABC, seq)
    e1, e2, _ = draw(st.permutations(range(3)))
    (n1, m1), (n2, m2) = draw(module_matrices()), draw(module_matrices())
    ws = draw(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple),
                       min_size=1, max_size=5))
    h = duals.FiniteFunctional({w: Fraction(i + 1, 2) for i, w in enumerate(ws)})
    return draw(st.sampled_from((
        vnj,
        chain,
        partial(reps.make_cyclic_pair, ABC, e1, e2),
        partial(reps.tensor, RepSpec(NIL_DIAG, n1, m1), RepSpec(NIL_DIAG, n2, m2)),
        partial(_tensor_of, vnj, chain),
        partial(duals.membership_ffr, h, draw(st.sampled_from((ABC, None)))),
        partial(duals.realize_rep_backed, h, draw(st.sampled_from((ABC, None)))),
    )))


def _tensor_of(build1, build2):
    return reps.tensor(build1(), build2())


@ACTION
@given(builders())
def test_every_builder_writes_canonical_columns(build):
    """Each Operator a builder makes has the columns that from_rows writes
    for its integer matrix: increasing j, each in increasing row, no empty
    column and no zero value."""
    built = []
    init = linalg.Operator.__init__

    def record(self, *args):
        init(self, *args)
        built.append(self)

    with mock.patch.object(linalg.Operator, "__init__", record):
        build()
    assert built
    for op in built:
        ints = [[x * op.denom for x in row] for row in op.matrix()]
        assert op.columns == linalg.Operator.from_rows(ints).columns
        assert all(type(x) is int for _, column in op.columns for _, x in column)


@st.composite
def square_matrices(draw):
    """A square matrix with a drawn share of zeros and mixed denominators:
    strictly upper triangular in a permuted basis (nilpotent), perhaps with
    one more entry, or diagonal, perhaps with one entry off the diagonal or
    not an integer, or arbitrary."""
    dim = draw(st.integers(1, 7))
    zero_pct = draw(st.integers(0, 100))
    shape = draw(st.sampled_from(("triangular", "diagonal", "arbitrary")))
    m = [[ZERO] * dim for _ in range(dim)]
    if shape == "arbitrary":
        for i in range(dim):
            m[i] = _entries(draw, dim, zero_pct)
    elif shape == "triangular":
        perm = draw(st.permutations(range(dim)))
        for i in range(dim):
            for j, x in enumerate(_entries(draw, dim - i - 1, zero_pct), i + 1):
                m[perm[i]][perm[j]] = x
    else:
        for i in range(dim):
            m[i][i] = Fraction(draw(st.integers(-3, 3)))
    if shape != "arbitrary" and draw(st.booleans()):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        m[i][j] = draw(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3)))
    return m


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_validate_integrable_matches_reference(m):
    dim = len(m)
    power = m
    for _ in range(dim - 1):
        power = ref_mat_mul(power, m)
    nilpotent = not any(map(any, power))  # M^dim = 0
    report = reps.validate_integrable(RepSpec(Alphabet(("e1",)), dim, {0: m}))
    assert report == ([] if nilpotent else ["letter e1: matrix is not nilpotent"])
    integer_diagonal = all(
        x == 0 if i != j else x.denominator == 1 for i, row in enumerate(m) for j, x in enumerate(row)
    )
    report = reps.validate_integrable(RepSpec(MIXED, dim, {1: m}))
    assert (report == []) is integer_diagonal
    if integer_diagonal:
        assert reps.eigenvalues(RepSpec(MIXED, dim, {1: m}), 1) == sorted({int(m[i][i]) for i in range(dim)})


def test_modules_never_build_their_fraction_matrices(monkeypatch):
    from liereg import grp

    def run():
        vnj = reps.make_VNJ(MIXED, 3, (0,))
        chain = reps.make_chain(AB, (0, 1, 0))
        cyclic = reps.make_cyclic_pair(AB, 0, 1)
        given_rows = RepSpec(MIXED, 2, {0: [[0, Fraction(1, 2)], [0, 0]], 1: [[2, 0], [0, -3]]})
        mixed = reps.tensor(given_rows, given_rows)
        out = [reps.validate_integrable(r) for r in (vnj, chain, cyclic, given_rows, mixed)]
        out.append(reps.validate_integrable(reps.tensor(chain, cyclic)))
        out += [reps.support(mixed), reps.eigenvalues(mixed, 1)]
        v = tuple(Fraction(i - 1, 3) for i in range(mixed.dim))
        out.append(reps.act_word(mixed, (0, 1, 0), v))
        out.append(reps.act_poly(mixed, NcPoly({(0,): 2, (1, 0): Fraction(-1, 2)}), v))
        g = grp.GroupWord([grp.exp_factor(0, Fraction(2, 3)), grp.torus_factor(1, Fraction(-3, 2))])
        out.append(grp.act_group(mixed, g, v))
        h = MatrixCoefficient(mixed, v[::-1], v)
        out.append(h.evaluate_word((0, 1)))
        out.append(duals.expand_rho(h, (1, 0)).items())
        out.append(duals.left_translate(NcPoly({(0,): 3}), h).phi)
        out.append(duals.right_translate(NcPoly({(0, 1): 3}), h).v)
        out.append(grp.derive_left(0, grp.RegularFunction(mixed, v[::-1], v)).phi)
        out.append(duals.product(h, h).evaluate_word((0, 1, 0)))
        out.append(duals.in_shuffle_span(h, 1))
        out.append(reps.submodule_generated(letter_images(chain), [1] + [0] * (chain.dim - 1)).basis())
        return out

    expected = run()

    def refuse(*args):
        raise AssertionError("a Fraction matrix was built")

    monkeypatch.setattr(RepSpec, "matrices", property(refuse))
    monkeypatch.setattr(linalg.Operator, "matrix", refuse)
    assert run() == expected
    assert expected[0] == [] and expected[3] == [] and expected[4] == []
    assert expected[7] == [-6, -1, 4]  # eigenvalue sums of d on the tensor square
