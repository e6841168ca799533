import importlib
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liereg import linalg, reps
from liereg.linalg import Echelon, frac, rank, rref, solve
from liereg.words import Alphabet


def test_frac_passthrough():
    assert frac("3/4") == Fraction(3, 4)
    assert frac(2) == 2


def test_mat_vec():
    m = tuple(tuple(map(Fraction, row)) for row in ((1, 2), (3, 4)))
    assert linalg.mat_vec(m, (1, 1)) == (3, 7)


def test_kron_shape_and_values():
    a = ((0, ((0, 1),)), (1, ((0, 2),)))  # the 1x2 matrix (1 2), as nonzero columns
    b = ((0, ((0, 3), (1, 4))),)  # the 2x1 matrix (3 4)^T
    assert linalg.kron(a, b, 2, 1) == ((0, ((0, 3), (1, 4))), (1, ((0, 6), (1, 8))))
    assert linalg.vec_kron((1, 2), (3, 4)) == (3, 4, 6, 8)


def test_echelon_incremental():
    e = Echelon()
    assert e.add((1, 2, 3))
    assert not e.add((2, 4, 6))
    assert e.add((0, 1, 1))
    assert e.rank == 2
    assert e.contains((1, 3, 4))
    assert not e.contains((0, 0, 1))


def test_rank_and_rref_pivots():
    rows = [(1, 2, 0), (0, 0, 1), (1, 2, 1)]
    assert rank(rows) == 2
    basis, pivots = rref(rows)
    assert pivots == [0, 2]
    assert basis[0][0] == 1 and basis[1][2] == 1


def test_solve_unique():
    a = [(2, 0), (0, 3)]
    assert solve(a, (4, 9)) == (2, 3)
    x = solve([(3,)], (1,))
    assert x == (Fraction(1, 3),) and type(x[0]) is Fraction


def test_solve_overdetermined_consistent():
    a = [(1, 0), (0, 1), (1, 1)]
    assert solve(a, (1, 2, 3)) == (1, 2)


def test_solve_inconsistent():
    a = [(1, 0), (1, 0)]
    assert solve(a, (1, 2)) is None


def test_solve_underdetermined_free_vars_zero():
    a = [(1, 1)]
    assert solve(a, (5,)) == (5, 0)


# ---------------------------------------------------------------------------
# The kernels skip zero entries; these compare them with the plain textbook
# formulas on matrices from all-zero to fully dense, including empty shapes.

ZERO = Fraction(0)
SHAPES = settings(max_examples=60, deadline=None)


def ref_dot(u, v):
    return sum((a * b for a, b in zip(u, v)), ZERO)


def ref_mat_vec(m, v):
    return tuple(ref_dot(row, v) for row in m)


def ref_vec_mat(v, m):
    cols = len(m[0]) if m else 0
    return tuple(sum((v[i] * m[i][j] for i in range(len(v))), ZERO) for j in range(cols))


def ref_mat_mul(a, b, zero=ZERO):
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum((row[k] * b[k][j] for k in range(len(row))), zero) for j in range(cols))
        for row in a
    )


def ref_kron(a, b):
    if not a or not b:
        return ()
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def ref_rref(rows):
    """Textbook Gauss-Jordan elimination; returns (nonzero rows, pivots)."""
    m = [list(r) for r in rows]
    cols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in m[:r]], pivots


@st.composite
def matrices(draw, rows=None, cols=None):
    """Fraction matrices with a drawn share of zeros and some zeroed lines."""
    n = draw(st.integers(0, 6)) if rows is None else rows
    m = draw(st.integers(0, 6)) if cols is None else cols
    zero_pct = draw(st.integers(0, 100))
    nonzero = st.builds(
        Fraction,
        st.integers(-9, 9).filter(bool),
        st.integers(1, 5),
    )
    out = [
        [
            ZERO if draw(st.integers(0, 99)) < zero_pct else draw(nonzero)
            for _ in range(m)
        ]
        for _ in range(n)
    ]
    for i in draw(st.sets(st.integers(0, n - 1))) if n else ():
        out[i] = [ZERO] * m
    for j in draw(st.sets(st.integers(0, m - 1))) if m else ():
        for row in out:
            row[j] = ZERO
    return tuple(tuple(row) for row in out)


@st.composite
def mat_and_vec(draw):
    m = draw(matrices())
    cols = len(m[0]) if m else draw(st.integers(0, 6))
    v = draw(matrices(rows=1, cols=cols))[0]
    return m, v


@st.composite
def composable(draw):
    a = draw(matrices())
    inner = len(a[0]) if a else draw(st.integers(0, 6))
    b = draw(matrices(rows=inner))
    return a, b


@SHAPES
@given(mat_and_vec())
def test_dot_and_mat_vec_match_reference(mv):
    m, v = mv
    assert linalg.mat_vec(m, v) == ref_mat_vec(m, v)
    for row in m:
        assert linalg.dot(row, v) == ref_dot(row, v)


def _apply(op, v):
    """M v through the operator's integer product, as a module action runs it."""
    d, ints = linalg.integral(v)
    return linalg.over(op.image(ints), d * op.denom)


def _pull(op, v):
    """v M through the operator's integer pull-back."""
    d, ints = linalg.integral(v)
    return linalg.over(op.pull_back(ints), d * op.denom)


@SHAPES
@given(mat_and_vec(), st.booleans(), st.booleans())
@example(((), ()), False, False)  # 0x0
@example((((Fraction(-2, 3),),), (Fraction(3, 4),)), False, False)  # 1x1
@example((((ZERO,),), (Fraction(5),)), True, True)
def test_operator_matches_reference(mv, int_matrix, int_vector):
    m, v = mv
    if int_matrix:  # plain ints, as callers may pass them
        m = tuple(tuple(x.numerator for x in row) for row in m)
    if int_vector:
        v = tuple(x.numerator for x in v)
    out = _apply(linalg.Operator.from_rows(m), v)
    assert out == ref_mat_vec(m, v)
    assert all(type(x) is Fraction for x in out)


@st.composite
def vec_and_mat(draw):
    m = draw(matrices())
    v = draw(matrices(rows=1, cols=len(m)))[0]
    return v, m


@SHAPES
@given(vec_and_mat(), st.booleans(), st.booleans())
@example(((), ()), False, False)  # 0x0
@example(((Fraction(3, 4),), ((Fraction(-2, 3),),)), False, False)  # 1x1
@example(((Fraction(5), Fraction(1, 2)), ((ZERO, ZERO), (ZERO, ZERO))), True, True)
@example(  # sparse: 3 of 36 entries nonzero, two of them in one column
    (
        tuple(map(Fraction, (1, Fraction(2, 3), 0, -5, 7, Fraction(1, 2)))),
        tuple(
            tuple({(0, 1): Fraction(3, 2), (2, 5): Fraction(-2), (4, 1): Fraction(5, 3)}
                  .get((i, j), ZERO) for j in range(6))
            for i in range(6)
        ),
    ),
    False,
    False,
)
def test_operator_pull_back_matches_reference(vm, int_matrix, int_vector):
    v, m = vm
    if int_matrix:
        m = tuple(tuple(x.numerator for x in row) for row in m)
    if int_vector:
        v = tuple(x.numerator for x in v)
    out = _pull(linalg.Operator.from_rows(m), v)
    assert out == ref_vec_mat(v, m)
    assert all(type(x) is Fraction for x in out)


@SHAPES
@given(composable())
def test_mat_mul_matches_reference(ab):
    a, b = ab
    op_a, op_b = linalg.Operator.from_rows(a), linalg.Operator.from_rows(b)
    out = linalg.mat_mul(op_a, op_b)
    assert all(type(x) is int for row in out for x in row)
    assert tuple(linalg.over(row, op_a.denom * op_b.denom) for row in out) == ref_mat_mul(a, b)


def _is_canonical(columns) -> bool:
    """Whether nonzero columns are in increasing j, each in increasing row,
    with no empty column and no zero value."""
    js = [j for j, _ in columns]
    return js == sorted(set(js)) and all(
        column and all(x for _, x in column) and rows == sorted(set(rows))
        for _, column in columns
        for rows in [[i for i, _ in column]]
    )


def _dense(columns, height, width):
    """The full rows of a matrix given as canonical nonzero columns."""
    assert _is_canonical(columns)
    out = [[ZERO] * width for _ in range(height)]
    for j, column in columns:
        for i, x in column:
            out[i][j] = x
    return tuple(map(tuple, out))


@SHAPES
@given(matrices(), matrices(), st.booleans())
def test_kron_matches_reference(a, b, integer):
    if integer:  # integer rows, as the tensor product passes them
        a = tuple(tuple(Fraction(x.numerator) for x in row) for row in a)
        b = tuple(tuple(Fraction(x.numerator) for x in row) for row in b)
    op_a, op_b = linalg.Operator.from_rows(a), linalg.Operator.from_rows(b)
    out = linalg.kron(op_a.columns, op_b.columns, op_b.height, op_b.width)
    dense = _dense(out, op_a.height * op_b.height, op_a.width * op_b.width)
    scale = op_a.denom * op_b.denom
    assert tuple(tuple(Fraction(x, scale) for x in row) for row in dense) == ref_kron(a, b)
    if a and b:
        assert linalg.vec_kron(a[0], b[0]) == ref_kron((a[0],), (b[0],))[0]


@SHAPES
@given(matrices(), st.booleans())
@example(((Fraction(6), Fraction(1, 2)), (ZERO, Fraction(-4))), False)  # denom 2, integer diagonal
def test_operator_round_trips_through_its_matrix(m, integer):
    if integer:
        m = tuple(tuple(x.numerator for x in row) for row in m)
    op = linalg.Operator.from_rows(m)
    assert op.matrix() == tuple(tuple(map(Fraction, row)) for row in m)
    assert all(type(x) is Fraction for row in op.matrix() for x in row)
    assert _dense(op.columns, op.height, op.width) == tuple(
        tuple(x * op.denom for x in row) for row in op.matrix()
    )
    if len(m) == op.width and all(Fraction(m[i][i]).denominator == 1 for i in range(len(m))):
        assert op.diagonal() == [m[i][i] for i in range(len(m))]


@SHAPES
@given(matrices(), st.integers(1, 12))
@example(((Fraction(4), Fraction(6)), (ZERO, Fraction(-2))), 4)  # gcd 2 with the denominator
@example(((ZERO, ZERO), (ZERO, ZERO)), 6)
def test_operator_from_int_columns_is_in_lowest_terms(m, denom):
    rows = [[x.numerator for x in row] for row in m]  # integer rows, then over denom
    width = len(m[0]) if m else 0
    # every column, empty ones too: the constructor leaves those out
    columns = [(j, [(i, row[j]) for i, row in enumerate(rows) if row[j]]) for j in range(width)]
    op = linalg.Operator.from_int_columns(columns, denom, len(rows), width)
    expected = tuple(tuple(Fraction(x, denom) for x in row) for row in rows)
    assert op.matrix() == expected and (op.height, op.width) == (len(rows), width)
    assert op.denom == math.lcm(*{x.denominator for row in expected for x in row})
    assert op.columns == linalg.Operator.from_rows(expected).columns
    assert _is_canonical(op.columns)


@SHAPES
@given(matrices())
# the second row's back-substitution fills a zero of the first row, which
# the third row must then see
@example(tuple(tuple(map(Fraction, r)) for r in ((1, 1, 0), (0, 1, 1), (1, 0, 0))))
def test_rank_and_rref_match_reference(m):
    basis, pivots = ref_rref(m)
    assert rank(m) == len(pivots)
    assert rref(m) == (basis, pivots)


@SHAPES
@given(mat_and_vec())
def test_solve_matches_reference(mv):
    a, x0 = mv
    cols = len(a[0]) if a else 0  # a matrix with no rows has no width
    rows = len(a)
    b = ref_mat_vec(a, x0)
    # a consistent right-hand side, and one perturbed in a single entry
    for rhs in (b, tuple(y + (i == 0) for i, y in enumerate(b))):
        x = solve(a, rhs)
        aug = [tuple(a[i]) + (rhs[i],) for i in range(rows)]
        consistent = len(ref_rref(a)[1]) == len(ref_rref(aug)[1]) if rows else True
        if not consistent:
            assert x is None
            continue
        assert x is not None and len(x) == cols
        assert ref_mat_vec(a, x) == rhs
        pivots = set(ref_rref(a)[1])
        assert all(x[j] == 0 for j in range(cols) if j not in pivots)


class CountingFraction(Fraction):
    """A Fraction that counts how often it is the left factor of a product."""

    products = 0

    def __mul__(self, other):
        CountingFraction.products += 1
        return Fraction.__mul__(self, other)


def _counting(m):
    return tuple(tuple(CountingFraction(x) for x in row) for row in m)


def test_mat_vec_multiplies_only_nonzero_pairs():
    rep = reps.make_VNJ(Alphabet(("e1", "e2", "e3")), 4, (0, 1, 2))
    assert rep.dim == 121
    m = _counting(rep.matrices[0])
    for v in (rep.basis_vector(0), (Fraction(1),) * rep.dim):
        v = tuple(CountingFraction(x) for x in v)
        pairs = sum(1 for row in m for x, y in zip(row, v) if x and y)
        CountingFraction.products = 0
        assert linalg.mat_vec(m, v) == ref_mat_vec(m, v)
        # ref_mat_vec multiplies every pair, zero or not
        assert CountingFraction.products == pairs + rep.dim * rep.dim
        CountingFraction.products = 0
        linalg.mat_vec(m, v)
        assert CountingFraction.products == pairs
    assert pairs == 40  # words of length <= 3 over three letters


def test_mat_mul_multiplies_only_nonzero_pairs():
    rep = reps.make_VNJ(Alphabet(("e1", "e2", "e3")), 4, (0, 1, 2))
    a, b = (_counting_operator(rep.operators[e]) for e in (0, 1))
    # the dense reference runs in ints: in Fractions it takes seconds on 121 x 121
    ma, mb = ([[int(x) for x in row] for row in rep.matrices[e]] for e in (0, 1))
    pairs = sum(1 for row in ma for k, x in enumerate(row) if x for y in mb[k] if y)
    assert pairs == 13  # e1 e2 b_w for the words w of length <= 2 over three letters
    CountingInt.products = 0
    assert linalg.mat_mul(a, b) == list(ref_mat_mul(ma, mb, 0))
    assert CountingInt.products == pairs


class CountingInt(int):
    """An int that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        CountingInt.products += 1
        return int.__mul__(self, other)

    __rmul__ = __mul__


def _counting_operator(op):
    """op with CountingInt values."""
    columns = tuple((j, tuple((i, CountingInt(x)) for i, x in column)) for j, column in op.columns)
    return linalg.Operator(columns, op.denom, op.height, op.width)


def test_operator_image_multiplies_only_nonzero_pairs():
    rep = reps.make_VNJ(Alphabet(("e1", "e2", "e3")), 4, (0, 1, 2))
    assert rep.dim == 121
    empty = rep.labels.index(())
    b_empty = [CountingInt(int(i == empty)) for i in range(rep.dim)]
    ones = [CountingInt(1)] * rep.dim
    for e, op in rep.operators.items():
        nnz = sum(len(column) for _, column in op.columns)
        assert nnz == 40  # words of length <= 3 over three letters
        CountingInt.products = 0
        assert op.image(b_empty) == [int(w == (e,)) for w in rep.labels]
        assert CountingInt.products == 1  # b_() has one nonzero entry, its column one pair
        CountingInt.products = 0
        op.image(ones)
        assert CountingInt.products == nnz
        CountingInt.products = 0
        op.pull_back(ones)
        assert CountingInt.products == nnz
        # a one-hot covector multiplies only the pairs of its row
        m = op.matrix()
        for row in {empty, max(range(rep.dim), key=lambda r: sum(map(bool, m[r])))}:
            one_hot = [CountingInt(int(i == row)) for i in range(rep.dim)]
            CountingInt.products = 0
            assert op.pull_back(one_hot) == list(m[row])
            assert CountingInt.products == sum(map(bool, m[row]))
    # an operator with no zero entry takes one product per pair it meets too
    n = 11
    full = linalg.Operator.from_rows([[i + j + 1 for j in range(n)] for i in range(n)])
    for v, products in (([CountingInt(int(i == 0)) for i in range(n)], n),
                        ([CountingInt(1)] * n, n * n)):
        CountingInt.products = 0
        full.image(v)
        assert CountingInt.products == products


# ---------------------------------------------------------------------------
# Echelon keeps primitive integer rows; its answers must be those of plain
# Gauss-Jordan elimination over the rationals.


def _as_fractions(rows):
    return [tuple(map(Fraction, r)) for r in rows]


@st.composite
def echelon_steps(draw, max_width=6, max_steps=10):
    """add/contains calls on int, Fraction and mixed vectors of one width,
    some repeating or combining earlier ones."""
    n = draw(st.integers(0, max_width))
    zero_pct = draw(st.integers(0, 100))
    entry = st.one_of(
        st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
    )
    steps, seen = [], []
    for _ in range(draw(st.integers(0, max_steps))):
        how = draw(st.sampled_from(("fresh", "repeat", "combine"))) if seen else "fresh"
        if how == "fresh":
            v = [0 if draw(st.integers(0, 99)) < zero_pct else draw(entry) for _ in range(n)]
        elif how == "repeat":
            v = list(draw(st.sampled_from(seen)))
        else:
            a, b = draw(st.sampled_from(seen)), draw(st.sampled_from(seen))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            v = [s * x + t * y for x, y in zip(a, b)]
        form = draw(st.sampled_from(("int", "fraction", "mixed")))
        if form == "int":
            v = [x.numerator if Fraction(x).denominator == 1 else x for x in v]
        elif form == "fraction":
            v = [Fraction(x) for x in v]
        seen.append(tuple(v))
        steps.append((draw(st.sampled_from(("add", "contains"))), tuple(v)))
    return steps


@SHAPES
@given(echelon_steps())
def test_echelon_matches_reference(steps):
    e = Echelon()
    added = []
    for op, v in steps:
        grows = len(ref_rref(_as_fractions(added + [v]))[1]) > len(ref_rref(_as_fractions(added))[1])
        ints = linalg.integral(v)[1]  # Echelon takes integer vectors
        if op == "add":
            assert e.add(ints) is grows
            added.append(v)
        else:
            assert e.contains(ints) is not grows
        basis, pivots = ref_rref(_as_fractions(added))
        assert e.rank == len(pivots)
        assert e.pivots == pivots
        assert e.basis() == basis
        assert all(type(x) is Fraction for row in e.basis() for x in row)


@SHAPES
@given(echelon_steps(max_width=16, max_steps=24), st.integers(0, 24))
@example([("add", (2, 1, 1)), ("add", (0, -3, 3)), ("add", (0, 0, 1))], 2)
def test_echelon_reduces_only_when_the_reduced_form_is_read(steps, cut):
    """add, contains, rank and pivots run on the unreduced rows and agree
    with Gauss-Jordan elimination; basis() is read at step `cut`, with more
    steps after it, and at the end."""
    e = Echelon()
    basis, pivots = [], []  # the reference RREF of the vectors added so far
    for i, (op, v) in enumerate(steps):
        if i == cut:
            assert e.basis() == basis
        grown = ref_rref(basis + _as_fractions([v]))
        grows = len(grown[1]) > len(pivots)
        ints = linalg.integral(v)[1]
        if op == "add":
            assert e.add(ints) is grows
            basis, pivots = grown
        else:
            assert e.contains(ints) is not grows
        assert e.rank == len(pivots)
        assert e.pivots == pivots
        # primitive rows, zero left of a positive pivot entry, spanning the same space
        for row, p in zip(e.rows, e.pivots):
            assert not any(row[:p]) and row[p] > 0 and math.gcd(*row) == 1
        assert ref_rref(_as_fractions(e.rows)) == (basis, pivots)
    assert e.basis() == basis


def test_echelon_add_changes_no_stored_row():
    # each vector's pivot column is nonzero in a row stored before it, which
    # a kept-up reduced form would have to clear
    vectors = [(1, 1, 0, 0), (0, 2, 1, 0), (3, 0, 0, 1), (0, 0, 1, 1), (1, 2, 3, 4)]
    e = Echelon()
    for v in vectors:
        stored = [(row, list(row)) for row in e.rows]
        e.add(v)
        assert all(any(row is r for r in e.rows) and row == value for row, value in stored)
    assert e.rows == [[1, 1, 0, 0], [0, 2, 1, 0], [0, 0, 3, 2], [0, 0, 0, 1]]
    e.reduce()
    assert e.rows == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def _count_reductions(monkeypatch):
    """Patch Echelon._reduce to count its calls; returns the counter."""
    calls = [0]
    reduce_ = Echelon._reduce

    def counting_reduce(self, v):
        calls[0] += 1
        return reduce_(self, v)

    monkeypatch.setattr(Echelon, "_reduce", counting_reduce)
    return calls


def test_a_zero_vector_is_turned_away_unreduced(monkeypatch):
    calls = _count_reductions(monkeypatch)
    empty, e = Echelon(), Echelon()
    e.add([0, 2, 4])
    e.add([1, 0, 1])
    calls[0] = 0
    for ech in (empty, e):
        stored = ([list(r) for r in ech.rows], list(ech.pivots), [list(s) for s in ech.supports])
        for zero in ([0, 0, 0], (0, 0, 0), [Fraction(0)] * 3):
            assert ech.add(zero) is False
            assert ech.contains(zero) is True
        assert (ech.rows, ech.pivots, ech.supports) == stored
    assert Echelon().add([]) is False and Echelon().contains([]) is True
    assert calls[0] == 0
    assert e.add([1, 2, 3]) is True and calls[0] == 1  # the counter sees a real reduction


def test_a_first_row_is_copied_and_made_primitive_unreduced(monkeypatch):
    calls = _count_reductions(monkeypatch)
    for v in ([0, -4, 6, 0, 2], (0, -4, 6, 0, 2)):
        given = list(v)
        e = Echelon()
        assert e.contains(v) is False
        assert e.add(v) is True
        assert calls[0] == 0
        row = e.rows[0]
        assert row is not v and type(row) is list
        assert (e.rows, e.pivots, e.supports) == ([[0, 2, -3, 0, -1]], [1], [[1, 2, 4]])
        assert row[e.pivots[0]] > 0 and math.gcd(*row) == 1
        e.add([0, 0, 1, 0, 0])  # nonzero in the first row at its pivot: reduce() rewrites that row
        e.reduce()
        assert e.rows == [[0, 2, 0, 0, -1], [0, 0, 1, 0, 0]]
        assert e.basis() == [(0, 1, 0, 0, Fraction(-1, 2)), (0, 0, 1, 0, 0)]
        assert list(v) == given
        assert calls[0] == 1
        calls[0] = 0
    assert Echelon().add([7]) is True  # a one-entry row is divided by itself
    e = Echelon()
    e.add([3, 0])
    assert e.rows == [[1, 0]]


@st.composite
def integer_vector_lists(draw, max_width=7, max_length=14):
    """Lists of integer vectors of one width: fresh ones, zero vectors,
    repeats (the same list object or an equal copy) and combinations."""
    n = draw(st.integers(1, max_width))
    out = []
    for _ in range(draw(st.integers(0, max_length))):
        how = draw(st.sampled_from(("fresh", "zero", "repeat", "copy", "combine")))
        if how == "zero" or not out and how != "fresh":
            v = [0] * n
        elif how == "fresh":
            v = [draw(st.sampled_from((0, 0, 1, -1, 2, -3, 6, 10))) for _ in range(n)]
        elif how == "repeat":
            v = draw(st.sampled_from(out))
        elif how == "copy":
            v = list(draw(st.sampled_from(out)))
        else:
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            v = [s * x + t * y for x, y in zip(a, b)]
        out.append(v)
    return n, out


@SHAPES
@given(integer_vector_lists())
@example((3, [[0, 0, 0], [0, 2, -4], [0, 0, 0], [0, 2, -4], [1, 1, 1]]))
@example((2, [[0, 0], [0, 0]]))
def test_echelon_on_integer_vectors_matches_reference(case):
    """Zero vectors, repeats and first rows, taken with their short paths,
    give the rank, pivots, membership and basis of Gauss-Jordan elimination,
    and no stored row is the caller's list."""
    n, vectors = case
    originals = [list(v) for v in vectors]
    e = Echelon()
    added = []
    for v in vectors:
        def held(u):
            return len(ref_rref(_as_fractions([*added, u]))[1]) == e.rank

        grows = not held(v)
        assert e.contains(v) is not grows
        assert e.add(v) is grows
        added.append(list(v))
        pivots = ref_rref(_as_fractions(added))[1]
        assert e.rank == len(pivots)
        assert e.pivots == pivots
        for probe in (*vectors, [0] * n, [1] * n):
            assert e.contains(probe) is held(probe)
    assert all(row is not v for row in e.rows for v in vectors)
    assert e.basis() == ref_rref(_as_fractions(added))[0]
    assert [list(v) for v in vectors] == originals


def test_free_span_jobs_make_no_back_substitution(monkeypatch):
    """One pass over the benchmark's seed-201 free-span job list: 2,257
    Echelon.add calls, 1,254 of them accepted, and at most 20 stored rows
    updated (each update, like each new row, ends in one _make_primitive
    call).  An Echelon that kept its reduced form up to date on every add
    updated 1,017 rows on the list of that time, which realized finite
    functionals on V_N(J).  The counts pin that job list."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workload = importlib.import_module("workloads").build("free-span", 201)
    counts = {"add": 0, "accepted": 0, "primitive": 0}
    add, make_primitive = Echelon.add, linalg._make_primitive

    def counting_add(self, v):
        counts["add"] += 1
        grew = add(self, v)
        counts["accepted"] += grew
        return grew

    def counting_make_primitive(*args):
        counts["primitive"] += 1
        make_primitive(*args)

    monkeypatch.setattr(Echelon, "add", counting_add)
    monkeypatch.setattr(linalg, "_make_primitive", counting_make_primitive)
    for job in workload.jobs:
        job.call()
    assert (counts["add"], counts["accepted"]) == (2257, 1254)
    assert counts["primitive"] - counts["accepted"] <= 20


def test_echelon_negative_pivot_and_back_substitution_gcd():
    e = Echelon()
    assert e.add((2, 1, 1))
    assert e.rows == [[2, 1, 1]]  # primitive, pivot entry 2
    assert e.basis() == [(1, Fraction(1, 2), Fraction(1, 2))]
    # first entry -3: divided by -3, so the pivot entry turns positive
    assert e.add((0, -3, 3))
    assert e.rows == [[2, 1, 1], [0, 1, -1]]  # add changes no stored row
    # (2, 1, 1) - (0, 1, -1) = (2, 0, 2), divided by its gcd 2
    e.reduce()
    assert e.rows == [[1, 0, 1], [0, 1, -1]]
    assert e.pivots == [0, 1]
    assert e.basis() == [(1, 0, 1), (0, 1, -1)]
    assert e.contains(linalg.integral((Fraction(1, 3), Fraction(-5, 3), Fraction(2)))[1])
    assert not e.contains((0, 0, 1))


def test_echelon_rejects_fractions():
    # as a first row, as a pivot entry met by a stored row, and past every pivot
    for v in ((Fraction(1, 2), 1), (Fraction(2), 0)):
        with pytest.raises(TypeError):
            Echelon().add(v)
    e = Echelon()
    e.add((1, 0))
    for v in ((Fraction(1, 2), 1), (0, Fraction(1, 2))):
        with pytest.raises(TypeError):
            e.add(v)
    # contains keeps the rule, with no row to reduce against and past every pivot
    with pytest.raises(TypeError):
        Echelon().contains((Fraction(1, 2), 1))
    with pytest.raises(TypeError):
        e.contains((0, Fraction(1, 2)))
    # a zero vector is held, Fraction(0) entries included
    assert Echelon().contains((Fraction(0), 0)) and e.contains((Fraction(0), Fraction(0)))


class ArithmeticCountingFraction(Fraction):
    """A Fraction that counts its products, differences and quotients."""

    calls = 0

    def _counted(name):
        def op(self, other):
            ArithmeticCountingFraction.calls += 1
            return getattr(Fraction, name)(self, other)
        return op

    __mul__, __rmul__ = _counted("__mul__"), _counted("__rmul__")
    __sub__, __rsub__ = _counted("__sub__"), _counted("__rsub__")
    __truediv__, __rtruediv__ = _counted("__truediv__"), _counted("__rtruediv__")
    del _counted


def test_echelon_runs_without_fraction_arithmetic():
    def counting(*entries):
        return tuple(ArithmeticCountingFraction(x) for x in entries)

    vectors = [
        counting(Fraction(2, 3), -1, 0, Fraction(5, 7)),
        counting(0, Fraction(-3, 4), Fraction(1, 2), 2),
        counting(Fraction(4, 3), Fraction(-11, 4), Fraction(1, 2), Fraction(24, 7)),  # dependent
        counting(1, 1, 1, 1),
        counting(0, 0, Fraction(-9, 5), 3),
    ]
    assert sum(1 for x in vectors[0] if x) == 3  # the guard sees real work
    ArithmeticCountingFraction.calls = 0
    # rref and rank clear each row once, with integral, then eliminate in ints
    accepted = [rank(vectors[:i + 1]) > rank(vectors[:i]) for i in range(len(vectors))]
    basis, pivots = rref(vectors)
    e = Echelon()
    for v in vectors:
        e.add(linalg.integral(v)[1])
    held = [e.contains(linalg.integral(v)[1]) for v in vectors]
    assert ArithmeticCountingFraction.calls == 0
    assert accepted == [True, True, False, True, True] and all(held)
    assert (basis, pivots) == ref_rref(_as_fractions(vectors))


@st.composite
def combine_terms(draw):
    """A length n and terms (c, d, u) for linalg.combine: c an int or a
    Fraction, d a positive denominator, u n ints, at times zero or a unit
    vector."""
    n = draw(st.integers(0, 5))
    vectors = [st.lists(st.integers(-9, 9), min_size=n, max_size=n), st.just([0] * n)]
    if n:
        vectors.append(st.integers(0, n - 1).map(lambda i: [int(j == i) for j in range(n)]))
    coeff = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=12))
    terms = st.tuples(coeff, st.integers(1, 30), st.one_of(*vectors))
    return n, draw(st.lists(terms, max_size=6))


@settings(max_examples=200, deadline=None)
@given(combine_terms())
# the lcm grows at every term, a zero vector's among them
@example((3, [(Fraction(1, 2), 1, [1, 0, 0]), (3, 4, [0, 0, 0]),
              (Fraction(-2, 3), 5, [2, -1, 7]), (1, 7, [0, 0, 1])]))
@example((2, []))
def test_combine_is_the_fraction_sum(case):
    n, terms = case
    den, ints = linalg.combine(iter(terms), n)  # a generator, as poly_image passes them
    assert den == math.lcm(*[Fraction(c).denominator * d for c, d, _ in terms])
    assert all(type(x) is int for x in ints)
    expected = [sum((Fraction(c) * u[j] / d for c, d, u in terms), Fraction(0)) for j in range(n)]
    assert [Fraction(x, den) for x in ints] == expected


@pytest.mark.parametrize("p, q", [(2, 3), (-2, 3), (-5, 1), (1, 4), (-7, 2)])
def test_power_scale_matches_fraction_powers(p, q):
    # exponents of both signs, 0 and a repeated one
    for exponents in ([3, -2, 0, 3, 1, -1], [2, 2], [-3], [0]):
        den, scale = linalg.power_scale(p, q, iter(exponents))
        top, bottom = max(0, *exponents), -min(0, *exponents)
        assert den == q**top * abs(p) ** bottom and set(scale) == set(exponents)
        for n in exponents:
            assert type(scale[n]) is int and Fraction(scale[n], den) == Fraction(p, q) ** n
    assert linalg.power_scale(p, q, []) == (1, {})


def _add(key, p, q=1):
    return (key, True, p, q)


def _mul(key, p, q=1):
    return (key, False, p, q)


@pytest.mark.parametrize("factors, normal_form", [
    ([], []),
    # a run adds its parameters when additive, in lowest terms
    ([_add("e", 1, 3), _add("e", 1, 6)], [_add("e", 1, 2)]),
    # and multiplies them otherwise
    ([_mul("s", 2, 3), _mul("s", -9, 4), _mul("s", 5)], [_mul("s", -15, 2)]),
    # an identity factor is left out, alone or once a run folds to it
    ([_add("e", 0), _mul("s", 1), _add("f", 2), _add("f", -2)], []),
    ([_mul("s", -2, 3), _mul("s", -3, 2), _add("e", 1)], [_add("e", 1)]),
    # the factors a dropped run parted meet and fold in turn: e(1) f(2) f(-2) e(3) = e(4)
    ([_add("e", 1), _add("f", 2), _add("f", -2), _add("e", 3)], [_add("e", 4)]),
    # different keys stay apart, in order
    ([_add("e", 1), _add("f", 1), _add("e", 1)], [_add("e", 1), _add("f", 1), _add("e", 1)]),
])
def test_reduced_word_folds_runs_and_drops_identities(factors, normal_form):
    assert linalg.reduced_word(iter(factors)) == normal_form
    assert linalg.reduced_word(normal_form) == normal_form  # a normal form is its own


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from([-2, -1, 0, 1, 2]),
                          st.integers(1, 3)), max_size=8))
def test_reduced_word_is_the_fraction_normal_form(spec):
    """Keys a and b are additive, c multiplicative (with no zero parameter),
    each parameter in lowest terms, as a Fraction gives it; the reference
    folds on a stack of Fractions."""
    params = [Fraction(1 if k == "c" and not p else p, q) for k, p, q in spec]
    factors = [(k, k != "c", t.numerator, t.denominator) for (k, _, _), t in zip(spec, params)]
    stack = []
    for (key, additive, _, _), t in zip(factors, params):
        if stack and stack[-1][0] == key:
            t = stack.pop()[1] + t if additive else stack.pop()[1] * t
        if t != (0 if additive else 1):
            stack.append((key, t))
    out = linalg.reduced_word(factors)
    assert [(key, Fraction(p, q)) for key, _, p, q in out] == stack
    assert all(math.gcd(p, q) == 1 and q > 0 for _, _, p, q in out)
