"""Exact rational linear algebra.

A matrix applied many times, as a module's letter is, is an
:class:`Operator`: integer entries over one common denominator, kept as its
nonzero columns, each the (row, value) pairs of its nonzero entries.  The
constructor stores the columns it is given, so a builder whose map sends
basis vector j somewhere writes column j directly, and
``Operator.from_int_columns`` stores integer columns over a denominator in
lowest terms.  A matrix that arrives as rows is turned into columns in one
place, ``Operator.from_rows`` (rows of ints or Fractions, cleared once),
which touches only the nonzero entries.  ``matrix()``, the Fraction view,
is the only way back to rows.  ``Operator.image`` gives denom * M v for an
integer vector v, ``Operator.pull_back`` denom * phi M.  An action clears
its vector's denominators once with ``integral``, chains the integer
products while it multiplies the denominators, and builds Fractions once,
for the result, with ``over``; ``combine`` sums scaled integer vectors over
one denominator, taken first.  Two series rules serve both group engines,
the free one (``grp``, flat integer lists) and the Kac-Moody one (weight
parts): ``exp_sum`` sums an exp series from its chain of images, in Horner
form, through the caller's own a u + b w, and ``power_scale`` gives the
integer scales of a torus factor s^n over one denominator.  ``mat_mul``
multiplies two Operators, and ``kron`` takes and returns nonzero columns.

``image`` scatters: each stored column whose vector entry is nonzero adds
that entry times its pairs, so M v costs one product per nonzero entry of M
met by a nonzero entry of v (Gustavson, ACM TOMS 4, 1978).  ``pull_back``
takes one integer dot product per stored column, over the pairs whose row
meets a nonzero entry of phi.  ``mat_mul`` runs the same scatter once per
nonzero column of its right factor: column j of A B is A times column j of
B.

``pull_back``'s callers are ``RepSpec.pull_back`` (the left translates
h <| x), the closure walk below, and
``duals.MatrixCoefficient.evaluate_word``, which pulls phi back along a
word letter by letter, from the longest prefix the word shares with the
last one read, and pairs the covector with v.

The closure walk ``reps.submodule_generated`` takes either as its linear
maps: ``image`` spans the vectors U(g) . v of a module, ``pull_back`` the
covectors phi U(g).  On the realization phi(. v) of a finite functional h
the covectors phi M_x are its left translates h <| x, the rows of the
Hankel matrix (h(x y)), whose columns are its right translates x |> h, so
the walk of phi has the dimension of U(g) |> h (Fliess, J. Math. Pures
Appl. 53, 1974).

Elimination is fraction-free.  :class:`Echelon` takes integer vectors (a
caller holding rationals clears them once with ``integral``; a Fraction
raises TypeError) and keeps primitive integer rows in row echelon form:
``add`` reduces a vector against the rows in pivot order, cross-multiplying
and dividing by the row gcd (Bareiss, Math. Comp. 22, 1968), inserts a
nonzero remainder, and changes no stored row.  Most adds of a span loop are
cheap, and take short paths: a zero vector (a nilpotent letter killing the
top of a module) is turned away after one ``any``, with no copy or scan,
and the first row of an empty Echelon is copied and made primitive with no
reduction pass; ``contains`` answers both cases the same way.  A stored row
is always a copy, never the caller's list.  ``contains`` and ``rank`` read
this form.  ``reduce()`` brings the rows to the reduced row echelon
form, each reduced row times its positive pivot entry, by one
back-substitution, bottom row first; it has two callers, ``basis()``, which
then divides by the pivot entries, and the Kac-Moody weight-space build.
Pivots are the first nonzero entry from the left, and the
reduced row echelon form of a span is unique, so ``basis()``, ``rref``,
``rank`` and ``solve`` (which clear their rational rows) equal rational
Gauss-Jordan elimination whatever the order of the rows, and a span loop
(the closure walk ``reps.submodule_generated``, ``duals.in_shuffle_span``)
may run on integer multiples of its vectors: a span does not see their
scale.  ``rref``, ``rank`` and ``solve`` add their rows in order of
decreasing leading column (``by_leading_column``): a row whose leading
column lies left of every pivot so far has a zero there in every stored
row, so it leaves ``reduce()`` nothing to clear.

The Kac-Moody modules keep their f_i and e_i matrices as Operators too.
A weight space is built from integer block products (``mat_mul`` of two
operators; its accumulators start at int 0) whose rows go to an Echelon in
the same order and are reduced once, after the last of them; its f_i
columns are read from the reduced rows' ``supports`` and its e_i columns
from the block rows at the pivots, both through ``from_int_columns``.
"""
from __future__ import annotations

import bisect
import math
from fractions import Fraction
from itertools import compress

ZERO = Fraction(0)

# the one default of LIEREG_DIM_CAP, for the free and the Kac-Moody half
DEFAULT_DIM_CAP = 4096


class CapError(RuntimeError):
    """A configured size/depth cap would be exceeded."""


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def vec(entries) -> tuple:
    return tuple(frac(x) for x in entries)


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v) if a and b), ZERO)


def mat_vec(m, v) -> tuple:
    return tuple(dot(row, v) for row in m)


def integral(v):
    """(d, ints) with v = ints / d: d the least common denominator of v's
    entries (ints or Fractions), ints a new list of ints."""
    d = math.lcm(*{x.denominator for x in v})
    return d, [x.numerator * (d // x.denominator) for x in v]


def over(ints, d) -> tuple:
    """The vector ints / d as a tuple of Fractions: the inverse of integral."""
    return tuple(Fraction(s, d) if s else ZERO for s in ints)


class Operator:
    """A fixed matrix M as integer entries over one common denominator: M = entries / denom.

    Kept as `columns`, its nonzero columns as (j, ((row, value), ...)) in
    increasing j, each in increasing row with no zero value, and stored as
    given: a builder writes them directly (in lowest terms through
    `from_int_columns`), and a matrix that arrives as rows goes through
    `from_rows`.
    """

    __slots__ = ("columns", "denom", "height", "width")

    def __init__(self, columns, denom, height, width):
        self.columns = columns
        self.denom = denom
        self.height = height
        self.width = width

    @classmethod
    def from_rows(cls, m):
        """The operator of a matrix given as rows of ints or Fractions."""
        columns = _nonzero_columns(m)
        denom = math.lcm(*{x.denominator for _, column in columns for _, x in column})
        columns = tuple([
            (j, tuple([(i, x.numerator * (denom // x.denominator)) for i, x in column]))
            for j, column in columns
        ])
        return cls(columns, denom, len(m), len(m[0]) if m else 0)

    @classmethod
    def from_int_columns(cls, columns, denom, height, width):
        """The operator of columns / denom, in lowest terms, for integer columns
        given as (j, [(row, value), ...]) in increasing j and row with no zero
        value; an empty column is left out."""
        columns = [(j, column) for j, column in columns if column]
        if denom != 1:
            g = math.gcd(denom, *[x for _, column in columns for _, x in column])
            if g != 1:
                columns = [(j, [(i, x // g) for i, x in column]) for j, column in columns]
                denom //= g
        return cls(tuple([(j, tuple(column)) for j, column in columns]), denom, height, width)

    def matrix(self) -> tuple:
        """M as a tuple of rows of Fractions."""
        rows = [[0] * self.width for _ in range(self.height)]
        for j, column in self.columns:
            for i, x in column:
                rows[i][j] = x
        return tuple(over(row, self.denom) for row in rows)

    def is_zero(self) -> bool:
        """Whether M = 0."""
        return not self.columns

    def diagonal(self) -> list:
        """The diagonal entries of M as ints, for a matrix whose diagonal is integral."""
        diag = [0] * self.height
        for j, column in self.columns:
            diag[j] = dict(column).get(j, 0) // self.denom
        return diag

    def image(self, ints) -> list:
        """denom * M v for an integer vector v = ints, a list of ints."""
        out = [0] * self.height
        for j, column in self.columns:
            x = ints[j]
            if x:
                for i, a in column:
                    out[i] += x * a
        return out

    def pull_back(self, ints) -> list:
        """denom * phi M for an integer row vector phi = ints, a list of ints."""
        out = [0] * self.width
        for j, column in self.columns:
            total = 0
            for i, a in column:
                x = ints[i]
                if x:
                    total += x * a
            out[j] = total
        return out


def _nonzero_columns(rows) -> list:
    """The nonzero columns of full rows, as (j, [(row, value), ...]) in increasing j."""
    columns = (
        (j, [(i, x) for i, x in enumerate(column) if x]) for j, column in enumerate(zip(*rows))
    )
    return [(j, column) for j, column in columns if column]


def combine(terms, n):
    """(D, ints) with ints / D the sum of c * u / d over the terms (c, d, u),
    c rational and u n ints.  D, the lcm of the c.denominator * d, is taken
    first, so each term is added once, at its nonzero entries, and no
    partial sum is rescaled."""
    terms = [(c.numerator, c.denominator * d, u) for c, d, u in terms]
    den, acc = math.lcm(*[d for _, d, _ in terms]), [0] * n
    for a, d, u in terms:
        s = a * (den // d)
        for j in compress(range(n), u):
            acc[j] += s * u[j]
    return den, acc


def exp_sum(p, q, chain, add):
    """(D, acc) with acc / D = exp(t X) u_0 for t = p/q, q > 0, given the
    chain [(1, u_0), (D_1, u_1), ...] of images X u_(k-1) = u_k / D_k up to
    the last nonzero one; add(a, u, b, w) is a u + b w in the caller's layout.

    The k-th term is p^k u_k over q^k k! D_1 ... D_k.  With m the last k,
    the terms are summed once, in Horner form from u_m down:
    acc <- p acc + (q k D_k) ... (q m D_m) u_(k-1).  Every earlier
    denominator divides the last, so no partial sum is rescaled.
    """
    den, acc = 1, chain[-1][1]
    for k in range(len(chain) - 1, 0, -1):
        den *= q * k * chain[k][0]
        acc = add(p, acc, den, chain[k - 1][1])
    return den, acc


def power_scale(p, q, exponents):
    """(D, {n: D s^n}) for s = p/q, p != 0 < q, and each exponent n: with
    D = q^top |p|^bottom, top the largest exponent and -bottom the least
    (both clipped at 0), every D s^n is an integer."""
    exponents = set(exponents)
    top, bottom = max([0, *exponents]), -min([0, *exponents])
    den = q**top * abs(p) ** bottom
    return den, {n: den * p**n // q**n if n >= 0 else den * q**-n // p**-n for n in exponents}


def mat_mul(a, b) -> list:
    """denom(a) denom(b) A B for two Operators, as full rows of ints: column j
    of A B is A times column j of B, one product per nonzero pair."""
    a_columns = dict(a.columns)
    columns = [(0,) * a.height] * b.width
    for j, column in b.columns:
        acc = [0] * a.height
        for k, y in column:
            for i, x in a_columns.get(k, ()):
                acc[i] += x * y
        columns[j] = acc
    return list(zip(*columns)) if b.width else [()] * a.height


def kron(a, b, height, width) -> tuple:
    """Kronecker product of two matrices given as nonzero columns, b of the
    given height and width: the same form, in row-major block layout."""
    return tuple(
        (j * width + k, tuple((i * height + r, x * y) for i, x in ca for r, y in cb))
        for j, ca in a for k, cb in b
    )


def vec_kron(u, v) -> tuple:
    return tuple(a * b for a in u for b in v)


class Echelon:
    """Incrementally maintained row echelon basis of a subspace.

    `add` and `contains` take integer vectors.  `rows` holds primitive
    integer rows in increasing pivot column: each row is zero left of its
    pivot and at the pivots of the rows stored before it, its pivot entry is
    positive and its entries have gcd 1; `supports` holds each row's nonzero
    columns, in increasing order.  `add` inserts a row, a copy of the
    caller's vector or of its remainder, and changes no stored row; a zero
    vector returns False after one `any`, and a first row is not reduced.
    `reduce()` brings the rows, in place, to the reduced row echelon form
    times the pivot entries; `basis()` reduces and divides by the pivot
    entries.
    """

    def __init__(self):
        self.rows = []
        self.pivots = []
        self.supports = []  # nonzero columns of each row, in order
        self._reduced = True  # every pivot column is zero outside its own row

    def _reduce(self, v):
        """The integer vector v reduced against every row, as a new list of ints:
        a nonzero multiple of the exact remainder, zero exactly when v lies in
        the span.  The copy matters: callers may pass a stored row."""
        v = list(v)
        for row, p, support in zip(self.rows, self.pivots, self.supports):
            c = v[p]
            if c:
                a = row[p]
                g = math.gcd(a, c)
                if g != a:
                    v = list(map((a // g).__mul__, v))
                c //= g
                for j in support:
                    v[j] -= c * row[j]
        return v

    def add(self, v) -> bool:
        """Add a vector; returns True if it enlarged the span.  Neither a
        zero vector nor a first row is reduced: the one is turned away, the
        other copied."""
        if not any(v):
            return False
        v = self._reduce(v) if self.rows else list(v)
        support = list(compress(range(len(v)), v))
        if not support:
            return False
        p = support[0]
        _make_primitive(v, support, p)
        idx = bisect.bisect(self.pivots, p)
        if idx and self._reduced and any(row[p] for row in self.rows[:idx]):
            self._reduced = False
        self.rows.insert(idx, v)
        self.pivots.insert(idx, p)
        self.supports.insert(idx, support)
        return True

    def reduce(self) -> None:
        """Clear each pivot column above its pivot, bottom row first, in place;
        nothing to do when no row above a pivot is nonzero in its column."""
        if self._reduced:
            return
        rows, supports = self.rows, self.supports
        for i in range(len(rows) - 1, 0, -1):
            v, p, support = rows[i], self.pivots[i], supports[i]
            a = v[p]
            # cross-multiply each row above, clear column p, divide by the row gcd
            for k in range(i):
                row = rows[k]
                c = row[p]
                if c:
                    g = math.gcd(a, c)
                    s, c = a // g, c // g
                    if s != 1:
                        for j in supports[k]:
                            row[j] *= s
                    for j in support:
                        row[j] -= c * v[j]
                    # only columns where row or v was nonzero can be nonzero now
                    supports[k] = row_support = [
                        j for j in sorted({*supports[k], *support}) if row[j]
                    ]
                    _make_primitive(row, row_support, self.pivots[k])
        self._reduced = True

    def contains(self, v) -> bool:
        """Whether the integer vector v lies in the span; a nonzero Fraction
        entry raises TypeError, as in `add`, and a zero vector is held."""
        if not any(v):
            return True
        math.gcd(*filter(None, v))  # the integer check
        return bool(self.rows) and not any(self._reduce(v))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self):
        """The reduced rows, as tuples of Fraction."""
        self.reduce()
        return [over(row, row[p]) for row, p in zip(self.rows, self.pivots)]


def _make_primitive(row, support, p) -> None:
    """Divide the int list row, nonzero on support, by its gcd signed as row[p]."""
    g = math.gcd(*[row[j] for j in support])
    if row[p] < 0:
        g = -g
    if g != 1:
        for j in support:
            row[j] //= g


def _echelon(rows) -> Echelon:
    """The Echelon of rows of ints or Fractions, each cleared once."""
    e = Echelon()
    for r in by_leading_column([integral(r)[1] for r in rows]):
        e.add(r)
    return e


def by_leading_column(rows) -> list:
    """The integer rows in order of decreasing leading column (zero rows last),
    the order in which Echelon.reduce() has nothing to clear while each new
    leading column is a new pivot."""
    return sorted(rows, key=_minus_leading_column)


def _minus_leading_column(row) -> int:
    """Minus the index of the first nonzero entry of row; 1 for a zero row."""
    x = next(filter(None, row), 0)
    return -row.index(x) if x else 1


def rank(rows) -> int:
    return _echelon(rows).rank


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    e = _echelon(rows)
    return e.basis(), list(e.pivots)


def solve(a_rows, b):
    """Solve A x = b exactly; A given by rows.  Returns x or None.

    When the system is underdetermined the free variables are set to zero.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    aug = [list(a_rows[i]) + [frac(b[i])] for i in range(m)]
    basis, pivots = rref(aug)
    x = [ZERO] * n
    for row, p in zip(basis, pivots):
        if p == n:
            return None  # inconsistent: pivot in the augmented column
        x[p] = row[n]
    return tuple(x)
