"""Exact rational linear algebra on small dense matrices.

Matrices are tuples of tuples of Fraction (row major), vectors are tuples
of Fraction.  Everything here is deterministic: pivots are always the
first nonzero entry scanning left to right, rows are processed in order.

Storage stays dense, but the kernels skip zero entries.  The modules the
library works with (V_N(J), chains, their tensor products) have letter
matrices that are almost all zero -- V_N(J) has at most one nonzero entry
per column -- and a Fraction product costs far more than the truth test
that skips it.  Keeping the dense rows means callers, the JSON and
``RepSpec.matrices`` need not know about sparsity at all.

A matrix applied many times, as a module's letter matrix is, becomes an
:class:`Operator` once: ``RepSpec`` builds one per letter.  The operator
holds integer rows over one common denominator and decides sparse or dense
once, when it is built.  Its product, ``Operator.image``, takes an integer
vector and runs integer dot products: it gives denom * M v.  A whole action
(a word, a polynomial, a group word on a module) clears its vector's
denominators once with ``integral``, chains ``image`` over its letters while
it multiplies the denominators, and builds one Fraction per nonzero output
entry once, at the end, with ``over``.  ``Operator.pull_back`` gives the
row-vector product phi M on the same integer rows.

Elimination is fraction-free.  :class:`Echelon` clears an input vector's
denominators once and keeps each row as a primitive integer row: the
reduced row times its pivot entry, with a positive pivot entry and gcd 1.
Reduction and back-substitution cross-multiply and divide by the row gcd,
in the manner of Bareiss (Math. Comp. 22, 1968), so no Fraction is built
until ``basis()`` divides each row by its pivot entry.  The reduced row
echelon form of a span is unique, so ``basis()``, ``rref``, ``rank`` and
``solve`` give exactly what Gauss-Jordan elimination over the rationals
gives.  For the same reason a span loop (``reps.submodule_generated``,
``duals.in_shuffle_span``) may run on integer multiples of its vectors,
from ``Operator.image`` to ``Echelon.rows`` and back: a span does not
change when a vector is scaled, and neither does whether a functional
vanishes on it.

An operator counts as sparse when at most a tenth of its entries are
nonzero.  A letter matrix of V_N(J) or of a chain has fewer nonzero entries
than rows, so from dimension 10 on it is always sparse.  Only a sparse
operator has its zeros skipped; a denser one runs the plain dense loop,
whose cost is fixed by the shapes.  Skipping its zeros would make the cost
follow where a change of basis happened to put them: the same job on the
same module, written in two random bases, could cost twice as much in one
as in the other.  ``Operator`` is the only place that makes this choice;
``mat_mul`` and the one-off ``mat_vec`` always skip zeros.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

ZERO = Fraction(0)
ONE = Fraction(1)


class CapError(RuntimeError):
    """A configured size/depth cap would be exceeded."""


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def vec(entries) -> tuple:
    return tuple(frac(x) for x in entries)


def mat(rows) -> tuple:
    return tuple(vec(r) for r in rows)


def zero_vec(n) -> tuple:
    return (ZERO,) * n


def zero_mat(n, m=None) -> tuple:
    m = n if m is None else m
    return tuple((ZERO,) * m for _ in range(n))


def identity(n) -> tuple:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def is_zero_vec(v) -> bool:
    return not any(v)


def is_zero_mat(m) -> bool:
    return all(is_zero_vec(r) for r in m)


def vec_add(u, v) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, v) -> tuple:
    if not c:
        return (ZERO,) * len(v)
    return tuple(c * a if a else ZERO for a in v)


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
    """A fixed matrix M as integer rows over one common denominator: M = rows / denom.

    A sparse matrix (at most a tenth of its entries nonzero) keeps only the
    (column, value) pairs of each row, a dense one its full integer rows; the
    choice is made here, once.
    """

    __slots__ = ("denom", "rows", "sparse", "width")

    def __init__(self, m):
        nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in m]
        self.denom = denom = math.lcm(*{x.denominator for row in nonzero for _, x in row})
        self.width = len(m[0]) if m else 0
        self.sparse = 10 * sum(map(len, nonzero)) <= len(m) * self.width
        if self.sparse:
            self.rows = tuple(
                tuple((j, x.numerator * (denom // x.denominator)) for j, x in row)
                for row in nonzero
            )
        else:
            self.rows = tuple(
                tuple(x.numerator * (denom // x.denominator) for x in row) for row in m
            )

    def image(self, ints) -> list:
        """rows . ints, a list of ints: denom * M v for an integer vector v."""
        if self.sparse:
            return [sum([ints[j] * a for j, a in row]) for row in self.rows]
        return [sum(map(mul, row, ints)) for row in self.rows]

    def pull_back(self, phi) -> tuple:
        """The row vector phi M, on the same integer rows."""
        d, ints = integral(phi)
        if self.sparse:
            sums = [0] * self.width
            for x, row in zip(ints, self.rows):
                if x:
                    for j, a in row:
                        sums[j] += x * a
        else:
            sums = [sum(map(mul, ints, col)) for col in zip(*self.rows)]
        return over(sums, d * self.denom)


def mat_mul(a, b) -> tuple:
    n = len(b[0]) if b else 0
    b_nz = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [ZERO] * n
        for k, x in enumerate(row):
            if x:
                for j, y in b_nz[k]:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_add(a, b) -> tuple:
    return tuple(vec_add(r, s) for r, s in zip(a, b))


def transpose(m) -> tuple:
    if not m:
        return ()
    return tuple(zip(*m))


def kron(a, b) -> tuple:
    """Kronecker product, row-major block layout."""
    if not a or not b:
        return ()
    return tuple(
        tuple(x * y if x and y else ZERO for x in ra for y in rb) for ra in a for rb in b
    )


def vec_kron(u, v) -> tuple:
    return tuple(a * b if a and b else ZERO for a in u for b in v)


class Echelon:
    """Incrementally maintained reduced row echelon basis of a subspace.

    `rows` holds primitive integer rows: each is its reduced row times the
    row's pivot entry, so the pivot entry is positive and the entries have
    gcd 1.  `basis()` divides by the pivot entries.
    """

    def __init__(self):
        self.rows = []
        self.pivots = []
        self._supports = []  # nonzero columns of each row, in order

    def _reduce(self, v):
        """v reduced against every row, as a list of ints: a nonzero multiple of
        the exact remainder, zero exactly when v lies in the span."""
        v = integral(v)[1]
        for row, p, support in zip(self.rows, self.pivots, self._supports):
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
        """Add a vector; returns True if it enlarged the span."""
        v = self._reduce(v)
        support = [j for j, x in enumerate(v) if x]
        if not support:
            return False
        p = support[0]
        _make_primitive(v, support, p)
        a = v[p]
        # back-substitute into existing rows: cross-multiply, clear column p
        for i, row in enumerate(self.rows):
            c = row[p]
            if c:
                g = math.gcd(a, c)
                s, c = a // g, c // g
                if s != 1:
                    for j in self._supports[i]:
                        row[j] *= s
                for j in support:
                    row[j] -= c * v[j]
                # only columns where row or v was nonzero can be nonzero now
                self._supports[i] = row_support = [
                    j for j in sorted({*self._supports[i], *support}) if row[j]
                ]
                _make_primitive(row, row_support, self.pivots[i])
        idx = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(idx, v)
        self.pivots.insert(idx, p)
        self._supports.insert(idx, support)
        return True

    def contains(self, v) -> bool:
        return not any(self._reduce(v))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self):
        """The reduced rows, as tuples of Fraction."""
        return [over(row, row[p]) for row, p in zip(self.rows, self.pivots)]


def _make_primitive(row, support, p) -> None:
    """Divide the int list row, nonzero on support, by its gcd signed as row[p]."""
    g = math.gcd(*[row[j] for j in support])
    if row[p] < 0:
        g = -g
    if g != 1:
        for j in support:
            row[j] //= g


def rank(rows) -> int:
    e = Echelon()
    for r in rows:
        e.add(r)
    return e.rank


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    e = Echelon()
    for r in rows:
        e.add(r)
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
