"""Finite-dimensional integrable modules of the free Lie algebra.

A :class:`RepSpec` assigns one exact rational matrix per alphabet letter.
Locally nilpotent letters must act by nilpotent matrices; diagonalizable
letters must be given already diagonal with integer entries (validation
flags non-diagonal input rather than attempting an eigendecomposition).

Convention: a word acts first-letter-outermost,
(x1 x2 ... xk) . v = x1(x2(...(xk v))).
"""
from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType

from . import linalg, words
from .linalg import Echelon, Operator, mat, mat_mul, vec, zero_mat
from .words import Alphabet, NcPoly, Word

DEFAULT_DIM_CAP = 4096


class RepError(ValueError):
    pass


class RepSpec:
    """One exact matrix per letter, plus the letter kinds.

    `matrices` is the public dense form; `operators` holds each letter's
    matrix as an :class:`~liereg.linalg.Operator`, built once here and used
    for every product with a vector.  Both maps are read-only, so the two
    forms cannot drift apart.  `labels` is optional human-readable metadata
    for the basis; it never affects the algebra.
    """

    def __init__(self, alphabet: Alphabet, dim: int, matrices, labels=None):
        self.alphabet = alphabet
        self.dim = dim
        mats = {e: mat(m) for e, m in matrices.items()}
        for e in alphabet.letters():
            if e not in mats:
                mats[e] = zero_mat(dim)
        for e, m in mats.items():
            if len(m) != dim or any(len(r) != dim for r in m):
                raise RepError(f"matrix for letter {alphabet.names[e]} is not {dim}x{dim}")
        self.matrices = MappingProxyType(mats)
        self.operators = MappingProxyType({e: Operator(m) for e, m in mats.items()})
        self.labels = tuple(labels) if labels is not None else None

    def kind(self, letter: int) -> str:
        return self.alphabet.kind(letter)

    def basis_vector(self, i: int):
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(self.dim))

    def check_length(self, v, field: str = "vector") -> None:
        """Raise RepError, naming the field, unless v has one entry per basis vector."""
        if len(v) != self.dim:
            raise RepError(f"{field}: has length {len(v)}, module dimension is {self.dim}")

    def image(self, w: Word, ints):
        """(D, u) with w . ints = u / D, for an integer vector ints.

        The letter operators run on ints in turn and their denominators
        multiply up to D; no Fraction is built.
        """
        d = 1
        for e in reversed(w):
            op = self.operators[e]
            ints = op.image(ints)
            d *= op.denom
        return d, ints


def _is_nilpotent(m, dim) -> bool:
    # repeated squaring: index <= dim always suffices
    power = m
    steps = 1
    while steps < dim:
        if linalg.is_zero_mat(power):
            return True
        power = mat_mul(power, power)
        steps *= 2
    return linalg.is_zero_mat(power)


def _is_integer_diagonal(m) -> bool:
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            if i != j and x != 0:
                return False
            if i == j and x.denominator != 1:
                return False
    return True


def validate_integrable(rep: RepSpec):
    """Structured validation report: list of violations, empty when integrable."""
    violations = []
    for e in rep.alphabet.letters():
        name = rep.alphabet.names[e]
        m = rep.matrices[e]
        if rep.kind(e) == words.NILPOTENT:
            if not _is_nilpotent(m, rep.dim):
                violations.append(f"letter {name}: matrix is not nilpotent")
        else:
            if not _is_integer_diagonal(m):
                violations.append(
                    f"letter {name}: diagonalizable letters must be given as "
                    "diagonal matrices with integer entries"
                )
    return violations


def eigenvalues(rep: RepSpec, letter: int):
    """Diagonal entries of a diagonalizable letter, as a sorted set of ints."""
    if rep.kind(letter) != words.DIAGONAL:
        raise RepError("eigenvalues only defined for diagonalizable letters")
    m = rep.matrices[letter]
    return sorted({int(m[i][i]) for i in range(rep.dim)})


def act_word(rep: RepSpec, w: Word, v):
    rep.check_length(v)
    d, ints = linalg.integral(v)
    dw, ints = rep.image(w, ints)
    return linalg.over(ints, d * dw)


def act_poly(rep: RepSpec, x: NcPoly, v):
    """x . v, its terms summed in integers over one common denominator."""
    rep.check_length(v)
    d, ints = linalg.integral(v)
    den, acc = 1, [0] * rep.dim
    for w, c in x.terms.items():
        dw, u = rep.image(w, ints)
        dw *= c.denominator
        common = math.lcm(den, dw)
        if common != den:
            acc = [a * (common // den) for a in acc]
            den = common
        s = c.numerator * (common // dw)
        acc = [a + s * b for a, b in zip(acc, u)]
    return linalg.over(acc, d * den)


def tensor(r1: RepSpec, r2: RepSpec) -> RepSpec:
    """Tensor product module: letters act as x(x)1 + 1(x)x."""
    if r1.alphabet != r2.alphabet:
        raise RepError("tensor factors must share alphabet and kinds")
    i1 = linalg.identity(r1.dim)
    i2 = linalg.identity(r2.dim)
    mats = {}
    for e in r1.alphabet.letters():
        mats[e] = linalg.mat_add(
            linalg.kron(r1.matrices[e], i2), linalg.kron(i1, r2.matrices[e])
        )
    labels = None
    if r1.labels is not None and r2.labels is not None:
        labels = tuple((a, b) for a in r1.labels for b in r2.labels)
    return RepSpec(r1.alphabet, r1.dim * r2.dim, mats, labels)


def dual_rep(rep: RepSpec) -> RepSpec:
    """The dual module for g^op: transposed matrices, kinds preserved."""
    mats = {e: linalg.transpose(m) for e, m in rep.matrices.items()}
    return RepSpec(rep.alphabet, rep.dim, mats, rep.labels)


def submodule_generated(rep: RepSpec, v):
    """Exact basis of the smallest subspace containing v closed under all letters.

    The walk runs on integer multiples of the vectors (a span does not see
    scale); only the returned reduced basis is built of Fractions.
    """
    ops = [rep.operators[e] for e in sorted(rep.alphabet.letters())]
    ech = Echelon()
    u = linalg.integral(vec(v))[1]
    queue = [u] if ech.add(u) else []
    while queue:
        u = queue.pop(0)
        for op in ops:
            w = op.image(u)
            if ech.add(w):
                queue.append(w)
    return ech.basis()


def support(rep: RepSpec):
    """Letters acting by a nonzero matrix."""
    return frozenset(
        e for e in rep.alphabet.letters() if not linalg.is_zero_mat(rep.matrices[e])
    )


def make_VNJ(alphabet: Alphabet, n: int, j_letters, dim_cap: int = DEFAULT_DIM_CAP) -> RepSpec:
    """The module with basis b_w for words of length <= n over J.

    A letter e sends b_w to b_{e w} when the result stays within the length
    bound, and to zero otherwise.  Letters outside J act by zero.
    """
    j_letters = sorted(set(j_letters))
    if n < 0:
        raise RepError("length bound must be nonnegative")
    if not j_letters:
        raise RepError("J must be nonempty")
    for e in j_letters:
        if not alphabet.is_nilpotent(e):
            raise RepError("V_N(J) requires locally nilpotent letters")
    basis = sorted(words.all_words(j_letters, n), key=words.word_key)
    if len(basis) > dim_cap:
        raise linalg.CapError(
            f"V_N(J) dimension {len(basis)} exceeds the dimension cap {dim_cap}; "
            "raise it with LIEREG_DIM_CAP"
        )
    index = {w: i for i, w in enumerate(basis)}
    dim = len(basis)
    mats = {}
    for e in j_letters:
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        for w, i in index.items():
            target = (e,) + w
            if len(target) <= n:
                rows[index[target]][i] = Fraction(1)
        mats[e] = rows
    return RepSpec(alphabet, dim, mats, labels=basis)


def make_chain(alphabet: Alphabet, seq) -> RepSpec:
    """The module V(e1 e2 ... ep) with basis b0..bp and e_i b_{i-1} = b_i."""
    seq = tuple(seq)
    if not seq:
        raise RepError("chain sequence must be nonempty")
    for a, b in zip(seq, seq[1:]):
        if a == b:
            raise RepError("adjacent chain letters must be distinct")
    for e in seq:
        if not alphabet.is_nilpotent(e):
            raise RepError("chain modules require locally nilpotent letters")
    dim = len(seq) + 1
    mats = {}
    for stage, e in enumerate(seq):
        rows = mats.setdefault(e, [[Fraction(0)] * dim for _ in range(dim)])
        rows[stage + 1][stage] = Fraction(1)
    labels = tuple(f"b{i}" for i in range(dim))
    return RepSpec(alphabet, dim, mats, labels=labels)


def make_cyclic_pair(alphabet: Alphabet, e1: int, e2: int) -> RepSpec:
    """The two-dimensional module with e1 b2 = b1 and e2 b1 = b2.

    Both letters act nilpotently, yet the matrix coefficient attached to
    b1 and the all-ones covector has infinite support on alternating words.
    """
    if e1 == e2:
        raise RepError("the two letters must be distinct")
    for e in (e1, e2):
        if not alphabet.is_nilpotent(e):
            raise RepError("cyclic pair module requires locally nilpotent letters")
    z, o = Fraction(0), Fraction(1)
    mats = {
        e1: [[z, o], [z, z]],  # e1 b2 = b1
        e2: [[z, z], [o, z]],  # e2 b1 = b2
    }
    return RepSpec(alphabet, 2, mats, labels=("b1", "b2"))
