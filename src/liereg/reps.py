"""Finite-dimensional integrable modules of the free Lie algebra.

A :class:`RepSpec` assigns one exact rational matrix per alphabet letter.
Locally nilpotent letters must act by nilpotent matrices; diagonalizable
letters must be given already diagonal with integer entries (validation
flags non-diagonal input rather than attempting an eigendecomposition).

Convention: a word acts first-letter-outermost,
(x1 x2 ... xk) . v = x1(x2(...(xk v))).

Actions run on integer vectors over one denominator.  `RepSpec.image` moves
a vector along a word and `RepSpec.pull_back` a covector, each stopping at
the letter that makes it zero; `poly_image` and `poly_pull_back` are the one
core for a polynomial sum c w, its terms summed in integers by
linalg.combine; `exp_chain` is the one chain of images an exp factor or a
Taylor development of a locally nilpotent letter reads, and the one place
that refuses a letter whose matrix is not nilpotent.  Fractions are built
only at the edge: `act_word` and `act_poly` clear their input once and
build the result with linalg.over.
"""
from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType

from . import linalg, words
from .linalg import Echelon, Operator
from .words import Alphabet, NcPoly, Word


class RepError(ValueError):
    pass


class RepSpec:
    """One exact matrix per letter, plus the letter kinds.

    `operators` holds each letter's matrix, stored once, as an Operator: the
    builders below emit them, and rows of ints or Fractions are cleared here.
    `matrices` is a read-only Fraction view of them.  `labels` is optional
    human-readable metadata for the basis.
    """

    def __init__(self, alphabet: Alphabet, dim: int, matrices, labels=None):
        self.alphabet = alphabet
        self.dim = dim
        ops = {}
        for e in alphabet.letters():
            m = matrices.get(e)
            if m is None:
                m = Operator((), 1, dim, dim)
            elif not isinstance(m, Operator):
                if len(m) != dim or any(len(r) != dim for r in m):
                    raise RepError(f"matrix for letter {alphabet.names[e]} is not {dim}x{dim}")
                m = Operator.from_rows(m)
            ops[e] = m
        self.operators = MappingProxyType(ops)
        self.labels = tuple(labels) if labels is not None else None

    @property
    def matrices(self):
        """Each letter's matrix as a tuple of Fraction rows, computed from its operator."""
        return MappingProxyType({e: op.matrix() for e, op in self.operators.items()})

    def kind(self, letter: int) -> str:
        return self.alphabet.kind(letter)

    def basis_vector(self, i: int):
        """b_i as a tuple of Fractions: one Fraction(1), linalg.ZERO elsewhere."""
        if not 0 <= i < self.dim:
            raise RepError(f"basis index {i} is outside the module: dimension is {self.dim}")
        v = [linalg.ZERO] * self.dim
        v[i] = Fraction(1)
        return tuple(v)

    def check_length(self, v, field: str = "vector") -> None:
        """Raise RepError, naming the field, unless v has one entry per basis vector."""
        if len(v) != self.dim:
            raise RepError(f"{field}: has length {len(v)}, module dimension is {self.dim}")

    def image(self, w: Word, ints):
        """(D, u) with w . ints = u / D, for an integer vector ints; no Fraction
        is built.  The letters stop once the vector is zero: u is then zero,
        over the denominators met so far, and the letters left unread are
        only checked to lie in the alphabet (RepError otherwise)."""
        d = 1
        letters = reversed(w)
        for e in letters:
            try:
                op = self.operators[e]
            except KeyError:
                raise self._letter_error(e) from None
            ints = op.image(ints)
            d *= op.denom
            if not any(ints):
                self._check_letters(letters)  # the letters not yet read
                break
        return d, ints

    def pull_back(self, w: Word, ints):
        """(D, p) with phi M_w1 ... M_wk = p / D, for an integer row vector
        phi = ints.  The letters stop once the covector is zero, as in image."""
        d = 1
        letters = iter(w)
        for e in letters:
            try:
                op = self.operators[e]
            except KeyError:
                raise self._letter_error(e) from None
            ints = op.pull_back(ints)
            d *= op.denom
            if not any(ints):
                self._check_letters(letters)  # the letters not yet read
                break
        return d, ints

    def poly_image(self, x: NcPoly, ints):
        """(D, u) with x . ints = u / D, for an integer vector ints: the images
        c w . ints of x's terms summed in integers over one denominator."""
        return linalg.combine(((c, *self.image(w, ints)) for w, c in x.terms.items()), self.dim)

    def poly_pull_back(self, x: NcPoly, ints):
        """(D, p) with the sum of c phi M_w over x's terms c w equal to p / D,
        for an integer row vector phi = ints, summed as in poly_image."""
        return linalg.combine(((c, *self.pull_back(w, ints)) for w, c in x.terms.items()),
                              self.dim)

    def exp_chain(self, letter: int, ints):
        """[(1, ints), (D, u_1), ...] with M u_(k-1) = u_k / D, M = R / D the
        letter's matrix: the images of the integer vector ints up to the last
        nonzero one, the chain that linalg.exp_sum sums into exp(t M) ints.
        RepError after dim + 1 nonzero images: the matrix is not nilpotent."""
        op = self.operators[letter]
        chain = [(1, ints)]
        u = op.image(ints)
        while any(u):
            if len(chain) > self.dim:
                raise RepError("exp series did not terminate: matrix not nilpotent")
            chain.append((op.denom, u))
            u = op.image(u)
        return chain

    def _letter_error(self, e) -> RepError:
        return RepError(f"letter {e} is not in the alphabet ({', '.join(self.alphabet.names)})")

    def _check_letters(self, letters) -> None:
        """Raise RepError for the first of letters that is not in the alphabet."""
        for e in letters:
            if e not in self.operators:
                raise self._letter_error(e)


def _is_nilpotent(op: Operator) -> bool:
    """Whether the ranks of M^k fall to 0: the column space of M^(k+1) lies in
    that of M^k, so once two ranks agree the spaces do, and stay so."""
    cols = [[0] * i + [1] + [0] * (op.width - i - 1) for i in range(op.width)]
    while cols:
        space = Echelon()
        for col in cols:
            col = op.image(col)
            if any(col):
                space.add(col)
        if space.rank == len(cols):
            return False
        cols = space.rows
    return True


def _is_integer_diagonal(op: Operator) -> bool:
    return all(i == j and x % op.denom == 0 for j, column in op.columns for i, x in column)


def validate_integrable(rep: RepSpec):
    """Structured validation report: list of violations, empty when integrable."""
    violations = []
    for e in rep.alphabet.letters():
        name = rep.alphabet.names[e]
        op = rep.operators[e]
        if rep.kind(e) == words.NILPOTENT:
            if not _is_nilpotent(op):
                violations.append(f"letter {name}: matrix is not nilpotent")
        elif not _is_integer_diagonal(op):
            violations.append(
                f"letter {name}: diagonalizable letters must be given as "
                "diagonal matrices with integer entries"
            )
    return violations


def eigenvalues(rep: RepSpec, letter: int):
    """Diagonal entries of a diagonalizable letter, as a sorted set of ints."""
    if rep.kind(letter) != words.DIAGONAL:
        raise RepError("eigenvalues only defined for diagonalizable letters")
    return sorted(set(rep.operators[letter].diagonal()))


def act_word(rep: RepSpec, w: Word, v):
    rep.check_length(v)
    d, ints = linalg.integral(v)
    dw, ints = rep.image(w, ints)
    return linalg.over(ints, d * dw)


def act_poly(rep: RepSpec, x: NcPoly, v):
    """x . v, its terms summed in integers over one common denominator."""
    rep.check_length(v)
    d, ints = linalg.integral(v)
    den, acc = rep.poly_image(x, ints)
    return linalg.over(acc, d * den)


def tensor(r1: RepSpec, r2: RepSpec) -> RepSpec:
    """Tensor product module: letters act as x(x)1 + 1(x)x, summed column by
    column from two Kronecker products of integer columns over the lcm of the
    two denominators."""
    if r1.alphabet != r2.alphabet:
        raise RepError("tensor factors must share alphabet and kinds")
    n1, n2 = r1.dim, r2.dim
    ops = {}
    for e in r1.alphabet.letters():
        a, b = r1.operators[e], r2.operators[e]
        d = math.lcm(a.denom, b.denom)
        left = linalg.kron(a.columns, [(k, ((k, d // a.denom),)) for k in range(n2)], n2, n2)
        right = linalg.kron([(i, ((i, d // b.denom),)) for i in range(n1)], b.columns, n2, n2)
        sums = {}  # column -> {row: value}
        for j, column in (*left, *right):
            acc = sums.setdefault(j, {})
            for i, x in column:
                acc[i] = acc.get(i, 0) + x
        columns = [(j, tuple(sorted((i, x) for i, x in acc.items() if x)))
                   for j, acc in sorted(sums.items())]
        ops[e] = Operator(tuple([c for c in columns if c[1]]), d, n1 * n2, n1 * n2)
    labels = None
    if r1.labels is not None and r2.labels is not None:
        labels = tuple((a, b) for a in r1.labels for b in r2.labels)
    return RepSpec(r1.alphabet, n1 * n2, ops, labels)


def submodule_generated(maps, ints) -> Echelon:
    """The Echelon of the smallest subspace containing the integer vector ints
    and closed under the linear maps maps, read off breadth first.

    Each map takes and returns a list of ints: an Operator's image for the
    vectors U(g) . v, or its pull_back for the covectors phi U(g), the left
    translates of a functional (the rows of its Hankel matrix; Fliess,
    J. Math. Pures Appl. 53, 1974).  The walk runs on integer multiples of
    the vectors (a span does not see scale), and it stops once the rank is
    len(ints): the whole space is closed.
    """
    dim = len(ints)
    ech = Echelon()
    queue = [ints] if ech.add(ints) else []
    for u in queue:  # the queue grows while it is read
        for f in maps:
            if ech.rank == dim:
                return ech
            w = f(u)
            if ech.add(w):
                queue.append(w)
    return ech


def support(rep: RepSpec):
    """Letters acting by a nonzero matrix."""
    return frozenset(e for e in rep.alphabet.letters() if not rep.operators[e].is_zero())


def word_module(alphabet: Alphabet, basis) -> RepSpec:
    """The module with basis b_w for the words w of basis, distinct words
    closed under taking suffixes.

    A letter e sends b_w to b_{e w} when e w is in the set, and to zero
    otherwise; a letter that begins no word of the set acts by zero.  The
    basis is ordered by words.word_key and labeled by the words.
    """
    basis = sorted(basis, key=words.word_key)
    index = {w: i for i, w in enumerate(basis)}
    columns = {}  # e b_u = b_(e u): in basis order, the columns u increase
    for w, i in index.items():
        if w:
            columns.setdefault(w[0], []).append((index[w[1:]], ((i, 1),)))
    dim = len(basis)
    ops = {e: Operator(tuple(c), 1, dim, dim) for e, c in columns.items()}
    return RepSpec(alphabet, dim, ops, labels=basis)


def make_VNJ(alphabet: Alphabet, n: int, j_letters,
             dim_cap: int = linalg.DEFAULT_DIM_CAP) -> RepSpec:
    """The word module on all words of length <= n over J: letters outside J
    act by zero, and e b_w = 0 once e w is longer than n."""
    j_letters = sorted(set(j_letters))
    if n < 0:
        raise RepError("length bound must be nonnegative")
    if not j_letters:
        raise RepError("J must be nonempty")
    for e in j_letters:
        if not alphabet.is_nilpotent(e):
            raise RepError("V_N(J) requires locally nilpotent letters")
    basis = list(words.all_words(j_letters, n))
    if len(basis) > dim_cap:
        raise linalg.CapError(
            f"V_N(J) dimension {len(basis)} exceeds the dimension cap {dim_cap}; "
            "raise it with LIEREG_DIM_CAP"
        )
    return word_module(alphabet, basis)


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
    columns = {}  # e b_stage = b_(stage + 1)
    for stage, e in enumerate(seq):
        columns.setdefault(e, []).append((stage, ((stage + 1, 1),)))
    ops = {e: Operator(tuple(c), 1, dim, dim) for e, c in columns.items()}
    labels = tuple(f"b{i}" for i in range(dim))
    return RepSpec(alphabet, dim, ops, labels=labels)


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
    ops = {
        e1: Operator(((1, ((0, 1),)),), 1, 2, 2),  # e1 b2 = b1
        e2: Operator(((0, ((1, 1),)),), 1, 2, 2),  # e2 b1 = b2
    }
    return RepSpec(alphabet, 2, ops, labels=("b1", "b2"))
