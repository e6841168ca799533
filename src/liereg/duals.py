"""Linear functionals on U(g): shuffle algebra and rep-backed matrix coefficients.

Two functional variants are kept distinct on purpose.  A rep-backed one need
not have finite support; the shuffle-span test below decides exactly whether
it has (the rational-series view; Tzeng, SIAM J. Comput. 21(2), 1992).
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

from . import linalg, reps, words
from .linalg import Echelon, frac, vec
from .reps import RepSpec
from .words import Alphabet, NcPoly, TermMap, Word


class FiniteFunctional(TermMap):
    """Finitely supported functional: canonical map word -> Fraction."""

    __slots__ = ()

    def __repr__(self):
        parts = [f"{c}*phi_{w}" for w, c in self.items()]
        return "FiniteFunctional(" + (" + ".join(parts) or "0") + ")"

    def evaluate_word(self, w: Word) -> Fraction:
        return self.coeff(w)


class PhiV:
    """A covector phi and a vector v of one module, the data of a matrix
    coefficient: stored as pairs (d, ints) for ints / d, with read-only
    Fraction views `phi` and `v`."""

    __slots__ = ("rep", "_phi", "_v")

    def __init__(self, rep: RepSpec, phi, v):
        rep.check_length(phi, "phi")
        rep.check_length(v)
        self.rep = rep
        self._phi = linalg.integral(vec(phi))
        self._v = linalg.integral(vec(v))

    @classmethod
    def of_pairs(cls, rep: RepSpec, phi, v):
        """The instance of phi and v given as stored pairs (d, ints), shared as they are."""
        h = object.__new__(cls)
        h.rep, h._phi, h._v = rep, phi, v
        return h

    @property
    def phi(self) -> tuple:
        return linalg.over(self._phi[1], self._phi[0])

    @property
    def v(self) -> tuple:
        return linalg.over(self._v[1], self._v[0])


class MatrixCoefficient(PhiV):
    """Rep-backed functional h(x) = phi(x . v).

    Its value splits at any point of a word: phi(u w . v) = (phi M_u)(w . v),
    where the covector phi M_u is the left translate h <| u, a row of the
    Hankel matrix (Fliess, J. Math. Pures Appl. 53, 1974).  Words listed in
    words.all_words order share long prefixes, so the coefficient keeps one
    private path, `_path`: the last word read and its prefix covectors
    phi M_u as pairs (d, ints), phi first, at most one more than the longest
    word.  The path is only ever replaced whole, never changed in place, so
    a reader on another thread sees the old path or the new one; `_phi` and
    `_v` are never changed.  A new coefficient has no path.
    """

    __slots__ = ("_path",)

    def evaluate_word(self, w: Word) -> Fraction:
        """phi(w . v): phi pulled back letter by letter from the left,
        starting from the longest prefix w shares with the last word, then
        paired with v in integers.  Once a covector phi M_u is zero the value
        is linalg.ZERO and the path ends there; the letters after u are only
        checked to lie in the alphabet (RepError otherwise).  One Fraction is
        built, at the end, or none when the pairing is 0.

        The loop repeats RepSpec._walk's because it also appends each prefix
        covector to the path, which _walk does not keep: a shared walk that
        recorded every prefix made the eval-realized benchmark jobs about 20%
        slower in process (Python 3.11, 2-vCPU host)."""
        try:
            word, covs = self._path
        except AttributeError:
            word, covs = (), [self._phi]
        n, m = len(w), len(word)
        k = 0  # the length of the prefix w shares with word
        if m and n and word[0] == w[0]:
            k, top = 1, (n if n < m else m)
            while k < top and word[k] == w[k]:
                k += 1
        d, p = covs[k]
        if k < n:
            if k == m and not any(p):  # the path ends at zero
                self.rep._check_letters(w[k:])
                return linalg.ZERO
            ops = self.rep.operators
            covs = covs[:k + 1]
            while k < n:
                try:
                    op = ops[w[k]]
                except KeyError:
                    raise self.rep._letter_error(w[k]) from None
                p = op.pull_back(p)
                d *= op.denom
                k += 1
                covs.append((d, p))
                if not any(p):
                    self.rep._check_letters(w[k:])
                    self._path = (w[:k], covs)
                    return linalg.ZERO
            # w[:n] is w itself for a tuple, and a copy of a caller's list
            self._path = (w[:n], covs)
        d_v, v = self._v
        s = sum(map(mul, p, v))
        return Fraction(s, d * d_v) if s else linalg.ZERO

    def __repr__(self):
        return f"MatrixCoefficient(dim={self.rep.dim})"


Functional = (FiniteFunctional, MatrixCoefficient)


def phi(w: Word) -> FiniteFunctional:
    """The delta functional phi_w."""
    return FiniteFunctional({tuple(w): 1})


def evaluate(h, x) -> Fraction:
    """Pair a functional with a word or an NcPoly."""
    if isinstance(x, NcPoly):
        return sum((c * h.evaluate_word(w) for w, c in x.terms.items()), Fraction(0))
    return h.evaluate_word(tuple(x))


def shuffle_product(h1: FiniteFunctional, h2: FiniteFunctional) -> FiniteFunctional:
    """The sum over word pairs of c1 c2 times the shuffles of w1 and w2.
    Each factor's denominators are cleared once, the sums run in integers,
    and one Fraction is built per word."""
    d1, n1 = linalg.integral(h1.terms.values())
    d2, n2 = linalg.integral(h2.terms.values())
    out = {}
    for w1, a in zip(h1.terms, n1):
        for w2, b in zip(h2.terms, n2):
            c = a * b
            for w, mult in words.shuffles(w1, w2).items():
                out[w] = out.get(w, 0) + c * mult
    d = d1 * d2
    return FiniteFunctional({w: Fraction(s, d) for w, s in out.items() if s})


def _as_poly(x) -> NcPoly:
    if isinstance(x, NcPoly):
        return x
    return NcPoly.word(tuple(x))


def right_translate(x, h):
    """x |> h : y -> h(y x)."""
    x = _as_poly(x)
    if isinstance(h, MatrixCoefficient):
        d_v, v = h._v
        den, moved = h.rep.poly_image(x, v)
        return MatrixCoefficient.of_pairs(h.rep, h._phi, (d_v * den, moved))
    out = {}
    for u, cu in x.terms.items():
        for w, c in h.terms.items():
            if len(w) >= len(u) and w[len(w) - len(u):] == u:
                head = w[: len(w) - len(u)]
                out[head] = out.get(head, Fraction(0)) + cu * c
    return FiniteFunctional(out)


def left_translate(x, h):
    """x <| h : y -> h(x y)."""
    x = _as_poly(x)
    if isinstance(h, MatrixCoefficient):
        # phi(u y . v) = (phi M_u1 ... M_um)(y . v): pull phi back letter by letter
        d_phi, phi = h._phi
        den, pulled = h.rep.poly_pull_back(x, phi)
        return MatrixCoefficient.of_pairs(h.rep, (d_phi * den, pulled), h._v)
    out = {}
    for u, cu in x.terms.items():
        for w, c in h.terms.items():
            if w[: len(u)] == u:
                tail = w[len(u):]
                out[tail] = out.get(tail, Fraction(0)) + cu * c
    return FiniteFunctional(out)


def _suffix_module(h: FiniteFunctional, alphabet: Alphabet = None):
    """(rep, phi, v) with h = phi(. v) on the word module of the suffixes of
    h's words (reps.word_module), phi and v as pairs (d, ints).

    phi takes h's coefficients on the basis b_u, and v = b_empty: w . b_empty
    is b_w when w is a suffix and zero otherwise, so phi(w . v) = h(w) on every
    word.  The module has at most 1 + sum |w| dimensions over h's words w.
    Without an alphabet, the letters 0 .. max of h are read as locally
    nilpotent; with one, a letter of h outside it is refused (ValueError).
    Every letter acts nilpotently here, whatever its kind.
    """
    if alphabet is None:
        alphabet = Alphabet(range(1 + max(h.support_letters(), default=0)))
    foreign = sorted(h.support_letters().difference(alphabet.letters()))
    if foreign:
        raise ValueError(f"letter {foreign[0]} of h is not in the alphabet "
                         f"({', '.join(alphabet.names)})")
    rep = reps.word_module(alphabet, {w[i:] for w in h.terms for i in range(len(w) + 1)} | {()})
    phi = linalg.integral([h.terms.get(u, 0) for u in rep.labels])
    return rep, phi, (1, [1] + [0] * (rep.dim - 1))


def realize_rep_backed(h: FiniteFunctional, alphabet: Alphabet = None) -> MatrixCoefficient:
    """Realize a finite functional as a matrix coefficient phi(. v) on the
    word module of the suffixes of its words (_suffix_module), over locally
    nilpotent letters only.

    Its right translates x |> h are the vectors x . v and its left translates
    h <| x the covectors phi M_x: the columns and the rows of the Hankel
    matrix (h(x y)) (Fliess, J. Math. Pures Appl. 53, 1974).
    """
    rep, phi, v = _suffix_module(h, alphabet)
    if not all(map(rep.alphabet.is_nilpotent, h.support_letters())):
        raise ValueError("finite functionals realize rep-backed only over nilpotent letters")
    return MatrixCoefficient.of_pairs(rep, phi, v)


def product(h1, h2, alphabet: Alphabet = None):
    """Product dual to the coproduct: (h1 h2)(x) = (h1 (x) h2)(Delta x).

    Finite times finite is the shuffle product; otherwise both factors are
    realized rep-backed and the result is the matrix coefficient on the
    tensor module.
    """
    if isinstance(h1, FiniteFunctional) and isinstance(h2, FiniteFunctional):
        return shuffle_product(h1, h2)
    if isinstance(h1, FiniteFunctional):
        h1 = realize_rep_backed(h1, alphabet or h2.rep.alphabet)
    if isinstance(h2, FiniteFunctional):
        h2 = realize_rep_backed(h2, alphabet or h1.rep.alphabet)
    pairs = ((h1._phi, h2._phi), (h1._v, h2._v))  # each (d, ints)
    phi, v = [(a * b, linalg.vec_kron(x, y)) for (a, x), (b, y) in pairs]
    return MatrixCoefficient.of_pairs(reps.tensor(h1.rep, h2.rep), phi, v)


class RhoExpansion:
    """Finite development of h along a tuple of one-parameter letters.

    coeffs maps index tuples k to rationals with
    h(y1...yp) = sum_k c_k eta1^k1(y1) ... etap^kp(yp),
    where eta is tau for nilpotent letters (index in N) and exp(tau) for
    diagonalizable letters (index in Z, an eigenvalue).
    """

    __slots__ = ("letters", "coeffs")

    def __init__(self, letters, coeffs):
        self.letters = tuple(letters)
        self.coeffs = {tuple(k): frac(c) for k, c in coeffs.items() if c != 0}

    def items(self):
        return sorted(self.coeffs.items())

    def __call__(self, *ts) -> Fraction:
        """The sum at eta_i(y_i) = ts[i]: t for exp(t e), s for s^e."""
        if len(ts) != len(self.letters):
            raise ValueError("wrong number of evaluation points")
        ts = [frac(t) for t in ts]
        total = Fraction(0)
        for ks, c in self.coeffs.items():
            term = c
            for t, k in zip(ts, ks):
                term *= t**k
            total += term
        return total

    def __eq__(self, other):
        return (
            isinstance(other, RhoExpansion)
            and self.letters == other.letters
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"RhoExpansion({self.letters}, {dict(self.items())})"


def _expand_mc(rep: RepSpec, phi, v, den, letters):
    """The development of phi(. v) along letters, for integer vectors phi and v
    over the common denominator den; each index tuple is reached once.

    A locally nilpotent letter reads its chain of images (RepSpec.exp_chain,
    which refuses a matrix that is not nilpotent): e^k v / k! is u_k over
    D^k k!.  A diagonalizable letter splits v by eigenvalue."""
    if not letters:
        c = sum(map(mul, phi, v))
        return {(): Fraction(c, den)} if c else {}
    e = letters[-1]
    rest = letters[:-1]
    out = {}
    if rep.kind(e) == words.NILPOTENT:
        # e^k v / k! is u_k over D^k k!, for the chain u_k of e's images
        for k, (d, u) in enumerate(rep.exp_chain(e, v)):
            if k:
                den *= d * k
            for ks, c in _expand_mc(rep, phi, u, den, rest).items():
                out[ks + (k,)] = c
    else:
        by_eig = {}
        for i, (x, n) in enumerate(zip(v, rep.operators[e].diagonal())):
            if x:
                by_eig.setdefault(n, [0] * rep.dim)[i] = x
        for n, u in sorted(by_eig.items()):
            for ks, c in _expand_mc(rep, phi, u, den, rest).items():
                out[ks + (n,)] = c
    return out


def expand_rho(h, letters, alphabet: Alphabet = None) -> RhoExpansion:
    """Development of h along rho_(e1..ep), one position at a time.

    A finite functional is developed through its realization on the suffixes
    of its words (realize_rep_backed), along locally nilpotent letters only;
    without an alphabet, its letters and those of the development are all
    read as locally nilpotent.
    """
    letters = tuple(letters)
    if isinstance(h, FiniteFunctional):
        if alphabet is None:
            alphabet = Alphabet(range(1 + max((*letters, *h.support_letters()), default=0)))
        elif not all(map(alphabet.is_nilpotent, letters)):
            raise ValueError(
                "a finite functional has no finite development along a "
                "diagonalizable letter"
            )
        h = realize_rep_backed(h, alphabet)
    (d_phi, phi), (d_v, v) = h._phi, h._v
    return RhoExpansion(letters, _expand_mc(h.rep, phi, v, d_phi * d_v, letters))


def membership_ffr(h, alphabet: Alphabet = None):
    """Finite-dimensionality of the right-translation closure U(g) |> h.

    Returns (True, dimension certificate); finiteness always holds for the
    representable functionals this artifact manipulates.  Both kinds run the
    one closure walk reps.submodule_generated.  For a matrix coefficient it
    walks U(g) . v under the letters' images, so the certificate is
    dim U(g) . v, only an upper bound on dim U(g) |> h.  A finite functional
    walks phi under the pull_backs of its suffix module's letters (the
    alphabet's, or h's own without one), whatever their kinds: the covectors
    phi M_x are its left translates h <| x, the rows of the Hankel matrix
    (h(x y)), whose columns span U(g) |> h; row and column rank agree.
    """
    if isinstance(h, MatrixCoefficient):
        maps = [op.image for op in h.rep.operators.values()]
        return True, reps.submodule_generated(maps, h._v[1]).rank
    rep, (_, phi), _ = _suffix_module(h, alphabet)
    maps = [op.pull_back for op in rep.operators.values()]
    return True, reps.submodule_generated(maps, phi).rank


def in_shuffle_span(h, length_bound: int) -> bool:
    """Exact: does h vanish on every word longer than the bound?

    With L_k = span{w . v : |w| = k} = sum_e e . L_{k-1}, h vanishes past N
    iff phi kills every L_k, k > N.  Once a layer lies in the sum of the
    earlier layers past N, so do all later ones: at most dim layers past N
    are built.  The tails sum_{j >= k} L_j decrease and settle by k = dim.
    """
    if length_bound < 0:
        raise ValueError("length bound must be nonnegative")
    if isinstance(h, FiniteFunctional):
        return h.max_length() <= length_bound
    length_bound = min(length_bound, h.rep.dim)
    ops = [h.rep.operators[e] for e in sorted(reps.support(h.rep))]
    # layers are kept as integer rows: only their spans and whether phi
    # vanishes on them matter, and neither sees the scale of a vector
    phi = h._phi[1]
    layer = [h._v[1]]
    past = Echelon()  # the sum of the layers beyond the bound
    for k in itertools.count(1):
        span = Echelon()
        for op in ops:
            for u in layer:
                span.add(op.image(u))
        layer = span.rows
        if k > length_bound:
            if any(sum(map(mul, phi, u)) for u in layer):
                return False
            rank = past.rank
            for u in layer:
                past.add(u)
            if past.rank == rank:
                return True


class ZMonoid:
    """Additive submonoid of Z generated by a finite set of eigenvalues."""

    def __init__(self, generators):
        self.generators = frozenset(int(g) for g in generators if g != 0)

    def __contains__(self, n: int) -> bool:
        return self.contains(n)

    def contains(self, n: int) -> bool:
        n = int(n)
        if n == 0:
            return True
        if not self.generators:
            return False
        pos = sorted(g for g in self.generators if g > 0)
        neg = sorted(-g for g in self.generators if g < 0)
        if pos and neg:
            return n % math.gcd(*pos, *neg) == 0
        if neg:
            if n > 0:
                return False
            n, pos = -n, neg
        elif n < 0:
            return False
        # nonnegative coin problem, bounded dynamic program
        reachable = [False] * (n + 1)
        reachable[0] = True
        for g in pos:
            for i in range(g, n + 1):
                if reachable[i - g]:
                    reachable[i] = True
        return reachable[n]

    def sample(self, bound: int):
        return [n for n in range(-bound, bound + 1) if self.contains(n)]

    def __repr__(self):
        return f"ZMonoid({sorted(self.generators)})"


def z_monoid(e: int, rep_list) -> ZMonoid:
    """Additive monoid of all eigenvalues of a diagonalizable letter."""
    gens = set()
    for rep in rep_list:
        if rep.kind(e) != words.DIAGONAL:
            raise reps.RepError("z_monoid requires a diagonalizable letter in every module")
        gens.update(reps.eigenvalues(rep, e))
    return ZMonoid(gens)
