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
from .linalg import Echelon, Operator, frac, vec
from .reps import RepSpec
from .words import Alphabet, NcPoly, TermMap, Word, word_key


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
    """Rep-backed functional h(x) = phi(x . v)."""

    __slots__ = ()

    def evaluate_word(self, w: Word) -> Fraction:
        """phi(w . v), paired in integers: one Fraction, built at the end."""
        d_phi, phi = self._phi
        d_v, v = self._v
        d_w, v = self.rep.image(w, v)
        return Fraction(sum(map(mul, phi, v)), d_phi * d_v * d_w)

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
    out = {}
    for w1, c1 in h1.terms.items():
        for w2, c2 in h2.terms.items():
            for w, mult in words.shuffles(w1, w2).items():
                out[w] = out.get(w, Fraction(0)) + c1 * c2 * mult
    return FiniteFunctional(out)


def _as_poly(x) -> NcPoly:
    if isinstance(x, NcPoly):
        return x
    return NcPoly.word(tuple(x))


def right_translate(x, h):
    """x |> h : y -> h(y x)."""
    x = _as_poly(x)
    if isinstance(h, MatrixCoefficient):
        d_v, v = h._v
        terms = ((c, *h.rep.image(u, v)) for u, c in x.terms.items())
        den, moved = linalg.combine(terms, h.rep.dim)
        return MatrixCoefficient.of_pairs(h.rep, h._phi, (d_v * den, moved))
    out = {}
    for u, cu in x.terms.items():
        if not u:
            for w, c in h.terms.items():
                out[w] = out.get(w, Fraction(0)) + cu * c
            continue
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
        terms = ((c, *h.rep.pull_back(u, phi)) for u, c in x.terms.items())
        den, pulled = linalg.combine(terms, h.rep.dim)
        return MatrixCoefficient.of_pairs(h.rep, (d_phi * den, pulled), h._v)
    out = {}
    for u, cu in x.terms.items():
        for w, c in h.terms.items():
            if w[: len(u)] == u:
                tail = w[len(u):]
                out[tail] = out.get(tail, Fraction(0)) + cu * c
    return FiniteFunctional(out)


def realize_rep_backed(
    h: FiniteFunctional, alphabet: Alphabet, dim_cap: int = linalg.DEFAULT_DIM_CAP
) -> MatrixCoefficient:
    """Realize a finite functional as a matrix coefficient on V_N(J).

    The covector collects the coefficients on the labeled basis b_w, the
    vector is b_empty; evaluation agrees with h on every word.
    """
    for e in h.support_letters():
        if not alphabet.is_nilpotent(e):
            raise ValueError("finite functionals realize rep-backed only over nilpotent letters")
    n = h.max_length()
    j = sorted(h.support_letters()) or [0]
    if not alphabet.is_nilpotent(j[0]):
        j = [e for e in alphabet.letters() if alphabet.is_nilpotent(e)][:1]
        if not j:
            raise ValueError("alphabet has no locally nilpotent letter")
    rep = reps.make_VNJ(alphabet, n, j, dim_cap)
    phi_vec = [h.coeff(w) for w in rep.labels]
    v = rep.basis_vector(rep.labels.index(()))
    return MatrixCoefficient(rep, phi_vec, v)


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
    rep = reps.tensor(h1.rep, h2.rep)
    return MatrixCoefficient.of_pairs(rep, _kron(h1._phi, h2._phi), _kron(h1._v, h2._v))


def _kron(a, b):
    """The Kronecker product of two vectors given as pairs (d, ints)."""
    return a[0] * b[0], [x * y for x in a[1] for y in b[1]]


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
    over the common denominator den; each index tuple is reached once."""
    if not letters:
        c = sum(map(mul, phi, v))
        return {(): Fraction(c, den)} if c else {}
    e = letters[-1]
    rest = letters[:-1]
    out = {}
    if rep.kind(e) == words.NILPOTENT:
        op = rep.operators[e]
        k = 0
        while any(v):
            if k > rep.dim:
                raise RuntimeError("non-terminating expansion on a nilpotent letter")
            for ks, c in _expand_mc(rep, phi, v, den, rest).items():
                out[ks + (k,)] = c
            k += 1
            # e^k v / k! = image^k(v) / (denom^k k!)
            v = op.image(v)
            den *= op.denom * k
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
    """Development of h along rho_(e1..ep), one position at a time."""
    letters = tuple(letters)
    if isinstance(h, MatrixCoefficient):
        (d_phi, phi), (d_v, v) = h._phi, h._v
        coeffs = _expand_mc(h.rep, phi, v, d_phi * d_v, letters)
        return RhoExpansion(letters, coeffs)
    if alphabet is not None:
        for e in letters:
            if not alphabet.is_nilpotent(e):
                raise ValueError(
                    "a finite functional has no finite development along a "
                    "diagonalizable letter"
                )
    bound = h.max_length()
    coeffs = {}
    for ks in itertools.product(range(bound + 1), repeat=len(letters)):
        if sum(ks) > bound:
            continue
        monomial = tuple(e for e, k in zip(letters, ks) for _ in range(k))
        c = h.coeff(monomial)
        if c != 0:
            denom = 1
            for k in ks:
                denom *= math.factorial(k)
            coeffs[ks] = c / denom
    return RhoExpansion(letters, coeffs)


def r_cut(w: Word):
    """All prefixes of w, from the empty word to w itself."""
    w = tuple(w)
    return [w[:i] for i in range(len(w) + 1)]


def membership_ffr(h, alphabet: Alphabet = None):
    """Finite-dimensionality of the right-translation closure U(g) |> h.

    Returns (True, dimension certificate); finiteness always holds for the
    representable functionals this artifact manipulates.  Both kinds run the
    integer closure walk reps.submodule_generated.  For a matrix coefficient
    it walks U(g) . v, so the certificate is dim U(g) . v, only an upper
    bound on dim U(g) |> h.  A finite functional walks the span of the
    prefixes of its words, which its translates never leave: there e |> h is
    the 0/1 operator b_{p e} -> b_p, for the alphabet's letters (h's own
    letters without an alphabet).
    """
    if isinstance(h, MatrixCoefficient):
        ops = [h.rep.operators[e] for e in sorted(h.rep.alphabet.letters())]
        return True, reps.submodule_generated(ops, h._v[1]).rank
    prefixes = sorted({p for w in h.terms for p in r_cut(w)}, key=word_key)
    index = {p: i for i, p in enumerate(prefixes)}
    letters = alphabet.letters() if alphabet else h.support_letters()
    columns = {}  # a letter that ends no prefix acts by zero, and is left out
    for p, i in index.items():
        if p and p[-1] in letters:
            columns.setdefault(p[-1], []).append((i, ((index[p[:-1]], 1),)))
    ops = [Operator(tuple(columns[e]), 1, len(prefixes), len(prefixes)) for e in sorted(columns)]
    # h's coefficients on the prefixes, cleared to ints once
    d = math.lcm(*(c.denominator for c in h.terms.values()))
    ints = [0] * len(prefixes)
    for w, c in h.terms.items():
        ints[index[w]] = c.numerator * (d // c.denominator)
    return True, reps.submodule_generated(ops, ints).rank


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
