"""The free monoid of words and U(g) as a noncommutative polynomial Hopf algebra.

A word is a tuple of letter indices into an :class:`Alphabet`.  Elements of
the enveloping algebra are :class:`NcPoly` values: canonical finite maps
word -> Fraction with no stored zero coefficients (:class:`TermMap`, which
the finitely supported functionals share).  The coproduct, antipode
and counit make this the usual cocommutative Hopf structure in which the
letters are primitive.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from .linalg import frac

Word = tuple
EMPTY_WORD: Word = ()

# Deconcatenation coproduct enumerates 2^l position subsets.
MAX_COPRODUCT_LENGTH = 30

NILPOTENT = "locally-nilpotent"
DIAGONAL = "diagonalizable-integer"
KINDS = (NILPOTENT, DIAGONAL)


class Alphabet:
    """Finite generating set: letter names plus one-parameter kinds.

    Letters are dense integer indices; names and kinds are carried for I/O
    and for validation, never for the algebra itself.
    """

    def __init__(self, names, kinds=None):
        self.names = tuple(str(n) for n in names)
        if not self.names:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate letter names")
        if kinds is None:
            kinds = (NILPOTENT,) * len(self.names)
        self.kinds = tuple(kinds)
        if len(self.kinds) != len(self.names):
            raise ValueError("kinds and names must have equal length")
        for k in self.kinds:
            if k not in KINDS:
                raise ValueError(f"unknown generator kind {k!r}")
        self._index = {n: i for i, n in enumerate(self.names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, Alphabet)
            and self.names == other.names
            and self.kinds == other.kinds
        )

    def index(self, name: str) -> int:
        return self._index[name]

    def letters(self):
        return range(len(self.names))

    def kind(self, letter: int) -> str:
        return self.kinds[letter]

    def is_nilpotent(self, letter: int) -> bool:
        return self.kinds[letter] == NILPOTENT

    def word(self, text: str) -> Word:
        """Parse a '.'-separated word; '1' is the empty word."""
        if text == "1":
            return EMPTY_WORD
        return tuple(self._index[part] for part in text.split("."))

    def word_str(self, w: Word) -> str:
        if not w:
            return "1"
        return ".".join(self.names[i] for i in w)


def word_key(w: Word):
    """Canonical order: by length, then lexicographically on letter ids."""
    return (len(w), w)


def all_words(letters, max_len: int):
    """All words over the given letters of length at most max_len."""
    letters = tuple(letters)
    for n in range(max_len + 1):
        yield from itertools.product(letters, repeat=n)


def shuffles(w1: Word, w2: Word) -> dict:
    """Multiset of shuffles of w1 and w2, as word -> multiplicity.

    Enumerates the position sets carrying w1; total multiplicity is
    binomial(l1+l2, l1).
    """
    l1, l2 = len(w1), len(w2)
    out: dict = {}
    for positions in itertools.combinations(range(l1 + l2), l1):
        pos_set = set(positions)
        word = []
        i1 = i2 = 0
        for p in range(l1 + l2):
            if p in pos_set:
                word.append(w1[i1])
                i1 += 1
            else:
                word.append(w2[i2])
                i2 += 1
        word = tuple(word)
        out[word] = out.get(word, 0) + 1
    return out


class TermMap:
    """Canonical finite map key -> Fraction with no stored zero coefficients.

    The keys are words, except in :class:`TensorNcPoly` (pairs of words),
    which uses only the methods that do not read a key as a word.  Two maps
    are equal only when they are of the same class.
    """

    __slots__ = ("terms",)

    _key = staticmethod(tuple)  # canonical form of a key

    def __init__(self, terms=None):
        clean = {}
        if terms:
            key = self._key
            for k, c in terms.items():
                c = frac(c)
                if c != 0:
                    clean[key(k)] = c
        self.terms = clean

    def items(self):
        """Terms in canonical (length, lexicographic) order."""
        return sorted(self.terms.items(), key=lambda kv: word_key(kv[0]))

    def coeff(self, w: Word) -> Fraction:
        return self.terms.get(tuple(w), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return type(self)(out)

    def __rmul__(self, scalar):
        return type(self)({k: frac(scalar) * c for k, c in self.terms.items()})

    def max_length(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def support_letters(self) -> frozenset:
        out = set()
        for w in self.terms:
            out.update(w)
        return frozenset(out)


class NcPoly(TermMap):
    """Noncommutative polynomial: canonical finite map word -> Fraction."""

    __slots__ = ()

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({EMPTY_WORD: 1})

    @classmethod
    def word(cls, w: Word):
        return cls({tuple(w): 1})

    @classmethod
    def letter(cls, i: int):
        return cls({(i,): 1})

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __sub__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) - c
        return NcPoly(out)

    def __neg__(self):
        return NcPoly({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NcPoly):
            return poly_mul(self, other)
        return NcPoly({w: c * frac(other) for w, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "NcPoly(0)"
        parts = [f"{c}*{w}" for w, c in self.items()]
        return "NcPoly(" + " + ".join(parts) + ")"


class TensorNcPoly(TermMap):
    """Element of U(g) tensor U(g): canonical map (word, word) -> Fraction."""

    __slots__ = ()

    @staticmethod
    def _key(k):
        return (tuple(k[0]), tuple(k[1]))

    def coeff(self, w1: Word, w2: Word) -> Fraction:
        return self.terms.get((tuple(w1), tuple(w2)), Fraction(0))

    def __mul__(self, other):
        out = {}
        for (a1, a2), c in self.terms.items():
            for (b1, b2), d in other.terms.items():
                k = (a1 + b1, a2 + b2)
                out[k] = out.get(k, Fraction(0)) + c * d
        return TensorNcPoly(out)

    def __repr__(self):
        parts = [f"{c}*{w1}(x){w2}" for (w1, w2), c in sorted(self.terms.items())]
        return "TensorNcPoly(" + (" + ".join(parts) or "0") + ")"


def poly_mul(x: NcPoly, y: NcPoly) -> NcPoly:
    out = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            w = w1 + w2
            out[w] = out.get(w, Fraction(0)) + c1 * c2
    return NcPoly(out)


def coproduct(x: NcPoly) -> TensorNcPoly:
    """Deconcatenation-free coproduct with primitive letters.

    Delta(w) runs over all position subsets of w: the chosen subword tensor
    the complementary subword.
    """
    out = {}
    for w, c in x.terms.items():
        if len(w) > MAX_COPRODUCT_LENGTH:
            raise ValueError(
                f"coproduct on a word of length {len(w)} exceeds the "
                f"size guard ({MAX_COPRODUCT_LENGTH})"
            )
        for r in range(len(w) + 1):
            for positions in itertools.combinations(range(len(w)), r):
                pos = set(positions)
                left = tuple(w[i] for i in range(len(w)) if i in pos)
                right = tuple(w[i] for i in range(len(w)) if i not in pos)
                key = (left, right)
                out[key] = out.get(key, Fraction(0)) + c
    return TensorNcPoly(out)


def antipode(x: NcPoly) -> NcPoly:
    out = {}
    for w, c in x.terms.items():
        rw = tuple(reversed(w))
        sign = -1 if len(w) % 2 else 1
        out[rw] = out.get(rw, Fraction(0)) + sign * c
    return NcPoly(out)


def counit(x: NcPoly) -> Fraction:
    return x.coeff(EMPTY_WORD)


def multibracket(seq) -> NcPoly:
    """Left-nested commutator [..[[e1,e2],e3]..,ep] expanded in U(g)."""
    seq = tuple(seq)
    if not seq:
        raise ValueError("multibracket needs a nonempty letter sequence")
    acc = NcPoly.letter(seq[0])
    for i in seq[1:]:
        e = NcPoly.letter(i)
        acc = poly_mul(acc, e) - poly_mul(e, acc)
    return acc
