"""Group words in one-parameter factors and their exact module actions.

A GroupWord is a product of factors exp(t*e) (locally nilpotent letter) or
s^e (diagonalizable letter, s != 0).  The leftmost factor acts last, i.e.
factors compose like ordinary function application.

A word acts through its reduced form, the normal form of a free product of
one-parameter groups: on each of them exp(s e) exp(t e) = exp((s+t) e) and
s^e s'^e = (s s')^e, so every run of adjacent factors on one letter acts as
one factor, and a factor that is the identity (exp(0 e), 1^e) acts as
nothing.  The fold is exact on every module, since the factors of a run
commute, and it runs on integer pairs (p, q) for p/q.  Group elements are
otherwise compared only through their actions.

A factor acts on an integer vector over one denominator, through the series
rules the Kac-Moody engine shares: exp(t e) takes the chain of images of the
vector under e until one is zero (RepSpec.exp_chain) and sums its series
once, over its last denominator (linalg.exp_sum); s^e scales each entry by
s^n over one denominator (linalg.power_scale).  The faithfulness witnesses
act on the integer unit vector of their module and build Fractions only for
the vector they return.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import duals, linalg, reps, words
from .duals import (
    FiniteFunctional,
    MatrixCoefficient,
    RhoExpansion,
    expand_rho,
    realize_rep_backed,
)
from .linalg import frac
from .reps import RepSpec
from .words import Alphabet, NcPoly, Word


@dataclass(frozen=True)
class OneParamFactor:
    letter: int
    kind: str
    param: Fraction

    def __post_init__(self):
        object.__setattr__(self, "param", frac(self.param))
        if self.kind not in words.KINDS:
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.kind == words.DIAGONAL and self.param == 0:
            raise ValueError("diagonalizable factors need a nonzero parameter")


def exp_factor(letter: int, t) -> OneParamFactor:
    return OneParamFactor(letter, words.NILPOTENT, frac(t))


def torus_factor(letter: int, s) -> OneParamFactor:
    return OneParamFactor(letter, words.DIAGONAL, frac(s))


class GroupWord(tuple):
    """Product of one-parameter factors, leftmost factor listed first."""

    def __new__(cls, factors=()):
        return super().__new__(cls, tuple(factors))

    def __mul__(self, other):
        return GroupWord(tuple(self) + tuple(other))

    def is_reduced(self) -> bool:
        if not self:
            return False
        for f in self:
            if f.param == 0:
                return False
        return all(a.letter != b.letter for a, b in zip(self, self[1:]))


def _factor_image(rep: RepSpec, letter: int, kind: str, p: int, q: int, ints):
    """(D, u) with factor . ints = u / D, for an integer vector ints and the
    factor of the letter and kind with parameter p/q, q > 0.

    An exp factor sums the letter's chain of images (RepSpec.exp_chain,
    which refuses a matrix that is not nilpotent) with linalg.exp_sum, in
    Horner form over flat integer lists; a torus factor scales each entry
    by s^n over linalg.power_scale's denominator.
    """
    if kind == words.NILPOTENT:
        return linalg.exp_sum(p, q, rep.exp_chain(letter, ints),
                              lambda a, u, b, w: [a * x + b * y for x, y in zip(u, w)])
    eigs = rep.operators[letter].diagonal()
    den, scale = linalg.power_scale(p, q, eigs)
    return den, [x * scale[n] for x, n in zip(ints, eigs)]


def _reduced(g: GroupWord) -> list:
    """g's reduced form as (letter, kind, p, q) in application order,
    rightmost factor first: each run of adjacent factors on one letter folded
    into one, exp parameters added and torus parameters multiplied as p/q in
    lowest terms, and a factor that is the identity left out, so the factors
    it parted meet and fold in turn."""
    out = []
    for f in reversed(g):
        nilpotent = f.kind == words.NILPOTENT
        p, q = f.param.numerator, f.param.denominator
        if out and out[-1][0] == f.letter:
            _, _, p0, q0 = out.pop()
            p = p0 * q + p * q0 if nilpotent else p0 * p
            q *= q0
            c = math.gcd(p, q)
            p, q = p // c, q // c
        if p != (0 if nilpotent else q):
            out.append((f.letter, f.kind, p, q))
    return out


def _group_image(rep: RepSpec, g: GroupWord, d, ints):
    """(D, u) with g . (ints / d) = u / D, for an integer vector ints.

    Every factor's kind is checked against the module, and then g's reduced
    form acts.  The vector stays a list of ints over one denominator from
    the first factor to the last, reduced by their gcd between factors.
    """
    for factor in g:
        if rep.kind(factor.letter) != factor.kind:
            raise reps.RepError(
                f"factor kind {factor.kind} does not match the module kind of "
                f"letter {rep.alphabet.names[factor.letter]}"
            )
    for factor in _reduced(g):
        d_f, ints = _factor_image(rep, *factor, ints)
        d *= d_f
        c = math.gcd(d, *ints)
        if c != 1:
            d //= c
            ints = [x // c for x in ints]
    return d, ints


def act_group(rep: RepSpec, g: GroupWord, v):
    """Apply a group word; the rightmost factor acts first."""
    rep.check_length(v)
    d, ints = _group_image(rep, g, *linalg.integral(v))
    return linalg.over(ints, d)


class RegularFunction(duals.PhiV):
    """Matrix coefficient read as a function on group words: f(g) = phi(g.v)."""

    __slots__ = ()

    def __call__(self, g: GroupWord) -> Fraction:
        return eval_regular(self, g)


def eval_regular(f: RegularFunction, g: GroupWord) -> Fraction:
    """phi(g . v), paired in integers: one Fraction, built at the end, or
    linalg.ZERO when the pairing is 0."""
    d_phi, phi = f._phi
    d_v, v = _group_image(f.rep, g, *f._v)
    s = sum(map(mul, phi, v))
    return Fraction(s, d_phi * d_v) if s else linalg.ZERO


def phi_map(f: RegularFunction) -> MatrixCoefficient:
    """Phi: regular function -> regular linear functional on U(g)."""
    return MatrixCoefficient.of_pairs(f.rep, f._phi, f._v)


def xi_map(h, alphabet: Alphabet = None) -> RegularFunction:
    """Xi: regular linear functional -> regular function on the group.

    A finite functional is first realized on the suffixes of its words
    (duals.realize_rep_backed), over the alphabet when one is given.
    """
    if isinstance(h, FiniteFunctional):
        h = realize_rep_backed(h, alphabet)
    return RegularFunction.of_pairs(h.rep, h._phi, h._v)


def taylor_expand(h, letters, alphabet: Alphabet = None) -> RhoExpansion:
    """f(exp(t1 e1)...exp(tp ep)) = sum h(e1^k1...ep^kp) t^k / k!.

    Only defined along tuples of locally nilpotent letters, where the Taylor
    polynomial is the rho-development itself: call it at (t1, ..., tp).
    """
    letters = tuple(letters)
    if isinstance(h, MatrixCoefficient):
        for e in letters:
            if h.rep.kind(e) != words.NILPOTENT:
                raise ValueError("taylor_expand requires locally nilpotent letters")
    return expand_rho(h, letters, alphabet)


def f_w(w: Word, g: GroupWord) -> Fraction:
    """Coordinate function: sum of t^k/k! over exponent splittings of w.

    The factors of g, read left to right, provide the letter tuple
    (e1,...,ep); the sum runs over k with e1^k1 ... ep^kp = w.
    """
    w = tuple(w)
    for factor in g:
        if factor.kind != words.NILPOTENT:
            raise ValueError("f_w is only defined on products of exp factors")

    def rec(i: int, pos: int) -> Fraction:
        if i == len(g):
            return Fraction(1) if pos == len(w) else Fraction(0)
        e, t = g[i].letter, g[i].param
        total = rec(i + 1, pos)  # k_i = 0
        k = 0
        power = Fraction(1)
        while pos + k < len(w) and w[pos + k] == e:
            k += 1
            power = power * t / k
            total += power * rec(i + 1, pos + k)
        return total

    return rec(0, 0)


def derive_right(e: int, f: RegularFunction) -> RegularFunction:
    """The left invariant derivation e |> f = d/dt|_e f(g kappa_e(t)).

    For both factor kinds the derivative lands on the vector slot: the
    nilpotent derivative at t=0 and the torus derivative at s=1 both give
    e acting on v, moved in integers as duals.right_translate moves it.
    """
    d_v, v = f._v
    d_e, moved = f.rep.image((e,), v)
    return RegularFunction.of_pairs(f.rep, f._phi, (d_v * d_e, moved))


def derive_left(e: int, f: RegularFunction) -> RegularFunction:
    """The right invariant derivation e <| f = d/dt|_e f(kappa_e(t) g): Xi(e <| Phi(f))."""
    return xi_map(duals.left_translate((e,), phi_map(f)))


def faithfulness_witness(x: NcPoly, alphabet: Alphabet, dim_cap: int = linalg.DEFAULT_DIM_CAP):
    """(V_N(J), b_empty, x.b_empty) with the image reproducing x's coefficients."""
    if x.is_zero():
        raise ValueError("faithfulness witness needs a nonzero polynomial")
    n = x.max_length()
    j = sorted(x.support_letters()) or [0]
    rep = reps.make_VNJ(alphabet, n, j, dim_cap)
    # b_empty comes first: word_module orders its basis by words.word_key
    den, moved = rep.poly_image(x, [1] + [0] * (rep.dim - 1))
    return rep, rep.basis_vector(0), linalg.over(moved, den)


def group_faithfulness_witness(g: GroupWord, alphabet: Alphabet):
    """Chain module moving b0: the top coefficient is the product of parameters."""
    if not g:
        raise ValueError("group word must be nonempty")
    for f in g:
        if f.kind != words.NILPOTENT:
            raise ValueError("witness construction uses exp factors only")
    if not g.is_reduced():
        raise ValueError("group word must be reduced: nonzero params, distinct neighbours")
    seq = tuple(f.letter for f in reversed(g))  # application order
    rep = reps.make_chain(alphabet, seq)
    d, moved = _group_image(rep, g, 1, [1] + [0] * (rep.dim - 1))
    return rep, rep.basis_vector(0), linalg.over(moved, d)
