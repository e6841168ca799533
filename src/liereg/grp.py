"""Group words in one-parameter factors and their exact module actions.

A GroupWord is a product of factors exp(t*e) (locally nilpotent letter) or
s^e (diagonalizable letter, s != 0).  The leftmost factor acts last, i.e.
factors compose like ordinary function application.  No normal form is
computed; group elements are only compared through their actions.
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
from .reps import RepSpec, act_poly
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


def _factor_image(rep: RepSpec, factor: OneParamFactor, ints):
    """(D, u) with factor . ints = u / D, for an integer vector ints."""
    if rep.kind(factor.letter) != factor.kind:
        raise reps.RepError(
            f"factor kind {factor.kind} does not match the module kind of "
            f"letter {rep.alphabet.names[factor.letter]}"
        )
    p, q = factor.param.numerator, factor.param.denominator
    if factor.kind == words.NILPOTENT:
        # with t = p/q and M = R/D, the k-th term t^k M^k v / k! is
        # term_k / ((qD)^k k!), term_k = p R term_(k-1); the sum is kept
        # over the running denominator (qD)^k k!
        op = rep.operators[factor.letter]
        step = q * op.denom
        acc = term = ints
        den = k = 1
        while True:
            term = [p * x for x in op.image(term)]
            if not any(term):
                return den, acc
            scale = step * k
            acc = [a * scale + x for a, x in zip(acc, term)]
            den *= scale
            if k > rep.dim:
                raise reps.RepError("exp series did not terminate: matrix not nilpotent")
            k += 1
    # s^n with s = p/q, over q^top |p|^bottom: every entry stays an integer
    eigs = rep.operators[factor.letter].diagonal()
    top, bottom = max([0, *eigs]), -min([0, *eigs])
    den = q**top * abs(p) ** bottom
    scale = {n: den * p**n // q**n if n >= 0 else den * q**-n // p**-n for n in set(eigs)}
    return den, [x * scale[n] for x, n in zip(ints, eigs)]


def _group_image(rep: RepSpec, g: GroupWord, d, ints):
    """(D, u) with g . (ints / d) = u / D, for an integer vector ints.

    The vector stays a list of ints over one denominator from the first
    factor to the last, reduced by their gcd between factors.
    """
    for factor in reversed(g):
        d_f, ints = _factor_image(rep, factor, ints)
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
    """phi(g . v), paired in integers: one Fraction, built at the end."""
    d_phi, phi = f._phi
    d_v, v = _group_image(f.rep, g, *f._v)
    return Fraction(sum(map(mul, phi, v)), d_phi * d_v)


def phi_map(f: RegularFunction) -> MatrixCoefficient:
    """Phi: regular function -> regular linear functional on U(g)."""
    return MatrixCoefficient.of_pairs(f.rep, f._phi, f._v)


def xi_map(
    h, alphabet: Alphabet = None, dim_cap: int = linalg.DEFAULT_DIM_CAP
) -> RegularFunction:
    """Xi: regular linear functional -> regular function on the group."""
    if isinstance(h, FiniteFunctional):
        h = realize_rep_backed(h, alphabet, dim_cap)
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
    e acting on v.
    """
    return RegularFunction(f.rep, f.phi, reps.act_word(f.rep, (e,), f.v))


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
    v0 = rep.basis_vector(rep.labels.index(()))
    moved = act_poly(rep, x, v0)
    return rep, v0, moved


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
    v0 = rep.basis_vector(0)
    moved = act_group(rep, g, v0)
    return rep, v0, moved
