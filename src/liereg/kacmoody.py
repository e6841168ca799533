"""Depth-truncated integrable highest-weight modules of Kac-Moody algebras.

L(Lambda) is realized from the generalized Cartan matrix alone, one weight
space at a time.  Below the top, V_k is spanned by the vectors f_i b with
b a basis vector of V_{k - e_i}, and a vector there is zero exactly when
every raising generator e_j kills it (it would otherwise generate a proper
submodule).  So each weight space is the image of its candidates under
x -> (e_j x)_j, computed from the levels above it.  The Freudenthal recursion
(with Peterson root multiplicities) provides an independent cross-check.

Most weight spaces in a truncation box are zero, and most of those are
decided before anything is built.  Weight multiplicities are invariant under
the Weyl group (Kac, Infinite-dimensional Lie algebras, Prop. 3.7): while
lambda(h_i) = -m < 0, the reflection s_i moves lambda to depth k - m e_i with
the same multiplicity, and a weight that is not <= Lambda has none.  So a
walk of simple reflections that leaves the cone below Lambda proves V_k = 0;
one that ends at a dominant weight leaves the question to the elimination.
A zero space is built without its parents and stores no matrices: the f_i
and e_i matrices to or from it are empty Operators of the right shape.  The
walk runs before the depth cap is checked, so a weight past the cap that it
proves zero is answered, and only a space that must be reduced is refused.
Multiplicities alone (`dimensions`, `weight_multiplicity`) are read at the
dominant conjugate, so they reduce only dominant weights and the spaces
below them, and the cap bounds that conjugate, the space reduced.
`dimensions` walks the support one level at a time from the top, each
nonzero weight handing lambda - alpha_j to its children, so the zero part of
its box is never read.  Bases and matrices are built at the weight asked for.

Everything runs in integers: the matrices of f_i and e_i are linalg.Operators
(integer entries over one denominator), kept on the weight space they lead
into (f_i) or out of (e_i), where the actions read them; a weight space is
reduced from integer rows; and a TruncVector is stored once, as one
denominator and integer coordinates in lowest terms, the form every action
reads and returns.  Fractions are built
only where a caller reads them (`TruncVector.parts`, `coefficient`).

Weights are tracked as depth vectors k with lambda = Lambda - sum k_i alpha_i.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, le, mul, sub

from . import linalg, words
from .linalg import Echelon, Operator, frac
from .words import NcPoly

DEFAULT_DEPTH_CAP = 24


class GCMError(ValueError):
    pass


class TruncationError(linalg.CapError):
    """Raised when an operation needs depth beyond the depth cap."""

    def __init__(self, required_depth, cap):
        super().__init__(
            f"operation requires truncation depth {required_depth}, "
            f"the depth cap is {cap}; raise it with LIEREG_DEPTH_CAP"
        )


class GCM:
    """Symmetrizable generalized Cartan matrix with a fixed least symmetrizer.

    `d` holds the least positive integers with d_i a_ij = d_j a_ji on each
    connected component of the matrix, and `b` the symmetrized matrix
    b_ij = d_i a_ij, so the invariant form on the root
    lattice, (beta|gamma) = sum_ij beta_i b_ij gamma_j, is integral and
    every pairing below is an int.
    """

    def __init__(self, a, d):
        self.a = tuple(tuple(int(x) for x in row) for row in a)
        self.d = tuple(int(x) for x in d)
        self.b = tuple(tuple(di * x for x in row) for di, row in zip(self.d, self.a))
        self.n = len(self.a)

    def pair_vector(self, beta) -> tuple:
        """B beta: the coordinates of gamma -> (gamma|beta) = sum_i gamma_i (B beta)_i."""
        return tuple(sum(x * y for x, y in zip(row, beta) if y) for row in self.b)

    def bilinear(self, beta, gamma) -> int:
        return sum(x * y for x, y in zip(self.pair_vector(beta), gamma) if y)

    def __repr__(self):
        return f"GCM({[list(r) for r in self.a]})"


def validate_gcm(a) -> GCM:
    """Check the GCM axioms and compute the least positive integer symmetrizer
    of each connected component."""
    a = [list(row) for row in a]
    n = len(a)
    errors = []
    for row in a:
        if len(row) != n:
            raise GCMError("matrix must be square")
    for i in range(n):
        for j in range(n):
            if a[i][j] != int(a[i][j]):
                errors.append(f"entry ({i},{j}) is not an integer")
    for i in range(n):
        if a[i][i] != 2:
            errors.append(f"diagonal entry ({i},{i}) must be 2")
        for j in range(n):
            if i != j:
                if a[i][j] > 0:
                    errors.append(f"off-diagonal entry ({i},{j}) must be nonpositive")
                if (a[i][j] == 0) != (a[j][i] == 0):
                    errors.append(f"zero pattern not symmetric at ({i},{j})")
    if errors:
        raise GCMError("; ".join(errors))

    # d_i a_ij = d_j a_ji, propagated along the nonzero pattern one connected
    # component at a time, from d = 1 at its first index, in integers: the
    # component read so far is scaled up when a division is not exact
    a = [[int(x) for x in row] for row in a]
    d = [0] * n
    for start in range(n):
        if d[start]:
            continue
        d[start] = 1
        component = [start]
        for i in component:  # the component grows while it is read
            for j in range(n):
                if i != j and a[i][j] != 0:
                    num, q = d[i] * a[i][j], a[j][i]  # d[j] = num / q
                    if d[j]:
                        if d[j] * q != num:
                            raise GCMError("matrix is not symmetrizable")
                        continue
                    s = abs(q) // math.gcd(num, q)
                    if s != 1:
                        for k in component:
                            d[k] *= s
                        num *= s
                    d[j] = num // q
                    component.append(j)
        # the least positive integers proportional to d on the component
        g = math.gcd(*[d[k] for k in component])
        for k in component:
            d[k] //= g
    return GCM(a, d)


# ---------------------------------------------------------------------------
# Root multiplicities (Peterson recurrence) and the Freudenthal oracle.
#
# Both run in integers over the root support.  Peterson's recurrence (Kac,
# Infinite-dimensional Lie algebras, Ex. 11.11) reads, for beta in Q_+,
#
#     (beta|beta - 2 rho) c_beta = sum_{beta' + beta'' = beta} (beta'|beta'') c_beta' c_beta'',
#     c_beta = sum_{k >= 1} mult(beta/k) / k,
#
# with (alpha_i|rho) = d_i.  Up to height h every c_beta is a multiple of
# 1/L for L = lcm(1..h), so the integers C_beta = L c_beta carry it:
#
#     (beta|beta - 2 rho) L C_beta = sum (beta'|beta'') C_beta' C_beta'',
#     mult(beta) = (C_beta - sum_{k >= 2} mult(beta/k) L/k) / L.
#
# Both divisions must be exact, and that is checked: a remainder (or a
# negative multiplicity) means the recurrence went wrong.  Only the nonzero
# C_beta' are stored, and the sum runs over them alone.
#
# Freudenthal's recursion runs on the dominant chamber (Moody-Patera, Bull.
# AMS 7, 1982).  For dominant Lambda the multiplicities of L(Lambda) are
# W-invariant (Kac, Prop. 10.1), so `_dominant_beta` reflects each weight
# Lambda - beta to its dominant conjugate Lambda - beta', or finds that the
# walk leaves the cone below Lambda, where the multiplicity is 0.  The
# recursion is asked, and caches, dominant weights only, each componentwise
# below beta' (a reflection only lowers beta), so Peterson runs on the box
# below beta', the only roots the sum can subtract.  At a dominant
# lambda = Lambda - beta the left factor (beta|2 Lambda + 2 rho - beta) =
# (beta|Lambda + rho) + (beta|lambda + rho) is a sum of positive pairings, so
# the division is by a positive integer; it must be exact with a nonnegative
# quotient, and that is checked.  The formula pairs against B alpha,
# precomputed for each root, so each (beta|alpha) is one integer dot product,
# and each target beta - j alpha gets its lambda(h) by adding A alpha, also
# precomputed.  The walk is written here again, apart from IrrTrunc's, so the
# oracle shares no code with the build.


def root_multiplicities(gcm: GCM, max_height: int, box=None) -> dict:
    """Multiplicities of positive roots up to the given height, and, given a
    `box`, only of those componentwise below it.

    Peterson's recurrence, run in integers in height order; returns
    {depth vector: multiplicity} for the actual roots.  The right-hand side
    at height h is gathered from the pairs of stored C_beta' whose heights
    add up to h, so only sums of two multiples of roots are visited, never
    the whole lattice.  Every term for a beta comes from summands below it,
    so within a box the pairs whose sum leaves it are skipped and each
    multiplicity found is the unbounded table's.
    """
    if max_height < 1:
        return {}
    scale = math.lcm(*range(1, max_height + 1))  # L
    if box is None:
        box = (max_height,) * gcm.n  # holds every root up to the height
    simple = sorted(tuple(int(i == j) for j in range(gcm.n)) for i in range(gcm.n) if box[i])
    mult = {alpha: 1 for alpha in simple}
    # height -> [(beta, B beta, C_beta)] for the nonzero C_beta of that height
    support = {1: [(alpha, gcm.pair_vector(alpha), scale) for alpha in simple]}
    for height in range(2, max_height + 1):
        rhs: dict = {}
        for h1 in range(1, height // 2 + 1):
            # (beta'|beta'') C' C'' is symmetric: unequal heights count twice
            twice = 1 if 2 * h1 == height else 2
            for bp, pair_bp, cb1 in support.get(h1, ()):
                cb1 *= twice
                for bpp, _, cb2 in support.get(height - h1, ()):
                    beta = tuple(map(add, bp, bpp))
                    if all(map(le, beta, box)):
                        rhs[beta] = rhs.get(beta, 0) + sum(map(mul, pair_bp, bpp)) * cb1 * cb2
        # every C_beta is a sum of nonnegative terms, positive exactly on the
        # multiples of roots; k alpha = alpha + (k - 1) alpha is a key already
        for beta in sorted(rhs):
            # L c_beta = sum_{k>=1} mult(beta/k) L/k; peel off the proper divisors
            g = math.gcd(*beta)
            divisors = sum(
                mult.get(tuple(b // k for b in beta), 0) * (scale // k)
                for k in range(2, g + 1) if g % k == 0
            )
            pair = gcm.pair_vector(beta)
            denom = sum(map(mul, pair, beta)) - 2 * sum(map(mul, beta, gcm.d))
            # (beta|beta-2rho) = 0 only for beta = rho - w rho, which is not
            # a root of height > 1: then mult(beta) = 0
            if denom:
                cb, rem = divmod(rhs[beta], denom * scale)
                if rem:
                    raise AssertionError((beta, Fraction(rhs[beta], denom * scale)))
            else:
                cb = divisors
            if cb != divisors:
                m, rem = divmod(cb - divisors, scale)
                if rem or m <= 0:
                    raise AssertionError((beta, Fraction(cb - divisors, scale)))
                mult[beta] = m
            if cb:
                support.setdefault(height, []).append((beta, pair, cb))
    return mult


def freudenthal_multiplicity(gcm: GCM, lam, beta, _cache=None) -> int:
    """Weight multiplicity of L(lam) at lam - beta by the Freudenthal recursion,
    run on the dominant chamber.

    `_dominant_beta` first reflects lam - beta to its dominant conjugate
    lam - beta', or proves it is not <= lam (multiplicity 0, and Peterson
    never runs); the recursion then visits dominant weights alone, each
    componentwise below beta'.  `lam` must be dominant: the invariance under
    W that the walk uses holds for the integrable L(lam).  `_cache`, one
    dict per (gcm, lam), keeps the multiplicities found, keyed by the
    dominant beta', and, under the key None, the root table with its box:
    Peterson's recurrence runs only on the roots componentwise below the
    box, and runs again, on the box grown to hold beta', only for a beta'
    outside it.  A root outside the box is not below beta' and never fits
    into it, so a larger table gives the same sums.
    """
    lam = tuple(int(x) for x in lam)
    if len(lam) != gcm.n:
        raise ValueError("highest weight has wrong length")
    if any(x < 0 for x in lam):
        raise ValueError("highest weight must be dominant")
    if _cache is None:
        _cache = {}
    beta = tuple(int(x) for x in beta)
    if len(beta) != gcm.n:
        raise ValueError(f"beta has length {len(beta)}, expected {gcm.n}")
    # lambda(h_j) = lam_j - sum_i a_ji beta_i, and alpha_i(h_j) = a_ji
    beta = _dominant_beta(gcm, beta, [x - sum(map(mul, row, beta)) for x, row in zip(lam, gcm.a)])
    if beta is None:
        return 0
    if beta in _cache:
        return _cache[beta]
    lam_pairs = tuple(map(mul, gcm.d, lam))  # (alpha_i|Lambda) = d_i Lambda(h_i)
    box, roots = _cache.get(None, ((0,) * gcm.n, ()))
    if not all(map(le, beta, box)):
        box = tuple(map(max, box, beta))
        # (alpha, mult, B alpha, (Lambda|alpha), (alpha|alpha), A alpha), below the box
        roots = []
        for alpha, mult_a in sorted(root_multiplicities(gcm, sum(box), box).items()):
            pair = gcm.pair_vector(alpha)
            roots.append((alpha, mult_a, pair, sum(map(mul, alpha, lam_pairs)),
                          sum(map(mul, pair, alpha)),
                          tuple(sum(map(mul, row, alpha)) for row in gcm.a)))
        _cache[None] = box, roots
    lam_rho = tuple(map(add, lam_pairs, gcm.d))  # (alpha_i|Lambda + rho)
    return _freudenthal(beta, roots, lam, lam_rho, gcm, _cache)


def _dominant_beta(gcm: GCM, beta, coords):
    """The beta' with lam - beta' the dominant conjugate of lam - beta under
    simple reflections, or None when the walk leaves the cone below lam;
    `coords` are the weight's lambda(h_j) = lam_j - sum_i a_ji beta_i.

    While lambda(h_i) = -m < 0, s_i lambda = lambda + m alpha_i lowers beta_i
    by m and adds m a_ji to each lambda(h_j), one column of A; a coordinate
    of beta below 0 means a weight not <= lam, so the multiplicity is 0.
    Each step lowers the height, so the walk stops.
    """
    beta = list(beta)
    while True:
        i = next((i for i, x in enumerate(coords) if x < 0), None)
        if i is None:
            return tuple(beta)
        m = -coords[i]
        beta[i] -= m
        if beta[i] < 0:
            return None
        coords = [x + m * row[i] for x, row in zip(coords, gcm.a)]


def _freudenthal(beta, roots, lam, lam_rho, gcm: GCM, cache) -> int:
    """mult(beta) for a dominant weight Lambda - beta, from Freudenthal's formula

        (2 (Lambda + rho|beta) - (beta|beta)) mult(beta)
            = 2 sum_{alpha > 0, j >= 1} mult(alpha) mult(beta - j alpha) (Lambda - beta + j alpha|alpha),

    each mult(beta - j alpha) read at the dominant conjugate of its weight,
    whose coordinates lambda(h) step by A alpha from those at beta.
    The left factor is (beta|Lambda + rho) + (beta|lambda + rho) with
    lambda = Lambda - beta dominant, so it is positive for beta > 0; the
    division must be exact and its quotient nonnegative, and that is checked.
    """
    if beta in cache:
        return cache[beta]
    if not any(beta):
        return 1
    denom = 2 * sum(map(mul, beta, lam_rho)) - gcm.bilinear(beta, beta)
    coords = [x - sum(map(mul, row, beta)) for x, row in zip(lam, gcm.a)]
    total = 0
    for alpha, mult_a, pair, lam_pair, norm, alpha_h in roots:
        steps = min(b // a for a, b in zip(alpha, beta) if a)
        pairing = lam_pair - sum(map(mul, pair, beta))
        target, target_h = beta, coords
        for _ in range(steps):
            target = tuple(map(sub, target, alpha))
            target_h = list(map(add, target_h, alpha_h))
            pairing += norm
            dominant = _dominant_beta(gcm, target, target_h)
            if dominant is not None:
                m = _freudenthal(dominant, roots, lam, lam_rho, gcm, cache)
                if m:
                    total += mult_a * m * pairing
    if denom <= 0:
        raise AssertionError((beta, denom))
    result, rem = divmod(2 * total, denom)
    if rem or result < 0:
        raise AssertionError((beta, Fraction(2 * total, denom)))
    cache[beta] = result
    return result


# ---------------------------------------------------------------------------
# The truncated irreducible module.


@dataclass(frozen=True)
class WeightSpace:
    """One weight space V_k of L(Lambda) with its basis of Verma monomials.

    The word w stands for f_{w[0]} ... f_{w[-1]} v_Lambda; the basis is the
    lexicographically first linearly independent set of such monomials.
    `f[i]` is the Operator of f_i from V_{k - e_i} into V_k and `e[i]` that
    of e_i from V_k to V_{k - e_i}; each is None where either space is zero
    (or k_i = 0).
    """

    depth: tuple
    basis: tuple
    lam: tuple  # weight coordinates lambda(h_i)
    f: tuple = field(compare=False, repr=False)
    e: tuple = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)


def _shift(k, i, step):
    """The depth vector k + step * e_i."""
    return k[:i] + (k[i] + step,) + k[i + 1:]


class IrrTrunc:
    """Depth-truncated integrable irreducible highest-weight module L(Lambda).

    Weight spaces are built lazily, each from the nonzero ones one and two
    levels closer to the top, and cached; each keeps the matrices of f_i
    into it and of e_i out of it (`WeightSpace.f`, `WeightSpace.e`), each a
    `linalg.Operator` (integer entries over one denominator, in lowest
    terms).  A weight space that the reflection walk of `_dominant_depth`
    proves zero is cached alone, without its parents and without matrices;
    `f_matrix` and `e_matrix` give the empty Operator of the right shape for
    it, and for a nonzero space next to it.  The multiplicities of L(Lambda)
    are W-invariant, so `dimensions` and `weight_multiplicity` read each one
    at the weight's dominant conjugate and build no space at a non-dominant
    weight but those below a dominant one; `space`, the matrices and the
    actions build the weight they are asked for.  Every weight space is
    exact at any depth, so there is one bound, the depth cap, checked after
    the walk: any operation builds the spaces it needs up to depth
    `depth_cap`, and refuses a space beyond it unless the walk, which
    takes at most `depth_cap + 1` steps, proves it zero; a multiplicity
    read refuses only when the end of the walk, the space it reduces, lies
    beyond the cap.  `depth` only sets the range that
    `dimensions()` lists, and must itself lie within the cap.  `dim_cap`
    bounds the number of candidates reduced for one weight space, so it
    never applies to a space that the walk proves zero: such a space
    reduces none.  An instance takes no lock, so it is not meant to be
    shared between threads.
    """

    def __init__(self, gcm: GCM, lam, depth: int,
                 depth_cap: int = DEFAULT_DEPTH_CAP,
                 dim_cap: int = linalg.DEFAULT_DIM_CAP):
        self.gcm = gcm
        self.lam = tuple(int(x) for x in lam)
        if len(self.lam) != gcm.n:
            raise ValueError("highest weight has wrong length")
        if any(x < 0 for x in self.lam):
            raise ValueError("highest weight must be dominant")
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if depth > depth_cap:
            raise TruncationError(depth, depth_cap)
        self.depth = depth
        self.depth_cap = depth_cap
        self.dim_cap = dim_cap
        self._spaces: dict = {}
        # alpha_j(h_i) = a_ij: the weight coordinates of alpha_j
        self._alpha = tuple(tuple(row[j] for row in gcm.a) for j in range(gcm.n))

    # -- construction ------------------------------------------------------

    def lam_of(self, k) -> tuple:
        """Weight coordinates lambda(h_i) at depth vector k."""
        return tuple(x - sum(map(mul, row, k)) for x, row in zip(self.lam, self.gcm.a))

    def _depth_vector(self, k) -> tuple:
        """k as a tuple of ints, checked to have one entry per simple root and
        to be componentwise nonnegative."""
        k = tuple(map(int, k))
        if len(k) != self.gcm.n:
            raise ValueError(f"depth vector has length {len(k)}, expected {self.gcm.n}")
        if min(k, default=0) < 0:
            raise ValueError("depth vector must be componentwise nonnegative")
        return k

    def _check_total(self, total: int) -> None:
        if total > self.depth_cap:
            raise TruncationError(total, self.depth_cap)

    def space(self, k) -> WeightSpace:
        return self._space(self._depth_vector(k))

    def _space(self, k) -> WeightSpace:
        """V_k for a checked depth vector k, built on first use."""
        ws = self._spaces.get(k)
        if ws is None:
            ws = self._spaces[k] = self._build(k)
        return ws

    def _dominant_depth(self, k, lam):
        """The depth vector of the dominant conjugate of the weight lambda =
        `lam` at depth k, or None when simple reflections take it past
        Lambda, which proves V_k = 0.

        While some lambda(h_i) = -m < 0, s_i lambda = lambda + m alpha_i sits
        at depth k - m e_i; multiplicities are W-invariant (Kac,
        Infinite-dimensional Lie algebras, Prop. 3.7), and a weight that is
        not <= Lambda has none, so a negative coordinate means V_k = 0, and a
        walk that ends at a dominant weight gives the depth vector whose
        space has the dimension of V_k.  Each step lowers the height by at
        least 1, so the walk stops.  It takes at most depth_cap + 1 steps, so
        the work a depth vector causes is bounded by the cap, not by its
        size; every k with sum(k) <= depth_cap + 1, the most an action
        reaches from a space within the cap, gets the full walk's verdict.
        A walk cut off by that bound returns the depth vector where it
        stopped, a W-conjugate that need not be dominant, for a k past the
        cap: `_build` refuses such a k, and `weight_multiplicity` reads the
        conjugate's space unless it too lies past the cap.
        """
        k, lam = list(k), list(lam)
        for _ in range(self.depth_cap + 1):
            i = next((i for i, x in enumerate(lam) if x < 0), None)
            if i is None:
                break
            m = -lam[i]
            k[i] -= m
            if k[i] < 0:
                return None
            lam = [x + m * a for x, a in zip(lam, self._alpha[i])]
        return tuple(k)

    def _build(self, k) -> WeightSpace:
        """V_k, with the matrices of f_i into it and of e_i out of it.

        A weight space that the reflection walk proves zero is returned at
        once, without its parents; any other space past the depth cap is
        refused.  Otherwise the candidates are f_i b for
        each i with V_{k - e_i} nonzero and each basis vector b of
        V_{k - e_i}, in that order.  Below the top a vector that every e_j
        kills is zero, so the candidates' relations are those of their
        stacked images (e_j f_i b)_j, which come from the levels above by
        e_j f_i b = f_i (e_j b) + delta_ij lambda_{k - e_i}(h_i) b.  So the
        matrix whose columns are these images is made of blocks
        F_ij E_j + delta_ij lambda(h_i) I, one integer matrix product each,
        with F_ij the matrix of f_i into V_{k - e_j} and E_j that of e_j on
        V_{k - e_i} (the block is zero when V_{k - e_i - e_j} is).  The rows
        of the blocks for one j are cleared to one denominator and the
        integer rows go to an Echelon, whose reduced row echelon form gives
        all of it: the pivot columns are the first independent candidates,
        kept as the basis; column c holds candidate c in that basis (each
        primitive row over its pivot entry), and the columns of the
        candidates f_i b are the matrix of f_i, written column by column from
        the nonzero entries that the Echelon's `supports` list, so no zero
        entry is scaled or scanned; the images at the pivots, over the
        denominator of their j, are the columns of e_j.  Both go through
        `Operator.from_int_columns`, which keeps them in lowest terms.  Only
        matrices between two nonzero spaces are stored.
        """
        none = (None,) * self.gcm.n
        if not any(k):
            return WeightSpace(k, ((),), self.lam, none, none)
        lam = self.lam_of(k)
        if self._dominant_depth(k, lam) is None:
            return WeightSpace(k, (), lam, none, none)
        self._check_total(sum(k))
        parents = [(j, self._space(_shift(k, j, -1))) for j in range(self.gcm.n) if k[j]]
        above = [(j, src) for j, src in parents if src.dim]
        dims = [src.dim for _, src in above]
        count = sum(dims)
        if count > self.dim_cap:
            raise linalg.CapError(
                f"weight space candidate set of size {count} exceeds the dimension "
                f"cap {self.dim_cap}; raise it with LIEREG_DIM_CAP"
            )
        images = []  # (denominator, integer rows) of the stacked e_j-images, per j
        start = 0  # where f_j V_{k - e_j} starts among the candidates
        for (j, tgt), dim in zip(above, dims):
            # (F_ij, E_j) per source space i, both None where V_{k - e_i - e_j} is zero
            pairs = [(tgt.f[i], src.e[j]) for i, src in above]
            den = math.lcm(*[f.denom * e.denom for f, e in pairs if e is not None])
            rows = [[] for _ in range(dim)]
            for (f_i, e_j), width in zip(pairs, dims):
                block = [(0,) * width] * dim if e_j is None else linalg.mat_mul(f_i, e_j)
                scale = 1 if e_j is None else den // (f_i.denom * e_j.denom)
                for row, part in zip(rows, block):
                    row.extend(part if scale == 1 else [x * scale for x in part])
            shift = tgt.lam[j] * den  # + lambda_{k - e_j}(h_j) I in the block of source j
            for r, row in enumerate(rows, start):
                row[r] += shift
            images.append((den, rows))
            start += dim
        ech = Echelon()
        for row in linalg.by_leading_column([row for _, rows in images for row in rows]):
            ech.add(row)
        ech.reduce()
        pivots = ech.pivots
        if not pivots:
            return WeightSpace(k, (), lam, none, none)
        lead = math.lcm(*[row[p] for row, p in zip(ech.rows, pivots)])
        columns = [[] for _ in range(count)]  # candidate c in the basis, times lead
        for r, (row, p, support) in enumerate(zip(ech.rows, pivots, ech.supports)):
            s = lead // row[p]
            for c in support:
                columns[c].append((r, s * row[c]))
        f, e = list(none), list(none)
        start = 0  # where f_i V_{k - e_i} starts among the candidates
        for (i, src), (den, rows) in zip(above, images):
            stop = start + src.dim
            f[i] = Operator.from_int_columns(
                [(c - start, columns[c]) for c in range(start, stop)], lead, len(pivots), src.dim
            )
            e[i] = Operator.from_int_columns(
                [(c, [(r, row[p]) for r, row in enumerate(rows) if row[p]])
                 for c, p in enumerate(pivots)],
                den, len(rows), len(pivots),
            )
            start = stop
        candidates = [(i,) + b for i, src in above for b in src.basis]
        basis = tuple(candidates[p] for p in pivots)
        return WeightSpace(k, basis, lam, tuple(f), tuple(e))

    def weight_multiplicity(self, k) -> int:
        """dim V_k, read at the W-conjugate of the weight at depth k that the
        reflection walk ends at.

        A weight that the walk reflects past Lambda answers 0 at any depth,
        and nothing is built.  Otherwise the depth cap is checked on the end
        of the walk, the space that is reduced: within the cap the walk is
        complete and ends at the dominant conjugate, which lies componentwise
        below k.  A walk cut off after depth_cap + 1 steps still ends at a
        W-conjugate of the same dimension, at least depth_cap + 1 below k, so
        its space is built, or refused past the cap, as `space` would.
        """
        k = self._depth_vector(k)
        top = self._dominant_depth(k, self.lam_of(k))
        if top is None:
            return 0
        self._check_total(sum(top))
        return self._space(top).dim

    def dimensions(self) -> dict:
        """Nonzero weight multiplicities for all depth vectors of total at most
        `depth`, in product order.

        The support is walked one total depth at a time from the top: the
        weights read at the next level are the children k + e_j of those just
        found nonzero, each carrying lambda - alpha_j, so no lambda is
        computed from k and no zero region of the box is visited.  The walk
        misses no nonzero weight, since V_mu = sum_i f_i V_{mu + alpha_i}.  A
        dominant weight is built; at any other, the first lambda(h_i) = -m < 0
        gives s_i lambda at depth k - m e_i with the same multiplicity
        (W-invariance), on a shallower level already read: it is in `out`
        unless its multiplicity is 0, or it has a negative coordinate and the
        weight is not <= Lambda.  So only dominant weights with a nonzero
        parent and the spaces below them are built.
        """
        out = {}
        level = {(0,) * self.gcm.n: self.lam}  # depth vector -> lambda(h_i)
        for total in range(self.depth + 1):
            if total:
                level = {_shift(k, j, 1): tuple(map(sub, lam, alpha))
                         for k, lam in level.items() for j, alpha in enumerate(self._alpha)}
            found = {}
            for k, lam in level.items():
                i = next((i for i, x in enumerate(lam) if x < 0), None)
                d = self._space(k).dim if i is None else out.get(_shift(k, i, lam[i]), 0)
                if d:
                    out[k] = d
                    found[k] = lam
            level = found
        return dict(sorted(out.items()))

    # -- generator actions on quotient coordinates --------------------------

    def f_matrix(self, i: int, k) -> Operator:
        """The Operator of f_i from weight k to weight k + e_i in quotient
        coordinates; its `matrix()` is the Fraction view."""
        k = self._depth_vector(k)
        target = self._space(_shift(k, i, 1))
        op = target.f[i]
        if op is not None:
            return op
        # not stored: V_k or V_{k + e_i} is zero
        return Operator((), 1, target.dim, self._space(k).dim)

    def e_matrix(self, i: int, k) -> Operator:
        """The Operator of e_i from weight k to weight k - e_i in quotient
        coordinates; its `matrix()` is the Fraction view."""
        k = self._depth_vector(k)
        source = self._space(k)
        op = source.e[i]
        if op is not None:
            return op
        # not stored: V_k or V_{k - e_i} is zero, or k - e_i is no weight
        height = self._space(_shift(k, i, -1)).dim if k[i] else 0
        return Operator((), 1, height, source.dim)

    # -- vectors ------------------------------------------------------------

    def highest_weight_vector(self) -> "TruncVector":
        return TruncVector._of(1, {(0,) * self.gcm.n: [1]})

    def zero_vector(self) -> "TruncVector":
        return TruncVector._of(1, {})


class TruncVector:
    """Element of a truncated module: depth vector -> quotient coordinates.

    Stored once, in the form the actions carry: a positive denominator `d`
    and `ints`, {depth vector: list of ints}, the vector being ints / d, in
    lowest terms (gcd(d, every entry) = 1) with zero parts left out, so that
    (d, ints) is canonical.  `parts` is the read-only Fraction view.  An
    instance is never changed once made, so results may share its lists.
    """

    __slots__ = ("d", "ints")

    def __init__(self, parts=None):
        parts = {tuple(k): [frac(c) for c in coords] for k, coords in (parts or {}).items()}
        d = math.lcm(*{c.denominator for coords in parts.values() for c in coords})
        self.d, self.ints = _lowest(d, {
            k: [c.numerator * (d // c.denominator) for c in coords]
            for k, coords in parts.items() if any(coords)
        })

    @classmethod
    def _of(cls, d, ints):
        """The vector ints / d, for d > 0 and ints with no zero part."""
        v = object.__new__(cls)
        v.d, v.ints = _lowest(d, ints)
        return v

    @property
    def parts(self) -> dict:
        return {k: linalg.over(u, self.d) for k, u in self.ints.items()}

    def is_zero(self) -> bool:
        return not self.ints

    def __eq__(self, other):
        return isinstance(other, TruncVector) and (self.d, self.ints) == (other.d, other.ints)

    def __add__(self, other):
        return TruncVector._of(*_combine([(1, self.d, self.ints), (1, other.d, other.ints)]))

    def __rmul__(self, scalar):
        return TruncVector._of(*_combine([(frac(scalar), self.d, self.ints)]))

    def coefficient(self, k, idx: int = 0) -> Fraction:
        part = self.ints.get(tuple(k))
        return Fraction(part[idx] if part is not None else 0, self.d)

    def __repr__(self):
        return f"TruncVector({self.parts})"


# An action carries its vector as (d, parts): one denominator d and, per
# depth vector k, a list of ints, the vector being parts / d, as a
# TruncVector stores it.  Zero parts are left out, so the vector is zero
# exactly when parts is empty.


def _lowest(d, parts):
    """(d, parts) divided by the gcd of d and every entry."""
    c = math.gcd(d, *[x for ints in parts.values() for x in ints])
    if c == 1:
        return d, parts
    return d // c, {k: [x // c for x in ints] for k, ints in parts.items()}


def _image(m: IrrTrunc, d, parts, i: int, step: int):
    """(D, parts') with the image of parts / d under f_i (step 1) or e_i
    (step -1) equal to parts' / D; each image part comes from one part.

    The Operators are read where the build stores them, f_i on the space it
    leads into and e_i on the space it leaves, and a part whose Operator is
    None (either end is zero) has no image.  The target of f_i is built on
    first use, so an f_i past the depth cap is refused as `space` refuses it.
    """
    moved = []
    for k, ints in parts.items():
        target = _shift(k, i, step)
        op = m._space(target).f[i] if step == 1 else m._space(k).e[i]
        if op is not None:
            u = op.image(ints)
            if any(u):
                moved.append((target, op.denom, u))
    den = math.lcm(*[e for _, e, _ in moved])
    return d * den, {k: u if e == den else [x * (den // e) for x in u] for k, e, u in moved}


def _combine(terms):
    """(D, parts) with parts / D the sum of c * p / d over the terms (c, d, p),
    c rational and p integer parts; zero parts are left out.  D, the lcm of
    the c.denominator * d, is taken first, so no partial sum is rescaled."""
    den = math.lcm(*[c.denominator * d for c, d, _ in terms])
    acc = {}
    for c, d, parts in terms:
        s = c.numerator * (den // (c.denominator * d))
        for k, u in parts.items():
            old = acc.get(k)
            acc[k] = [s * x for x in u] if old is None else [a + s * x for a, x in zip(old, u)]
    return den, {k: u for k, u in acc.items() if any(u)}


def _e_poly(m: IrrTrunc, x: NcPoly, d, parts):
    """The polynomial x of raising generators on parts / d, each word's first
    letter outermost."""
    terms = []
    for w, c in x.terms.items():
        d_w, image = d, parts
        for i in reversed(w):
            d_w, image = _image(m, d_w, image, i, -1)
        terms.append((c, d_w, image))
    return _combine(terms)


def act_f(m: IrrTrunc, i: int, v: TruncVector) -> TruncVector:
    return TruncVector._of(*_image(m, v.d, v.ints, i, 1))


def act_e(m: IrrTrunc, i: int, v: TruncVector) -> TruncVector:
    return TruncVector._of(*_image(m, v.d, v.ints, i, -1))


def act_h(m: IrrTrunc, i: int, v: TruncVector) -> TruncVector:
    scaled = {}
    for k, ints in v.ints.items():
        c = m.lam_of(k)[i]
        if c:
            scaled[k] = [c * x for x in ints]
    return TruncVector._of(v.d, scaled)


def act_e_poly(m: IrrTrunc, x: NcPoly, v: TruncVector) -> TruncVector:
    return TruncVector._of(*_e_poly(m, x, v.d, v.ints))


# ---------------------------------------------------------------------------
# Group factors.


@dataclass(frozen=True)
class KMFactor:
    """One factor of a Kac-Moody group word.  It names no module, so one
    word acts on every L(Lambda) of its GCM.

    kind 'e'/'f': exp(param * e_i) / exp(param * f_i), data = i.
    kind 'root': exp(param * x) for x the multibracket of the raising
        generators along data (a tuple of indices).
    kind 'torus': s^h with param = s != 0 and data = the coweight of h, the
        n integers c_j of h = sum c_j h_j.
    """

    kind: str
    data: tuple
    param: Fraction

    def __post_init__(self):
        object.__setattr__(self, "param", frac(self.param))
        if self.kind not in ("e", "f", "root", "torus"):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.kind == "torus" and self.param == 0:
            raise ValueError("torus factors need a nonzero parameter")


def _exp_series(apply_once, p, q, d, parts):
    """exp(t X) on parts / d for t = p/q, q > 0, with apply_once(d, parts)
    the image under X.

    The chain [(1, parts), (D_1, u_1), ...] of images X u_(k-1) = u_k / D_k
    runs to the last nonzero one, and linalg.exp_sum sums it in Horner form,
    with _combine of the two terms as its a u + b w.
    """
    chain = [(1, parts)]
    d_x, u = apply_once(1, parts)
    while u:
        chain.append((d_x, u))
        d_x, u = apply_once(1, u)
    den, acc = linalg.exp_sum(
        p, q, chain, lambda a, u, b, w: _combine([(a, 1, u), (b, 1, w)])[1])
    return d * den, acc


def _factor_image(m: IrrTrunc, kind: str, data, p, q, d, parts):
    """(D, parts') with factor . (parts / d) = parts' / D, for the factor of
    the kind and data with parameter p/q, q > 0."""
    if kind == "e":
        return _exp_series(lambda d, u: _image(m, d, u, data, -1), p, q, d, parts)
    if kind == "f":
        return _exp_series(lambda d, u: _image(m, d, u, data, 1), p, q, d, parts)
    if kind == "root":
        poly = words.multibracket(data)
        return _exp_series(lambda d, u: _e_poly(m, poly, d, u), p, q, d, parts)
    # torus: s^n at depth k, n = lambda_k(h) = sum_j c_j lambda_k(h_j) for the coweight c
    powers = {k: sum(map(mul, data, m.lam_of(k))) for k in parts}
    den, scale = linalg.power_scale(p, q, powers.values())
    return d * den, {k: [x * scale[powers[k]] for x in ints] for k, ints in parts.items()}


def _group_image(m: IrrTrunc, g, d, parts):
    """(D, parts') with g . (parts / d) = parts' / D, the rightmost factor
    acting first; reduced by the gcd of the entries between factors.

    Every factor is checked against the module first: an e/f or root index
    lies in 0..n-1 and a coweight has n entries, else a ValueError names the
    factor's position in g.  Then g acts through its normal form,
    linalg.reduced_word, keyed by kind and data: a run of e_i, of f_i, of
    one root multibracket or of one torus coweight adds (multiplies, for
    the torus) its parameters, and an identity factor acts as nothing.
    """
    g, n = tuple(g), m.gcm.n
    for pos, f in enumerate(g):
        if f.kind == "torus":
            if len(f.data) != n:
                raise ValueError(f"factor {pos}: coweight {f.data} has length {len(f.data)}, expected {n}")
        elif not all(0 <= i < n for i in ((f.data,) if f.kind in ("e", "f") else f.data)):
            raise ValueError(f"factor {pos}: {f.kind} data {f.data} has an index outside 0..{n - 1}")
    factors = [((f.kind, f.data), f.kind != "torus", f.param.numerator, f.param.denominator)
               for f in reversed(g)]
    for (kind, data), _, p, q in linalg.reduced_word(factors):
        d, parts = _lowest(*_factor_image(m, kind, data, p, q, d, parts))
    return d, parts


def act_km_group(m: IrrTrunc, g, v: TruncVector) -> TruncVector:
    return TruncVector._of(*_group_image(m, g, v.d, v.ints))


def theta_eval(m: IrrTrunc, g) -> Fraction:
    """theta_Lambda(g) = phi_Lambda(g . v_Lambda): the highest-weight coordinate."""
    v = act_km_group(m, g, m.highest_weight_vector())
    return v.coefficient((0,) * m.gcm.n)


def rootvector_is_zero(m: IrrTrunc, poly: NcPoly) -> bool:
    """Does the polynomial of raising generators act by zero on every basis
    vector of depth at most `m.depth`?"""
    for k, dim in m.dimensions().items():
        for b in range(dim):
            unit = TruncVector._of(1, {k: [int(j == b) for j in range(dim)]})
            if not act_e_poly(m, poly, unit).is_zero():
                return False
    return True


# ---------------------------------------------------------------------------
# Tensor squares, the Kostant cone, and Peter-Weyl rank.


class _SquareComponent:
    """The L(2 Lambda) component of the tensor square L(Lambda) (x) L(Lambda),
    built one total depth kappa at a time, each layer once and on first use.

    A tensor vector at kappa is flattened over its weight pairs (k1, k2),
    k1 + k2 = kappa with both spaces nonzero, in increasing k1: the block of
    (k1, k2) starts at its offset and holds b_a (x) b_b, a basis vector of
    V_k1 and b one of V_k2, at a * dim V_k2 + b (`blocks`).  The component
    is generated from v_Lambda (x) v_Lambda by the lowering operators, so its
    weight space at kappa, `span`, is the sum over i of the images of the
    span at kappa - e_i under f_i (x) 1 + 1 (x) f_i (`f`, one Operator per
    weight and letter).  Every vector is kept in integers, up to a positive
    scale, which a span does not see.
    """

    def __init__(self, m: IrrTrunc):
        self.m = m
        self._blocks: dict = {}  # kappa -> ({(k1, k2): offset}, size)
        self._spans: dict = {}  # kappa -> Echelon of the component at kappa

    def blocks(self, total_k):
        """({(k1, k2): offset}, size) of the flattened layer at total_k."""
        if total_k not in self._blocks:
            self.m._check_total(sum(total_k))  # then every k1, k2 lies within the cap
            offsets, size = {}, 0
            for k1 in itertools.product(*[range(t + 1) for t in total_k]):
                k2 = tuple(map(sub, total_k, k1))
                d1, d2 = self.m._space(k1).dim, self.m._space(k2).dim
                if d1 and d2:
                    offsets[(k1, k2)] = size
                    size += d1 * d2
            self._blocks[total_k] = (offsets, size)
        return self._blocks[total_k]

    def f(self, i: int, total_k) -> Operator:
        """f_i (x) 1 + 1 (x) f_i from the layer at total_k - e_i to that at
        total_k: f_i (x) 1 sends the block (k1, k2) into (k1 + e_i, k2) and
        1 (x) f_i into (k1, k2 + e_i), which comes first; both are summed
        over the lcm of the denominators.  The f_i are read where the build
        stores them, on their target spaces, and the shapes from the spaces'
        dimensions."""
        offsets, height = self.blocks(total_k)
        above, width = self.blocks(_shift(total_k, i, -1))
        space = self.m._space
        fs = [(space(_shift(k1, i, 1)).f[i], space(_shift(k2, i, 1)).f[i]) for k1, k2 in above]
        den = math.lcm(*[f.denom for pair in fs for f in pair if f is not None])
        columns = []
        for ((k1, k2), start), (f1, f2) in zip(above.items(), fs):
            down1 = offsets.get((_shift(k1, i, 1), k2))
            down2 = offsets.get((k1, _shift(k2, i, 1)))
            # a None f_i has a zero end, so it contributes no entry
            c1, s1 = ({}, 0) if f1 is None else (dict(f1.columns), den // f1.denom)
            c2, s2 = ({}, 0) if f2 is None else (dict(f2.columns), den // f2.denom)
            d2, h2 = space(k2).dim, space(_shift(k2, i, 1)).dim
            for a in range(space(k1).dim):
                for b in range(d2):
                    column = [(down2 + a * h2 + c, s2 * y) for c, y in c2.get(b, ())]
                    column += [(down1 + r * d2 + b, s1 * x) for r, x in c1.get(a, ())]
                    if column:
                        columns.append((start + a * d2 + b, tuple(column)))
        return Operator(tuple(columns), den, height, width)

    def span(self, total_k) -> Echelon:
        """The component's weight space at total_k, as an Echelon of flattened rows."""
        if total_k not in self._spans:
            ech = Echelon()
            if not any(total_k):
                ech.add([1])
            for i, t in enumerate(total_k):
                if t:
                    op = self.f(i, total_k)
                    for row in self.span(_shift(total_k, i, -1)).rows:
                        ech.add(op.image(row))
            self._spans[total_k] = ech
        return self._spans[total_k]

    def flatten(self, v: TruncVector, total_k) -> list:
        """v (x) v at total_k, flattened, over the square of v's denominator."""
        offsets, size = self.blocks(total_k)
        flat = [0] * size
        for (k1, k2), start in offsets.items():
            c1, c2 = v.ints.get(k1), v.ints.get(k2)
            if c1 and c2:
                flat[start:start + len(c1) * len(c2)] = linalg.vec_kron(c1, c2)
        return flat


def kostant_cone_test(m: IrrTrunc, v: TruncVector) -> bool:
    """Is v (x) v inside the L(2 Lambda)-isotypical part of the tensor square?

    Each weight of v (x) v is an exact rank test in integers against the
    component's span there (`_SquareComponent`), which is built only at the
    weights below those of v (x) v, so the work is bounded by the
    multiplicities, not by the number of f-words.  The weights are tested in
    order of total depth, so the test raises TruncationError only when every
    weight within the depth cap passes and one lies past it.
    """
    component = _SquareComponent(m)
    # the total weights of v (x) v, shallowest first: a weight within the cap
    # that rules v (x) v out answers before any weight past the cap is refused
    totals = dict.fromkeys(tuple(map(add, k1, k2)) for k1 in v.ints for k2 in v.ints)
    for total_k in sorted(totals, key=sum):
        if not component.span(total_k).contains(component.flatten(v, total_k)):
            return False
    return True


def peter_weyl_rank(entries, samples) -> int:
    """Rank of the evaluation matrix [f_{phi_j v_j}(g_k)].

    entries: (module, covector, vector) triples where the covector is a
    map depth-vector -> coordinate tuple.
    """
    rows = []
    for module, phi, v in entries:
        row = []
        for g in samples:
            gv = act_km_group(module, g, v)
            total = Fraction(0)
            for k, coords in gv.parts.items():
                pk = phi.get(tuple(k))
                if pk is not None:
                    total += linalg.dot(pk, coords)
            row.append(total)
        rows.append(row)
    return linalg.rank(rows)
