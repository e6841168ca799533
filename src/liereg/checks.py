"""Deterministic acceptance suites with independent oracles.

Every suite is a pure function of its seed and returns (ok, detail).
Oracles are kept structurally independent of the code under test:
binomial counts for shuffles, an explicit matrix model for the rank-one
Kac-Moody case, the Weyl dimension formula, the Freudenthal recursion,
Gram ranks of the contravariant form, and the binomial form of the top
component of an sl2 tensor square.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
import time
from fractions import Fraction

from . import duals, grp, kacmoody, linalg, reps, words
from .duals import FiniteFunctional, MatrixCoefficient
from .grp import GroupWord, RegularFunction, exp_factor
from .kacmoody import IrrTrunc, KMFactor, TruncVector, validate_gcm
from .words import Alphabet, NcPoly


def _random_word(rng, letters, max_len, min_len=0):
    n = rng.randint(min_len, max_len)
    return tuple(rng.choice(letters) for _ in range(n))


def _random_fraction(rng, bound=5):
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def _random_poly(rng, letters, max_terms, max_len, nonzero=False):
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        terms[_random_word(rng, letters, max_len)] = _random_fraction(rng)
    poly = NcPoly(terms)
    if nonzero and poly.is_zero():
        w = _random_word(rng, letters, max_len, min_len=1)
        poly = NcPoly({w: Fraction(1)})
    return poly


def _random_nilpotent_rep(rng, alphabet, dim):
    """Strictly upper triangular matrices: nilpotent by construction."""
    mats = {}
    for e in alphabet.letters():
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                if rng.random() < 0.5:
                    rows[i][j] = _random_fraction(rng, 3)
        mats[e] = rows
    return reps.RepSpec(alphabet, dim, mats)


def _random_group_word(rng, letters, max_len, reduced=False):
    n = rng.randint(1, max_len)
    factors = []
    prev = None
    for _ in range(n):
        choices = [e for e in letters if e != prev] if reduced else list(letters)
        e = rng.choice(choices)
        t = _random_fraction(rng)
        while reduced and t == 0:
            t = _random_fraction(rng)
        factors.append(exp_factor(e, t))
        prev = e
    return GroupWord(factors)


# ---------------------------------------------------------------------------


def check_shuffle_laws(seed: int):
    """Shuffle counts match binomials; commutative and associative."""
    letters = (0, 1)
    for total in range(0, 9):
        for l1 in range(total + 1):
            l2 = total - l1
            for w1 in itertools.product(letters, repeat=l1):
                for w2 in itertools.product(letters, repeat=l2):
                    got = sum(words.shuffles(w1, w2).values())
                    if got != math.comb(total, l1):
                        return False, f"count mismatch at {w1}, {w2}"
    rng = random.Random(seed)
    for trial in range(200):
        a = FiniteFunctional({_random_word(rng, letters, 4): _random_fraction(rng)})
        b = FiniteFunctional({_random_word(rng, letters, 4): _random_fraction(rng)})
        c = FiniteFunctional({_random_word(rng, letters, 4): _random_fraction(rng)})
        ab = duals.shuffle_product(a, b)
        if ab != duals.shuffle_product(b, a):
            return False, f"commutativity failed on trial {trial}"
        if duals.shuffle_product(ab, c) != duals.shuffle_product(
            a, duals.shuffle_product(b, c)
        ):
            return False, f"associativity failed on trial {trial}"
    return True, "binomial totals for l1+l2 <= 8 and 200 random triples"


def check_hopf_axioms(seed: int):
    """Coproduct multiplicativity and the antipode identity, length <= 4."""
    all_short = list(words.all_words((0, 1), 4))
    for w1 in all_short:
        for w2 in all_short:
            if len(w1) + len(w2) > 4:
                continue
            x, y = NcPoly.word(w1), NcPoly.word(w2)
            if words.coproduct(x * y) != words.coproduct(x) * words.coproduct(y):
                return False, f"coproduct not multiplicative at {w1}, {w2}"
    for w in all_short:
        # m (S (x) id) Delta(w) = counit(w) * 1
        acc = NcPoly.zero()
        for (left, right), c in words.coproduct(NcPoly.word(w)).terms.items():
            acc = acc + c * (words.antipode(NcPoly.word(left)) * NcPoly.word(right))
        if acc != words.counit(NcPoly.word(w)) * NcPoly.one():
            return False, f"antipode identity failed at {w}"
    return True, "all words of length <= 4 over two letters"


def check_duality_inverse(seed: int):
    """The two maps between regular functions and functionals invert each other."""
    rng = random.Random(seed)
    alphabet = Alphabet(("e1", "e2", "e3"))
    letters = list(alphabet.letters())
    eval_words = list(words.all_words(letters, 5))
    for trial in range(50):
        dim = rng.randint(2, 5)
        rep = _random_nilpotent_rep(rng, alphabet, dim)
        phi = tuple(_random_fraction(rng) for _ in range(dim))
        v = tuple(_random_fraction(rng) for _ in range(dim))
        f = RegularFunction(rep, phi, v)
        h = MatrixCoefficient(rep, phi, v)
        f_back = grp.xi_map(grp.phi_map(f))
        for _ in range(100):
            g = _random_group_word(rng, letters, 4)
            if f_back(g) != f(g):
                return False, f"round trip through functionals failed on trial {trial}"
        h_back = grp.phi_map(grp.xi_map(h))
        for w in eval_words:
            if h_back.evaluate_word(w) != h.evaluate_word(w):
                return False, f"round trip through functions failed on trial {trial}"
    return True, "50 rep-backed functionals, 100 group words each, words <= 5"


def check_product_correspondence(seed: int):
    """Functional product = tensor matrix coefficient = shuffle on finite input."""
    rng = random.Random(seed)
    alphabet = Alphabet(("e1", "e2"))
    letters = list(alphabet.letters())
    eval_words = list(words.all_words(letters, 6))

    def dual_pairing(value1, value2, w):
        total = Fraction(0)
        for (l, r), c in words.coproduct(NcPoly.word(w)).terms.items():
            total += c * value1(l) * value2(r)
        return total

    for trial in range(10):
        dim = rng.randint(2, 4)
        r1 = _random_nilpotent_rep(rng, alphabet, dim)
        r2 = _random_nilpotent_rep(rng, alphabet, dim)
        h1 = MatrixCoefficient(
            r1,
            tuple(_random_fraction(rng) for _ in range(dim)),
            tuple(_random_fraction(rng) for _ in range(dim)),
        )
        h2 = MatrixCoefficient(
            r2,
            tuple(_random_fraction(rng) for _ in range(dim)),
            tuple(_random_fraction(rng) for _ in range(dim)),
        )
        prod = duals.product(h1, h2)
        # the coproducts of the words checked share most of their factors
        v1, v2 = functools.cache(h1.evaluate_word), functools.cache(h2.evaluate_word)
        for w in eval_words:
            if prod.evaluate_word(w) != dual_pairing(v1, v2, w):
                return False, f"tensor product mismatch at {w} (trial {trial})"
    for trial in range(10):
        f1 = _random_poly(rng, letters, 3, 3)
        f2 = _random_poly(rng, letters, 3, 3)
        h1 = FiniteFunctional(dict(f1.terms))
        h2 = FiniteFunctional(dict(f2.terms))
        prod = duals.product(h1, h2)
        shuf = duals.shuffle_product(h1, h2)
        if prod != shuf:
            return False, f"finite product is not the shuffle (trial {trial})"
        v1, v2 = functools.cache(h1.evaluate_word), functools.cache(h2.evaluate_word)
        for w in eval_words:
            if shuf.evaluate_word(w) != dual_pairing(v1, v2, w):
                return False, f"shuffle/coproduct duality failed at {w}"
    return True, "tensor and shuffle forms agree on all words of length <= 6"


def check_translation_commutation(seed: int):
    """Right and left translations commute: x |> (y <| h) = y <| (x |> h)."""
    rng = random.Random(seed)
    alphabet = Alphabet(("e1", "e2"))
    letters = list(alphabet.letters())
    eval_words = list(words.all_words(letters, 4))
    for trial in range(100):
        x = _random_poly(rng, letters, 3, 3)
        y = _random_poly(rng, letters, 3, 3)
        if trial % 2 == 0:
            h = FiniteFunctional(
                {_random_word(rng, letters, 4): _random_fraction(rng) for _ in range(3)}
            )
            lhs = duals.right_translate(x, duals.left_translate(y, h))
            rhs = duals.left_translate(y, duals.right_translate(x, h))
            if lhs != rhs:
                return False, f"finite translation commutation failed (trial {trial})"
        else:
            dim = rng.randint(2, 4)
            rep = _random_nilpotent_rep(rng, alphabet, dim)
            h = MatrixCoefficient(
                rep,
                tuple(_random_fraction(rng) for _ in range(dim)),
                tuple(_random_fraction(rng) for _ in range(dim)),
            )
            lhs = duals.right_translate(x, duals.left_translate(y, h))
            rhs = duals.left_translate(y, duals.right_translate(x, h))
            for w in eval_words:
                if lhs.evaluate_word(w) != rhs.evaluate_word(w):
                    return False, f"rep-backed commutation failed (trial {trial})"
    return True, "100 random (x, y, h) of degree <= 3"


def alternating_word(length: int) -> tuple:
    """e2, e1.e2, e2.e1.e2, ...: alternates and ends in letter index 1."""
    return tuple((length - i) % 2 for i in range(length))


def infinite_support_functional():
    """The two-dimensional cyclic module functional with support on all
    alternating words: the classic witness that the rep-backed functionals
    strictly contain the shuffle algebra."""
    alphabet = Alphabet(("e1", "e2"))
    rep = reps.make_cyclic_pair(alphabet, 0, 1)
    return alphabet, MatrixCoefficient(rep, (Fraction(1), Fraction(1)), (Fraction(1), Fraction(0)))


def check_counterexample(seed: int):
    """A matrix coefficient outside the shuffle span at every bound.

    The span test is exact and a bound past the module's dimension says no
    more than the dimension, so "outside at N = 10^6" certifies "never inside".
    """
    _alphabet, h = infinite_support_functional()
    for length in range(1, 26):
        if h.evaluate_word(alternating_word(length)) != 1:
            return False, f"alternating word of length {length} does not evaluate to 1"
    for bound in [*range(0, 21), 10**6]:
        if duals.in_shuffle_span(h, bound):
            return False, f"claimed inside the shuffle span at bound {bound}"
    return True, "value 1 on alternating words <= 25; outside span for N <= 20 and N = 10^6"


def check_faithfulness(seed: int):
    """Nonzero polynomials and reduced group words move their witnesses."""
    rng = random.Random(seed)
    alphabet = Alphabet(("e1", "e2", "e3"))
    letters = list(alphabet.letters())
    for trial in range(100):
        x = _random_poly(rng, letters, 5, 4, nonzero=True)
        _rep, _v0, moved = grp.faithfulness_witness(x, alphabet)
        if not any(moved):
            return False, f"polynomial witness vanished on trial {trial}"
    for trial in range(100):
        g = _random_group_word(rng, letters, 5, reduced=True)
        rep, v0, moved = grp.group_faithfulness_witness(g, alphabet)
        if moved == v0:
            return False, f"group witness fixed on trial {trial}"
        expected_top = Fraction(1)
        for f in g:
            expected_top *= f.param
        if moved[-1] != expected_top:
            return False, f"top coefficient wrong on trial {trial}"
    return True, "100 nonzero polynomials and 100 reduced group words"


def sl2_explicit_theta(m: int, b: Fraction, a: Fraction) -> Fraction:
    """Independent oracle: exp(b E) exp(a F) in the explicit (m+1)-dim model.

    Basis u_j = f^j v: F u_j = u_{j+1}, E u_j = j(m-j+1) u_{j-1}; theta is
    the u_0 coordinate of the image of u_0.
    """
    dim = m + 1
    u = [Fraction(0)] * dim
    u[0] = Fraction(1)
    # exp(a F)
    out = list(u)
    term = list(u)
    for k in range(1, dim):
        term = [Fraction(0)] + [Fraction(a, k) * t for t in term[:-1]]
        out = [x + y for x, y in zip(out, term)]
    # exp(b E)
    res = list(out)
    term = list(out)
    for k in range(1, dim):
        nxt = [Fraction(0)] * dim
        for j in range(1, dim):
            nxt[j - 1] += j * (m - j + 1) * term[j]
        term = [Fraction(b, k) * t for t in nxt]
        res = [x + y for x, y in zip(res, term)]
    return res[0]


def check_km_sl2(seed: int):
    """Rank one: string dimensions and theta against the explicit oracle."""
    rng = random.Random(seed)
    gcm = validate_gcm([[2]])
    for m in range(0, 7):
        mod = IrrTrunc(gcm, (m,), depth=m + 2)
        for k in range(0, m + 3):
            expected = 1 if k <= m else 0
            if mod.weight_multiplicity((k,)) != expected:
                return False, f"multiplicity wrong for m={m} at depth {k}"
        for point in range(20):
            a = _random_fraction(rng, 6)
            b = _random_fraction(rng, 6)
            g = (KMFactor("e", 0, b), KMFactor("f", 0, a))
            got = kacmoody.theta_eval(mod, g)
            expected = (1 + a * b) ** m
            oracle = sl2_explicit_theta(m, b, a)
            if got != expected or oracle != expected:
                return False, f"theta mismatch for m={m} at point {point}"
    return True, "m <= 6 strings; theta = (1+ab)^m at 20 points, both routes"


GRAM_MAX_DEPTH = 6


def verma_e(gcm, lam, i: int, w: tuple) -> dict:
    """e_i on the Verma monomial f_{w[0]} ... f_{w[-1]} v, as {word: coefficient}.

    e_i passes every letter j != i and turns each letter i into h_i, which
    acts by its weight on the monomial to its right.
    """
    out = {}
    for t, letter in enumerate(w):
        if letter == i:
            rest = w[:t] + w[t + 1:]
            weight = lam[i] - sum(gcm.a[i][s] for s in w[t + 1:])
            out[rest] = out.get(rest, 0) + weight
    return {u: Fraction(c) for u, c in out.items() if c}


class GramSpace:
    """A weight space of L(Lambda) as the radical quotient of a Verma weight space.

    The oracle for `kacmoody.IrrTrunc`: the contravariant form
    <f_u v, f_w v> = <f_{u[1:]} v, e_{u[0]} f_w v> on every ordering w of
    the multiset k, its Gram matrix, and the pivot monomials as the basis.
    There are as many orderings as multinomial(k), so depth is limited to
    GRAM_MAX_DEPTH.
    """

    def __init__(self, gcm, lam, k):
        if sum(k) > GRAM_MAX_DEPTH:
            raise ValueError(f"the Gram oracle stops at depth {GRAM_MAX_DEPTH}")
        letters = [i for i, x in enumerate(k) for _ in range(x)]
        self.monomials = sorted(set(itertools.permutations(letters)))
        form = {}

        def pair(u, w):
            if not u:
                return Fraction(int(not w))
            if (u, w) not in form:
                form[(u, w)] = sum(
                    (c * pair(u[1:], w2) for w2, c in verma_e(gcm, lam, u[0], w).items()),
                    Fraction(0),
                )
            return form[(u, w)]

        self.gram = [[pair(u, w) for w in self.monomials] for u in self.monomials]
        self.pivots = linalg.rref(self.gram)[1]
        self.basis = tuple(self.monomials[p] for p in self.pivots)
        self.dim = len(self.basis)


def weyl_dim_a2(p: int, q: int) -> int:
    """Weyl dimension formula for A2: (p+1)(q+1)(p+q+2)/2."""
    return (p + 1) * (q + 1) * (p + q + 2) // 2


def check_km_a2(seed: int):
    """A2 dimensions against the Weyl formula and Gram ranks; defining relations."""
    gcm = validate_gcm([[2, -1], [-1, 2]])
    for lam, depth in (((1, 0), 3), ((1, 1), 5)):
        mod = IrrTrunc(gcm, lam, depth=depth)
        dims = mod.dimensions()
        total = sum(dims.values())
        expected = weyl_dim_a2(*lam)
        if total != expected:
            return False, f"dim L{lam} = {total}, Weyl formula gives {expected}"
        for k in itertools.product(range(depth + 1), repeat=gcm.n):
            if sum(k) <= depth and dims.get(k, 0) != GramSpace(gcm, lam, k).dim:
                return False, f"L{lam} at {k}: {dims.get(k, 0)} differs from the Gram rank"
    mod = IrrTrunc(gcm, (1, 1), depth=6, depth_cap=8)
    n = gcm.n
    for k in itertools.product(range(7), repeat=n):
        if sum(k) > 6:
            continue
        ws = mod.space(k)
        for b in range(ws.dim):
            v = TruncVector({k: tuple(
                Fraction(1) if j == b else Fraction(0) for j in range(ws.dim)
            )})
            for i in range(n):
                for j in range(n):
                    # [e_i, f_j] = delta_ij h_i
                    if sum(k) <= 5:
                        lhs = kacmoody.act_e(mod, i, kacmoody.act_f(mod, j, v)) + (
                            Fraction(-1)
                            * kacmoody.act_f(mod, j, kacmoody.act_e(mod, i, v))
                        )
                        rhs = kacmoody.act_h(mod, i, v) if i == j else mod.zero_vector()
                        if lhs != rhs:
                            return False, f"[e{i},f{j}] failed at weight {k}"
                    if i != j and sum(k) <= 3:
                        # Serre: (ad f_i)^{1-a_ij} f_j = 0 on the module
                        terms = []
                        order = 1 - gcm.a[i][j]  # = 2 for A2
                        for s in range(order + 1):
                            u = v
                            for _ in range(order - s):
                                u = kacmoody.act_f(mod, i, u)
                            u = kacmoody.act_f(mod, j, u)
                            for _ in range(s):
                                u = kacmoody.act_f(mod, i, u)
                            coeff = Fraction((-1) ** s * math.comb(order, s))
                            terms.append(coeff * u)
                        acc = mod.zero_vector()
                        for t in terms:
                            acc = acc + t
                        if not acc.is_zero():
                            return False, f"Serre relation f{i},f{j} failed at {k}"
    return True, "dims 3 and 8 match Weyl and Gram ranks; relations hold to depth 6"


def check_km_affine(seed: int):
    """Affine rank two: multiplicities vs Freudenthal and Gram ranks, depth <= 5;
    a Serre element and a real root vector on the same module."""
    gcm = validate_gcm([[2, -2], [-2, 2]])
    lam = (1, 0)
    mod = IrrTrunc(gcm, lam, depth=5)
    cache: dict = {}
    checked = 0
    for k in itertools.product(range(6), repeat=2):
        if sum(k) > 5:
            continue
        got = mod.weight_multiplicity(k)
        freudenthal = kacmoody.freudenthal_multiplicity(gcm, lam, k, cache)
        gram = GramSpace(gcm, lam, k).dim
        if not got == freudenthal == gram:
            return False, f"multiplicity mismatch at {k}: {got} vs {freudenthal} vs {gram}"
        checked += 1
    # (ad e_0)^{1 - a_01} e_1 = 0 in the Kac-Moody algebra, while
    # [[e_1, e_0], e_0] spans the root space of the real root alpha_1 + 2 alpha_0
    # (Kac, Infinite-dimensional Lie algebras, Sec. 3.3)
    if not kacmoody.rootvector_is_zero(mod, words.multibracket((1, 0, 0, 0))):
        return False, "the Serre element (ad e_0)^3 e_1 acts by a nonzero operator"
    if kacmoody.rootvector_is_zero(mod, words.multibracket((1, 0, 0))):
        return False, "the real root vector [[e_1, e_0], e_0] acts by zero"
    return True, (
        f"{checked} weights agree between the module, Freudenthal and Gram ranks; "
        "(ad e_0)^3 e_1 acts by zero and [[e_1, e_0], e_0] does not"
    )


def _in_sl2_square_top(c) -> bool:
    """Is c (x) c in the L(2m) part of V_m (x) V_m, for c in the basis
    u_a = f^a u_0 of V_m?  (F (x) 1 + 1 (x) F)^j u_0 (x) u_0 =
    sum_a C(j, a) u_a (x) u_(j-a) spans that part at weight j, so
    c_a c_(j-a) / C(j, a) must be one number for each j."""
    m = len(c) - 1
    return all(
        len({c[a] * c[j - a] / math.comb(j, a) for a in range(max(0, j - m), min(j, m) + 1)}) == 1
        for j in range(2 * m + 1)
    )


def check_kostant_cone(seed: int):
    """Tensor-square membership agrees with the binomial form of the sl2 top
    component, which shares no linear algebra with the cone test."""
    rng = random.Random(seed)
    gcm = validate_gcm([[2]])
    for m in (1, 2):
        mod = IrrTrunc(gcm, (m,), depth=m, depth_cap=4 * m + 2)
        for trial in range(50):
            coeffs = [_random_fraction(rng, 4) for _ in range(m + 1)]
            v = TruncVector({(j,): (c,) for j, c in enumerate(coeffs)})
            expected = _in_sl2_square_top(coeffs)
            got = kacmoody.kostant_cone_test(mod, v)
            if got != expected:
                return False, f"disagreement for m={m} on trial {trial}: {coeffs}"
        for trial in range(10):
            a = _random_fraction(rng, 4)
            b = _random_fraction(rng, 4)
            g = (KMFactor("e", 0, b), KMFactor("f", 0, a))
            orbit_v = kacmoody.act_km_group(mod, g, mod.highest_weight_vector())
            if not kacmoody.kostant_cone_test(mod, orbit_v):
                return False, f"orbit point rejected for m={m} on trial {trial}"
    return True, "oracle agreement on 50 vectors and all orbit samples, m in {1,2}"


def check_z_monoid(seed: int):
    """Eigenvalue monoids contain 0 and are closed under addition."""
    rng = random.Random(seed)
    alphabet = Alphabet(("d",), (words.DIAGONAL,))
    for trial in range(100):
        rep_list = []
        for _ in range(rng.randint(1, 3)):
            dim = rng.randint(1, 4)
            diag = [rng.randint(-4, 4) for _ in range(dim)]
            mats = {0: [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(dim)] for i in range(dim)]}
            rep_list.append(reps.RepSpec(alphabet, dim, mats))
        monoid = duals.z_monoid(0, rep_list)
        if not monoid.contains(0):
            return False, f"0 missing on trial {trial}"
        members = monoid.sample(12)
        for a in members:
            for b in members:
                if abs(a + b) <= 12 and not monoid.contains(a + b):
                    return False, f"not closed: {a}+{b} on trial {trial}"
    return True, "100 random diagonal families, closure within bound 12"


SUITES = (
    ("shuffle-laws", check_shuffle_laws),
    ("hopf-axioms", check_hopf_axioms),
    ("duality-inverse", check_duality_inverse),
    ("product-correspondence", check_product_correspondence),
    ("translation-commutation", check_translation_commutation),
    ("counterexample", check_counterexample),
    ("faithfulness", check_faithfulness),
    ("km-sl2", check_km_sl2),
    ("km-a2", check_km_a2),
    ("km-affine", check_km_affine),
    ("kostant-cone", check_kostant_cone),
    ("z-monoid", check_z_monoid),
)

SUITE_NAMES = tuple(name for name, _fn in SUITES)


def run_all(seed: int = 0, names=None):
    """Run the selected suites; returns a list of (name, ok, detail, seconds)."""
    results = []
    for name, fn in SUITES:
        if names is not None and name not in names:
            continue
        start = time.perf_counter()
        ok, detail = fn(seed)
        results.append((name, ok, detail, time.perf_counter() - start))
    return results
