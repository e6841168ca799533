import hashlib
import itertools
import math

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liereg import checks, kacmoody, linalg, words
from liereg.kacmoody import (
    GCM,
    GCMError,
    IrrTrunc,
    KMFactor,
    TruncVector,
    TruncationError,
    act_e,
    act_f,
    act_h,
    act_km_group,
    coweight_torus_factor,
    freudenthal_multiplicity,
    kostant_cone_test,
    peter_weyl_rank,
    root_multiplicities,
    rootvector_is_zero,
    theta_eval,
    validate_gcm,
)


SL2 = validate_gcm([[2]])
A2 = validate_gcm([[2, -1], [-1, 2]])
AFFINE = validate_gcm([[2, -2], [-2, 2]])
B2 = validate_gcm([[2, -1], [-2, 2]])
G2 = validate_gcm([[2, -1], [-3, 2]])
A3 = validate_gcm([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
HYPERBOLIC = validate_gcm([[2, -3], [-3, 2]])
AFFINE_A2 = validate_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def _weights(n, depth):
    return [k for k in itertools.product(range(depth + 1), repeat=n) if sum(k) <= depth]


def _shift(k, i, step):
    return tuple(x + step * (j == i) for j, x in enumerate(k))


def _max_depth(v):
    return max((sum(k) for k in v.parts), default=0)


def _stored(mod):
    """The f_i and e_i Operators that the built weight spaces keep."""
    return [op for ws in mod._spaces.values() for op in ws.f + ws.e if op is not None]


def _unit(dim, idx):
    return tuple(Fraction(int(i == idx)) for i in range(dim))


def _columns(mat, ncols):
    return [tuple(row[c] for row in mat) for c in range(ncols)]


def _finite_positive_roots(a):
    """Positive roots of a finite-type Cartan matrix, grown along root strings.

    The alpha_i-string through a root beta runs from beta - p alpha_i to
    beta + q alpha_i with p - q = <beta, h_i>, and every root of height
    h + 1 is some beta + alpha_i with beta of height h.
    """
    n = len(a)
    layer = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(layer)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(n):
                p = 0
                while tuple(b - (p + 1) * (j == i) for j, b in enumerate(beta)) in roots:
                    p += 1
                q = p - sum(a[i][j] * beta[j] for j in range(n))
                up = tuple(b + (j == i) for j, b in enumerate(beta))
                if q > 0 and up not in roots:
                    roots.add(up)
                    nxt.append(up)
        layer = nxt
    return roots


def test_validate_gcm_symmetrizers():
    assert SL2.d == (1,)
    assert A2.d == (1, 1)
    assert AFFINE.d == (1, 1)
    b2 = validate_gcm([[2, -1], [-2, 2]])
    assert b2.d == (2, 1)
    assert b2.b[0][1] == b2.b[1][0]  # (alpha_i | alpha_j) = d_i a_ij is symmetric
    assert b2.b == ((4, -2), (-2, 2))
    assert all(type(x) is int for x in b2.d + b2.b[0] + b2.b[1])
    assert b2.bilinear((1, 1), (1, 2)) == 4 - 4 - 2 + 4
    # least on each connected component: B2 beside G2, B2 beside A1
    b2_g2 = validate_gcm([[2, -1, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -1], [0, 0, -3, 2]])
    assert b2_g2.d == (2, 1, 3, 1)
    assert validate_gcm([[2, -1, 0], [-2, 2, 0], [0, 0, 2]]).d == (2, 1, 1)


def test_validate_gcm_rejections():
    with pytest.raises(GCMError):
        validate_gcm([[1]])  # diagonal must be 2
    with pytest.raises(GCMError):
        validate_gcm([[2, 1], [1, 2]])  # positive off-diagonal
    with pytest.raises(GCMError):
        validate_gcm([[2, -1], [0, 2]])  # asymmetric zero pattern
    with pytest.raises(GCMError):
        validate_gcm([[2, -1], [-1, 2], [0, 0]])  # not square
    with pytest.raises(GCMError):
        # 3-cycle with mismatched products is not symmetrizable
        validate_gcm([[2, -1, -1], [-1, 2, -1], [-1, -2, 2]])


def ref_symmetrizer(a):
    """d_i a_ij = d_j a_ji propagated in Fractions from d = 1 at each
    component's first index, then each component scaled to its least positive
    integers; None when the matrix is not symmetrizable."""
    n = len(a)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        component, stack = [start], [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and a[i][j]:
                    required = d[i] * Fraction(a[i][j], a[j][i])
                    if d[j] is None:
                        d[j] = required
                        component.append(j)
                        stack.append(j)
                    elif d[j] != required:
                        return None
        ints = [d[k] * math.lcm(*(d[k].denominator for k in component)) for k in component]
        g = math.gcd(*(x.numerator for x in ints))
        for k, x in zip(component, ints):
            d[k] = x.numerator // g
    return tuple(d)


@st.composite
def cartan_patterns(draw):
    """A GCM of rank 1 to 4: either symmetrizable by construction (a_ij =
    b_ij / d_i for a symmetric b), or with each off-diagonal pair drawn on its
    own, both zero or both negative, which is often not symmetrizable."""
    n = draw(st.integers(1, 4))
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    d = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    by_construction = draw(st.booleans())
    for i, j in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            continue
        if by_construction:
            b_ij = -draw(st.integers(1, 2)) * math.lcm(d[i], d[j])
            a[i][j], a[j][i] = b_ij // d[i], b_ij // d[j]
        else:
            a[i][j], a[j][i] = draw(st.integers(-4, -1)), draw(st.integers(-4, -1))
    return a


@settings(max_examples=200, deadline=None)
@given(cartan_patterns())
@example([[2]])
@example([[2, -1, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -1], [0, 0, -3, 2]])  # disconnected
@example([[2, 0, 0], [0, 2, -4], [0, -2, 2]])  # disconnected, one point alone
@example([[2, -1, -1], [-1, 2, -1], [-1, -2, 2]])  # not symmetrizable
@example([[2, -2, 0, -1], [-3, 2, -1, 0], [0, -2, 2, -1], [-4, 0, -1, 2]])
def test_validate_gcm_matches_the_fraction_symmetrizer(a):
    expected = ref_symmetrizer(a)
    if expected is None:
        with pytest.raises(GCMError) as exc:
            validate_gcm(a)
        assert str(exc.value) == "matrix is not symmetrizable"
        return
    gcm = validate_gcm(a)
    assert gcm.d == expected
    assert all(gcm.b[i][j] == gcm.b[j][i] for i in range(len(a)) for j in range(len(a)))


def test_sl2_string_dimensions():
    for m in range(5):
        mod = IrrTrunc(SL2, (m,), depth=m + 2)
        dims = mod.dimensions()
        assert dims == {(k,): 1 for k in range(m + 1)}


def test_highest_weight_line_and_lam_of():
    mod = IrrTrunc(A2, (1, 1), depth=2)
    assert mod.weight_multiplicity((0, 0)) == 1
    assert mod.lam_of((0, 0)) == (1, 1)
    assert mod.lam_of((1, 0)) == (-1, 2)


def test_act_chevalley_sl2():
    m = 2
    mod = IrrTrunc(SL2, (m,), depth=m + 1)
    v = mod.highest_weight_vector()
    assert act_e(mod, 0, v).is_zero()
    assert act_h(mod, 0, v) == Fraction(m) * v
    fv = act_f(mod, 0, v)
    assert not fv.is_zero()
    fffv = act_f(mod, 0, act_f(mod, 0, fv))
    assert fffv.is_zero()  # f^3 kills L(2)


def _assert_commutators(mod, weights):
    """[e_i, f_j] = delta_ij h_i on every basis vector of the given weight spaces."""
    n = mod.gcm.n
    for k in weights:
        ws = mod.space(k)
        for b in range(ws.dim):
            v = TruncVector({k: _unit(ws.dim, b)})
            for i in range(n):
                for j in range(n):
                    lhs = act_e(mod, i, act_f(mod, j, v)) + Fraction(-1) * act_f(
                        mod, j, act_e(mod, i, v)
                    )
                    rhs = act_h(mod, i, v) if i == j else mod.zero_vector()
                    assert lhs == rhs, (k, b, i, j)


def test_commutation_relation_on_basis():
    _assert_commutators(IrrTrunc(A2, (1, 1), depth=4), [(0, 0), (1, 0), (1, 1), (2, 1)])


def test_hyperbolic_module_matches_freudenthal_and_commutators():
    """[[2,-3],[-3,2]] with Lambda = (1,0), whose weight space at depth (4,4) is 17-dimensional."""
    mod = IrrTrunc(HYPERBOLIC, (1, 0), depth=8)
    cache = {}
    for k in _weights(2, 8):
        assert mod.weight_multiplicity(k) == freudenthal_multiplicity(
            HYPERBOLIC, (1, 0), k, cache
        ), k
    assert mod.weight_multiplicity((4, 4)) == 17
    _assert_commutators(mod, _weights(2, 7))


def test_out_of_truncation_errors():
    mod = IrrTrunc(SL2, (4,), depth=1, depth_cap=2)
    assert mod.space((2,)).dim == 1  # past the declared depth, within the cap
    with pytest.raises(TruncationError, match="depth 3, the depth cap is 2"):
        mod.space((3,))
    with pytest.raises(TruncationError):
        IrrTrunc(SL2, (1,), depth=9, depth_cap=4)


def test_exp_action_sl2():
    mod = IrrTrunc(SL2, (1,), depth=1)
    v = mod.highest_weight_vector()
    out = act_km_group(mod, (KMFactor("f", 0, Fraction(3)),), v)
    assert out.coefficient((0,)) == 1
    assert out.coefficient((1,)) == 3
    assert act_km_group(mod, (KMFactor("e", 0, Fraction(0)),), out) == out


def test_torus_factor():
    mod = IrrTrunc(SL2, (2,), depth=2)
    factor = coweight_torus_factor(SL2, mod.lam, (1,), Fraction(3))
    v = TruncVector({(0,): (1,), (1,): (1,), (2,): (1,)})
    out = act_km_group(mod, (factor,), v)
    # weights 2, 0, -2 under h
    assert out.coefficient((0,)) == 9
    assert out.coefficient((1,)) == 1
    assert out.coefficient((2,)) == Fraction(1, 9)


def test_torus_exp_conjugation():
    mod = IrrTrunc(SL2, (3,), depth=3)
    s, t = Fraction(2), Fraction(5, 3)
    h = coweight_torus_factor(SL2, mod.lam, (1,), s)
    h_inv = coweight_torus_factor(SL2, mod.lam, (1,), 1 / s)
    v = TruncVector({(0,): (1,), (1,): (Fraction(1, 2),)})
    lhs = kacmoody.act_km_group(mod, (h, KMFactor("f", 0, t), h_inv), v)
    # s^h exp(t f) s^-h = exp(t s^-alpha(h) f)
    rhs = act_km_group(mod, (KMFactor("f", 0, t * s ** -2),), v)
    assert lhs == rhs


def test_theta_eval_sl2():
    mod = IrrTrunc(SL2, (3,), depth=3, depth_cap=6)
    assert theta_eval(mod, ()) == 1
    assert theta_eval(mod, (KMFactor("f", 0, Fraction(7)),)) == 1
    a, b = Fraction(2, 3), Fraction(5)
    g = (KMFactor("e", 0, b), KMFactor("f", 0, a))
    assert theta_eval(mod, g) == (1 + a * b) ** 3


def test_theta_multiplicative_for_sum_of_weights():
    a, b = Fraction(1, 2), Fraction(4)
    g = (KMFactor("e", 0, b), KMFactor("f", 0, a))
    vals = {}
    for m in (1, 2, 3):
        mod = IrrTrunc(SL2, (m,), depth=m, depth_cap=2 * m + 2)
        vals[m] = theta_eval(mod, g)
    assert vals[3] == vals[1] * vals[2]


def test_root_multiplicities_a2():
    mult = root_multiplicities(A2, 3)
    assert mult == {(1, 0): 1, (0, 1): 1, (1, 1): 1}


@pytest.mark.parametrize("gcm,height", [(A2, 8), (B2, 8), (G2, 8), (A3, 6)])
def test_root_multiplicities_finite_beyond_height_3(gcm, height):
    # A2 (2,2), B2 (2,4), G2 (2,6) and A3 (0,2,2) have (beta|beta-2rho) = 0
    expected = {beta: 1 for beta in _finite_positive_roots(gcm.a)}
    assert max(sum(beta) for beta in expected) < height
    assert root_multiplicities(gcm, height) == expected


def test_root_multiplicities_affine_to_height_16():
    # real roots (m, m +- 1) and imaginary roots (m, m), all of multiplicity 1
    expected = {
        beta: 1 for beta in _weights(2, 16) if any(beta) and abs(beta[0] - beta[1]) <= 1
    }
    assert root_multiplicities(AFFINE, 16) == expected


def test_freudenthal_runs_peterson_once(monkeypatch):
    calls = []
    real = kacmoody.root_multiplicities

    def counted(gcm, max_height, box):
        calls.append((max_height, box))
        return real(gcm, max_height, box)

    monkeypatch.setattr(kacmoody, "root_multiplicities", counted)
    assert freudenthal_multiplicity(AFFINE, (1, 0), (4, 4)) == 5
    assert calls == [(8, (4, 4))]


@pytest.mark.parametrize("k,mult,heights,boxes", [
    ((5, 3), 1, [2], [(1, 1)]), ((0, 9), 0, [], []), ((2, 6), 0, [], []),
], ids=["5-3", "0-9", "2-6"])
def test_freudenthal_runs_peterson_to_the_dominant_height(monkeypatch, k, mult, heights, boxes):
    """(5, 3) reflects to the dominant (1, 1), the box Peterson runs on;
    (0, 9) and (2, 6) reflect past Lambda, so they are 0 before any root is
    needed."""
    calls = []
    real = kacmoody.root_multiplicities

    def counted(gcm, max_height, box):
        calls.append((max_height, box))
        return real(gcm, max_height, box)

    monkeypatch.setattr(kacmoody, "root_multiplicities", counted)
    assert freudenthal_multiplicity(AFFINE, (1, 0), k) == mult
    assert [height for height, _ in calls] == heights
    assert [box for _, box in calls] == boxes


def test_freudenthal_shares_no_code_with_the_build(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle called the build")

    monkeypatch.setattr(IrrTrunc, "_dominant_depth", refuse)
    monkeypatch.setattr(IrrTrunc, "_build", refuse)
    assert freudenthal_multiplicity(AFFINE, (1, 0), (5, 3)) == 1
    assert freudenthal_multiplicity(HYPERBOLIC, (1, 0), (3, 3)) == 6


def _ref_bilinear(gcm, beta, gamma):
    """(beta|gamma) = sum_ij beta_i d_i a_ij gamma_j over Fractions."""
    total = Fraction(0)
    for i, bi in enumerate(beta):
        if bi:
            for j, gj in enumerate(gamma):
                if gj:
                    total += bi * gj * Fraction(gcm.d[i]) * gcm.a[i][j]
    return total


def ref_root_multiplicities(gcm, max_height: int) -> dict:
    """Peterson's recurrence over Fractions and every lattice point: the
    earlier implementation, kept as the reference (with the form computed
    by `_ref_bilinear` from the Cartan matrix and the symmetrizer)."""
    n = gcm.n
    rho_pair = gcm.d  # (alpha_i | rho) = d_i since rho(h_i) = 1

    mult: dict = {}
    c: dict = {}

    def lattice_points(height):
        for ks in itertools.product(range(height + 1), repeat=n):
            if sum(ks) == height:
                yield ks

    for height in range(1, max_height + 1):
        for beta in lattice_points(height):
            if height == 1:
                mult[beta] = 1
                c[beta] = Fraction(1)
                continue
            rhs = Fraction(0)
            for bp in _ref_positive_summands(beta):
                bpp = tuple(b - p for b, p in zip(beta, bp))
                cb1 = c.get(bp)
                cb2 = c.get(bpp)
                if cb1 and cb2:
                    rhs += _ref_bilinear(gcm, bp, bpp) * cb1 * cb2
            denom = _ref_bilinear(gcm, beta, beta) - 2 * sum(
                b * r for b, r in zip(beta, rho_pair)
            )
            # c_beta = sum_{k>=1} mult(beta/k)/k; peel off the proper divisors
            divisors = sum(
                (Fraction(mult.get(tuple(b // k for b in beta), 0), k)
                 for k in range(2, height + 1) if all(b % k == 0 for b in beta)),
                Fraction(0),
            )
            # (beta|beta-2rho) = 0 only for beta = rho - w rho, which is not
            # a root of height > 1: then mult(beta) = 0
            cb = rhs / denom if denom != 0 else divisors
            m = cb - divisors
            if m != 0:
                assert m.denominator == 1 and m > 0, (beta, m)
                mult[beta] = int(m)
            if cb != 0:
                c[beta] = cb
    return mult


def _ref_positive_summands(beta):
    """All nonzero lattice vectors strictly below beta componentwise sums."""
    ranges = [range(b + 1) for b in beta]
    for bp in itertools.product(*ranges):
        if any(bp) and bp != beta:
            yield bp


@st.composite
def symmetrizable_gcms(draw):
    """Rank 2: any off-diagonal pair, both zero or both negative.  Rank 3:
    a_ij = b_ij / d_i for a symmetric b with b_ii = 2 d_i and off-diagonal
    entries nonpositive multiples of lcm(d_i, d_j)."""
    if draw(st.booleans()):
        if draw(st.booleans()):
            return [[2, 0], [0, 2]]
        a01, a10 = draw(st.integers(-5, -1)), draw(st.integers(-5, -1))
        return [[2, a01], [a10, 2]]
    d = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    a = [[2 if i == j else 0 for j in range(3)] for i in range(3)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        b_ij = -draw(st.integers(0, 2)) * math.lcm(d[i], d[j])
        a[i][j], a[j][i] = b_ij // d[i], b_ij // d[j]
    return a


@settings(max_examples=80, deadline=None)
@given(symmetrizable_gcms(), st.integers(0, 7))
@example([[2, -1], [-4, 2]], 7)
@example([[2, -5], [-2, 2]], 7)
@example([[2, -2, 0], [-1, 2, -1], [0, -2, 2]], 7)
@example([[2, -3], [-3, 2]], 7)
def test_root_multiplicities_match_the_fraction_reference(a, height):
    gcm = validate_gcm(a)
    mult = root_multiplicities(gcm, height)
    assert mult == ref_root_multiplicities(gcm, height)
    assert list(mult) == list(ref_root_multiplicities(gcm, height))  # same order
    assert all(type(m) is int for m in mult.values())


@settings(max_examples=60, deadline=None)
@given(symmetrizable_gcms(), st.lists(st.integers(0, 4), min_size=3, max_size=3))
@example([[2, -3], [-3, 2]], [4, 3, 0])
@example([[2, -2], [-2, 2]], [0, 5, 0])
@example([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [3, 2, 2])
def test_root_multiplicities_in_a_box_are_the_unbounded_table_restricted_to_it(a, box):
    gcm = validate_gcm(a)
    box = tuple(box[:gcm.n])
    full = root_multiplicities(gcm, sum(box))
    assert root_multiplicities(gcm, sum(box), box) == {
        beta: m for beta, m in full.items() if all(map(int.__le__, beta, box))
    }


def ref_freudenthal(gcm, lam, beta, cache=None) -> int:
    """Freudenthal's recursion over every weight below lam - beta, with no
    reflection: the earlier implementation, kept as the reference."""
    if cache is None:
        cache = {}
    lam_pairs = [d * x for d, x in zip(gcm.d, lam)]
    height, roots = cache.get(None, (0, ()))
    if sum(beta) > height:
        height = sum(beta)
        roots = []
        for alpha, mult_a in sorted(root_multiplicities(gcm, height).items()):
            pair = gcm.pair_vector(alpha)
            roots.append((alpha, mult_a, pair, sum(a * p for a, p in zip(alpha, lam_pairs)),
                          sum(p * a for p, a in zip(pair, alpha))))
        cache[None] = height, roots
    lam_rho = tuple(p + d for p, d in zip(lam_pairs, gcm.d))

    def mult(beta):
        if beta in cache:
            return cache[beta]
        if not any(beta):
            return 1
        denom = 2 * sum(b * x for b, x in zip(beta, lam_rho)) - gcm.bilinear(beta, beta)
        total = 0
        for alpha, mult_a, pair, lam_pair, norm in roots:
            steps = min(b // a for a, b in zip(alpha, beta) if a)
            pairing = lam_pair - sum(p * b for p, b in zip(pair, beta))
            target = beta
            for _ in range(steps):
                target = tuple(t - a for t, a in zip(target, alpha))
                pairing += norm
                m = mult(target)
                if m:
                    total += mult_a * m * pairing
        if denom == 0:
            assert total == 0, (beta, total)
            result = 0
        else:
            result, rem = divmod(2 * total, denom)
            assert rem == 0 and result >= 0, (beta, Fraction(2 * total, denom))
        cache[beta] = result
        return result

    return mult(tuple(beta))


@settings(max_examples=60, deadline=None)
@given(symmetrizable_gcms(), st.lists(st.integers(0, 2), min_size=3, max_size=3))
@example([[2, -2], [-2, 2]], [1, 0, 0])
@example([[2, -3], [-3, 2]], [1, 1, 0])
@example([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [0, 2, 1])
@example([[2, -2, 0], [-1, 2, -1], [0, -2, 2]], [2, 0, 1])
def test_freudenthal_on_the_dominant_chamber_matches_the_full_recursion(a, lam):
    gcm = validate_gcm(a)
    lam = tuple(lam[:gcm.n])
    cache, ref_cache = {}, {}
    for k in _weights(gcm.n, 6):
        assert freudenthal_multiplicity(gcm, lam, k, cache) == ref_freudenthal(
            gcm, lam, k, ref_cache), k
    # the recursion is asked for, and caches, dominant weights only
    for beta in filter(None, cache):
        assert all(x >= sum(a * b for a, b in zip(row, beta)) for x, row in zip(lam, gcm.a)), beta


def test_freudenthal_refuses_a_non_dominant_weight():
    with pytest.raises(ValueError, match="dominant"):
        freudenthal_multiplicity(AFFINE, (1, -1), (1, 0))
    with pytest.raises(ValueError, match="length"):
        freudenthal_multiplicity(AFFINE, (1,), (1, 0))


@pytest.mark.parametrize("k", [(1, 0, 0), (0,), (1,), (0, 0, 5), ()])
def test_a_depth_vector_of_the_wrong_length_is_refused(k):
    """A depth vector needs one entry per simple root, in the build and in
    the oracle alike; a short one used to raise IndexError or read 1, a long
    one to read its prefix."""
    mod = IrrTrunc(A2, (1, 0), depth=2)
    reads = [mod.weight_multiplicity, mod.space, lambda k: mod.f_matrix(0, k),
             lambda k: mod.e_matrix(0, k), lambda k: freudenthal_multiplicity(A2, (1, 0), k)]
    for read in reads:
        with pytest.raises(ValueError, match=f"length {len(k)}, expected 2"):
            read(k)


def test_root_multiplicities_affine_a2_imaginary_roots():
    # n delta = (n, n, n) has multiplicity 2 = rank of A2; real roots have 1
    mult = root_multiplicities(AFFINE_A2, 12)
    assert [mult[(n, n, n)] for n in range(1, 5)] == [2, 2, 2, 2]
    assert all(m == 1 for beta, m in mult.items() if len(set(beta)) > 1)


def _colored_partitions(n: int, colors: int) -> int:
    """Coefficient of q^n in prod_{m >= 1} (1 - q^m)^(-colors)."""
    if n < 0:
        return 0
    p = [1] + [0] * n
    for _ in range(colors):
        for part in range(1, n + 1):
            for total in range(part, n + 1):
                p[total] += p[total - part]
    return p[n]


def _frenkel_kac(a, k) -> int:
    """Multiplicity of Lambda_0 - sum_i k_i alpha_i in the basic module of A_r^(1).

    The weight is Lambda_0 + gamma - k_0 delta, delta = sum_i alpha_i and
    gamma = sum_{i>0} (k_0 - k_i) alpha_i in the finite root lattice; it has
    multiplicity p_r(k_0 - |gamma|^2 / 2), r-colored partitions (Frenkel-Kac).
    """
    r = len(k) - 1
    gamma = [k[0] - x for x in k[1:]]
    norm = sum(gamma[i] * a[i + 1][j + 1] * gamma[j] for i in range(r) for j in range(r))
    return _colored_partitions(k[0] - norm // 2, r)


@pytest.mark.parametrize("gcm,depth", [(AFFINE, 12), (AFFINE_A2, 9)], ids=["A1^(1)", "A2^(1)"])
def test_freudenthal_matches_frenkel_kac_on_basic_modules(gcm, depth):
    lam = (1,) + (0,) * (gcm.n - 1)
    cache = {}
    got = {k: freudenthal_multiplicity(gcm, lam, k, cache) for k in _weights(gcm.n, depth)}
    assert got == {k: _frenkel_kac(gcm.a, k) for k in _weights(gcm.n, depth)}
    assert max(got.values()) > 1


def test_freudenthal_matches_the_hyperbolic_module_to_depth_10():
    dims = IrrTrunc(HYPERBOLIC, (1, 0), depth=10).dimensions()
    cache = {}
    got = {k: freudenthal_multiplicity(HYPERBOLIC, (1, 0), k, cache) for k in _weights(2, 10)}
    assert {k: m for k, m in got.items() if m} == dims


def test_root_multiplicities_affine():
    mult = root_multiplicities(AFFINE, 4)
    # real roots have multiplicity 1; imaginary roots n*delta too (rank 1)
    assert mult[(1, 0)] == 1 and mult[(0, 1)] == 1
    assert mult[(1, 1)] == 1 and mult[(2, 2)] == 1
    assert mult[(2, 1)] == 1 and mult[(1, 2)] == 1
    assert (3, 1) not in mult


def test_freudenthal_matches_gram_a2_adjoint():
    lam = (1, 1)
    mod = IrrTrunc(A2, lam, depth=3)
    cache = {}
    for k in itertools.product(range(4), repeat=2):
        if sum(k) > 3:
            continue
        assert mod.weight_multiplicity(k) == freudenthal_multiplicity(
            A2, lam, k, cache
        )
    # the Cartan weight of the adjoint module has multiplicity 2
    assert mod.weight_multiplicity((1, 1)) == 2


def test_gram_matrices_symmetric():
    for k in [(1, 0), (2, 1), (2, 2)]:
        gram = checks.GramSpace(AFFINE, (1, 0), k).gram
        n = len(gram)
        for i in range(n):
            for j in range(n):
                assert gram[i][j] == gram[j][i]


def test_integrability_f_nilpotent_on_vectors():
    mod = IrrTrunc(A2, (1, 0), depth=4)
    v = mod.highest_weight_vector()
    u = v
    for _ in range(2):
        u = act_f(mod, 0, u)
    assert u.is_zero()  # lam(h_1) = 1 so f_1^2 v = 0


def test_multibracket_rootvector_a2():
    mod = IrrTrunc(A2, (1, 1), depth=2)
    x = words.multibracket((0, 1))
    assert not rootvector_is_zero(mod, x)
    zero = words.multibracket((0, 0))
    assert zero.is_zero()
    assert rootvector_is_zero(mod, zero)
    e0 = words.multibracket((0,))
    assert e0.terms == {(0,): 1}


def test_exp_rootvector_action():
    mod = IrrTrunc(A2, (1, 1), depth=2)
    x = words.multibracket((0, 1))
    hw = mod.highest_weight_vector()
    v = act_f(mod, 0, act_f(mod, 1, hw))  # the Verma monomial f_0 f_1 v
    xv = kacmoody.act_e_poly(mod, x, v)
    assert not xv.is_zero() and set(xv.parts) == {(0, 0)}
    out = act_km_group(mod, (KMFactor("root", (0, 1), Fraction(1)),), v)
    assert out == v + xv  # the series stops once the top weight is reached


def test_kostant_cone_sl2():
    mod = IrrTrunc(SL2, (1,), depth=1, depth_cap=4)
    assert kostant_cone_test(mod, mod.highest_weight_vector())
    v = TruncVector({(0,): (2,), (1,): (3,)})
    assert kostant_cone_test(mod, v)  # every vector of L(1) is in the cone
    mod2 = IrrTrunc(SL2, (2,), depth=2, depth_cap=6)
    good = TruncVector({(0,): (1,), (1,): (1,), (2,): (Fraction(1, 2),)})
    assert kostant_cone_test(mod2, good)  # exp(f) v
    bad = TruncVector({(0,): (1,), (1,): (0,), (2,): (1,)})
    assert not kostant_cone_test(mod2, bad)
    assert kostant_cone_test(mod2, mod2.zero_vector())


def _orbit_vector(mod, letters):
    """exp(f_{l_0}) exp(f_{l_1} / 2) exp(f_{l_2} / 3) ... v_Lambda."""
    g = tuple(KMFactor("f", i, Fraction(1, 1 + j)) for j, i in enumerate(letters))
    return act_km_group(mod, g, mod.highest_weight_vector())


@pytest.mark.parametrize("gcm, lam, vector, in_cone, layers", [
    (AFFINE_A2, (1, 0, 0), (0, 1, 2, 1, 0, 2, 0), True, 225),
    (G2, (1, 0), (0, 1, 0, 1, 0), True, 117),
    (SL2, (1,), {(0,): (1,), (1,): (5,)}, True, 3),
    (SL2, (2,), {(0,): (1,), (1,): (1,), (2,): (Fraction(1, 2),)}, True, 5),
    (SL2, (2,), {(0,): (1,), (2,): (1,)}, False, 3),
], ids=["A2-affine-orbit", "G2-orbit", "sl2-L1", "sl2-L2-orbit", "sl2-L2-off-cone"])
def test_every_span_of_the_square_has_the_multiplicity_of_2_lambda(
        monkeypatch, gcm, lam, vector, in_cone, layers):
    """The spans are the weight spaces of the L(2 Lambda) component, so each
    one the cone test builds has the rank that the build and Freudenthal
    give L(2 Lambda) at its weight.  (The orbit vectors have depth 8 and 10.)"""
    built = []

    class Recording(kacmoody._SquareComponent):
        def __init__(self, m):
            super().__init__(m)
            built.append(self)

    monkeypatch.setattr(kacmoody, "_SquareComponent", Recording)
    mod = IrrTrunc(gcm, lam, depth=0, depth_cap=24)
    v = TruncVector(vector) if isinstance(vector, dict) else _orbit_vector(mod, vector)
    assert kostant_cone_test(mod, v) == in_cone
    (component,) = built
    assert len(component._spans) == layers
    double = tuple(2 * x for x in lam)
    square = IrrTrunc(gcm, double, depth=0, depth_cap=24)
    cache = {}
    for total, span in component._spans.items():
        assert span.rank == square.space(total).dim == freudenthal_multiplicity(
            gcm, double, total, cache)


def test_peter_weyl_rank():
    mod1 = IrrTrunc(SL2, (1,), depth=1, depth_cap=6)
    mod2 = IrrTrunc(SL2, (2,), depth=2, depth_cap=6)
    hw1, hw2 = mod1.highest_weight_vector(), mod2.highest_weight_vector()
    entries = [
        (mod1, {(0,): (Fraction(1),)}, hw1),
        (mod1, {(1,): (Fraction(1),)}, hw1),
        (mod2, {(0,): (Fraction(1),)}, hw2),
        (mod2, {(1,): (Fraction(1),)}, hw2),
    ]
    samples = []
    for a, b in [(1, 1), (2, 1), (1, 3), (Fraction(1, 2), 5), (3, Fraction(2, 7))]:
        samples.append((KMFactor("e", 0, Fraction(b)), KMFactor("f", 0, Fraction(a))))
    assert peter_weyl_rank(entries, samples) == 4
    assert peter_weyl_rank(entries[:1], samples) == 1
    assert peter_weyl_rank([entries[0], entries[0]], samples) == 1


def test_truncvector_algebra():
    a = TruncVector({(0,): (1,), (1,): (2,)})
    b = TruncVector({(1,): (-2,), (2,): (3,)})
    s = a + b
    assert s.parts == {(0,): (Fraction(1),), (2,): (Fraction(3),)}
    assert (Fraction(0) * a).is_zero()
    assert a.coefficient((1,)) == 2
    assert a.coefficient((5,)) == 0


FRACTIONS = st.fractions(-4, 4, max_denominator=6)
# depth vector -> dimension: every vector drawn below has a part of this length there
TRUNC_DIMS = {k: 1 + sum(k) % 3 for k in _weights(2, 3)}


@st.composite
def trunc_parts(draw):
    keys = draw(st.lists(st.sampled_from(sorted(TRUNC_DIMS)), unique=True, max_size=4))
    return {k: draw(st.lists(FRACTIONS, min_size=TRUNC_DIMS[k], max_size=TRUNC_DIMS[k]))
            for k in keys}


def _ref_vector(parts):
    return {k: tuple(c) for k, c in parts.items() if any(c)}


@settings(max_examples=60, deadline=None)
@given(trunc_parts(), trunc_parts(), FRACTIONS)
@example({(0, 0): [Fraction(1, 2)]}, {(0, 0): [Fraction(-1, 2)]}, Fraction(0))
@example({(1, 0): [4, 6]}, {(1, 0): [Fraction(2), Fraction(3)]}, Fraction(1, 2))
@example({(0, 0): [Fraction(1, 2)]}, {(0, 0): [Fraction(1, 3)]}, Fraction(1))  # same ints, other d
def test_truncvector_matches_a_fraction_reference(a, b, c):
    """`+`, scalar `*`, `==`, `coefficient` and `parts` of the stored
    integer form agree with plain Fraction coordinates."""
    u, v = TruncVector(a), TruncVector(b)
    ref_u, ref_v = _ref_vector(a), _ref_vector(b)
    total = {k: list(x) for k, x in ref_u.items()}
    for k, x in ref_v.items():
        total[k] = [s + t for s, t in zip(total[k], x)] if k in total else list(x)
    ref_sum = _ref_vector(total)
    ref_scaled = _ref_vector({k: [c * s for s in x] for k, x in ref_u.items()})
    assert u.parts == ref_u
    assert (u + v).parts == ref_sum
    assert (c * u).parts == ref_scaled
    assert (u == v) == (ref_u == ref_v)
    assert (u + v == TruncVector(ref_sum)) and (c * u == TruncVector(ref_scaled))
    assert u.is_zero() == (not ref_u)
    for k, dim in TRUNC_DIMS.items():
        for idx in range(dim):
            assert u.coefficient(k, idx) == ref_u.get(k, (0,) * dim)[idx]
    # the stored form: lowest terms over a positive denominator, no zero part
    for w in (u, v, u + v, c * u):
        assert w.d > 0 and all(any(x) for x in w.ints.values())
        assert math.gcd(w.d, *itertools.chain(*w.ints.values())) == 1


def test_weight_space_coords_consistency():
    mod = IrrTrunc(AFFINE, (1, 0), depth=4)
    hw = mod.highest_weight_vector()
    for k in [(2, 1), (1, 2), (2, 2)]:
        ws = mod.space(k)
        assert ws.dim >= 1
        # each basis monomial, applied to v_Lambda, is its own unit vector
        for idx, w in enumerate(ws.basis):
            v = hw
            for i in reversed(w):
                v = act_f(mod, i, v)
            assert v == TruncVector({k: _unit(ws.dim, idx)})


def _gram_coords(gram, combo):
    """Quotient coordinates in the checks.GramSpace gram of a combination
    {word: coefficient} of its monomials.

    Solves G[:, B] c = G u, which is consistent because the pairings of a
    module element with the monomials lie in the column space of G.
    """
    if not gram.dim:
        return ()
    u = [Fraction(combo.get(w, 0)) for w in gram.monomials]
    rows = [[row[p] for p in gram.pivots] for row in gram.gram]
    return linalg.solve(rows, linalg.mat_vec(gram.gram, u))


@pytest.mark.parametrize("gcm,lam", [
    (A2, (1, 1)), (G2, (1, 0)), (AFFINE, (1, 0)), (HYPERBOLIC, (1, 0)),
])
def test_inductive_build_matches_gram_oracle(gcm, lam):
    depth = checks.GRAM_MAX_DEPTH
    mod = IrrTrunc(gcm, lam, depth=depth)
    oracle = {k: checks.GramSpace(gcm, lam, k) for k in _weights(gcm.n, depth)}
    for k, gram in oracle.items():
        ws = mod.space(k)
        assert ws.basis == gram.basis, k
        for i in range(gcm.n):
            if k[i]:
                down = oracle[_shift(k, i, -1)]
                expected = [_gram_coords(down, checks.verma_e(gcm, lam, i, w)) for w in gram.basis]
                assert _columns(mod.e_matrix(i, k).matrix(), ws.dim) == expected, (i, k)
            if sum(k) < depth:
                up = oracle[_shift(k, i, 1)]
                expected = [_gram_coords(up, {(i,) + w: 1}) for w in gram.basis]
                assert _columns(mod.f_matrix(i, k).matrix(), ws.dim) == expected, (i, k)


def test_matrices_of_zero_spaces_keep_their_shape():
    mod = IrrTrunc(SL2, (1,), depth=3)
    assert mod.space((2,)).dim == 0
    assert mod.f_matrix(0, (1,)).matrix() == ()  # into a zero space: no rows
    assert mod.f_matrix(0, (2,)).matrix() == ()
    assert mod.e_matrix(0, (2,)).matrix() == ((),)  # out of a zero space: empty rows
    assert mod.e_matrix(0, (0,)).matrix() == ()
    # B2, Lambda = (1,1): V_(2,2) and V_(1,2) have dimension 2, their
    # neighbours V_(3,2) and V_(0,2) are zero.  (height, width, matrix()) as
    # a build that stored a matrix for every pair of neighbours gave them;
    # no space is built before the matrices are asked for.
    mod = IrrTrunc(B2, (1, 1), depth=6)
    cases = [
        (mod.f_matrix(0, (2, 2)), (0, 2, ())),  # into a zero space: no rows
        (mod.e_matrix(0, (3, 2)), (2, 0, ((), ()))),  # out of a zero space: empty rows
        (mod.f_matrix(0, (0, 2)), (2, 0, ((), ()))),
        (mod.e_matrix(0, (1, 2)), (0, 2, ())),
        (mod.e_matrix(1, (3, 3)), (0, 1, ())),
        (mod.e_matrix(0, (3, 1)), (1, 0, ((),))),
        (mod.e_matrix(1, (2, 0)), (0, 0, ())),  # k_1 = 0: no weight below
    ]
    for op, expected in cases:
        assert (op.height, op.width, op.matrix()) == expected


def test_a_zero_weight_builds_only_itself():
    # lambda(h_1) = -18 at k = (0,9): s_1 takes it to depth (0,-9), above Lambda
    mod = IrrTrunc(AFFINE, (1, 0), 9)
    assert mod.weight_multiplicity((0, 9)) == 0
    assert mod._spaces == {}  # the multiplicity alone builds nothing
    assert mod.space((0, 9)).dim == 0
    assert list(mod._spaces) == [(0, 9)]


def test_the_trivial_affine_module_stores_nothing():
    # Lambda = 0: the walk leaves the dominant weights k delta open, and the
    # elimination finds them zero, with no candidates
    mod = IrrTrunc(AFFINE, (0, 0), 6)
    assert mod.dimensions() == {(0, 0): 1}
    assert not _stored(mod)
    assert mod.e_matrix(0, (1, 1)).matrix() == ()
    assert mod.f_matrix(1, (1, 0)).matrix() == ()


@pytest.mark.parametrize("gcm,lam,depth", [
    (HYPERBOLIC, (1, 0), 9), (AFFINE, (1, 0), 12), (AFFINE_A2, (1, 0, 0), 6),
    (HYPERBOLIC, (1, 0), 12), (A2, (2, 1), 10),
])
def test_only_nonzero_spaces_run_an_elimination(monkeypatch, gcm, lam, depth):
    made = []

    class Counting(linalg.Echelon):
        def __init__(self):
            made.append(1)
            super().__init__()

    monkeypatch.setattr(kacmoody, "Echelon", Counting)
    mod = IrrTrunc(gcm, lam, depth)
    dims = _build_box(mod)
    assert len(mod._spaces) > len(dims)  # some spaces in the box are zero
    assert len(made) == len(dims) - 1  # one per nonzero space below the top
    # matrices are stored only between two nonzero spaces
    assert all(op.height and op.width for op in _stored(mod))


@settings(max_examples=60, deadline=None)
@given(symmetrizable_gcms(), st.lists(st.integers(0, 2), min_size=3, max_size=3),
       st.integers(0, 6))
@example([[2, -2], [-2, 2]], [1, 0, 0], 6)
@example([[2, -3], [-3, 2]], [1, 1, 0], 6)
@example([[2, -1], [-3, 2]], [1, 1, 0], 6)
@example([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [0, 2, 1], 6)
@example([[2, -2, 0], [-1, 2, -1], [0, -2, 2]], [2, 0, 1], 6)
def test_multiplicities_read_on_the_dominant_chamber_match_the_direct_build(a, lam, depth):
    """`dimensions` and `weight_multiplicity` read each weight at its
    dominant conjugate; `space` reduces the weight where it lies, so a fresh
    module built through it reads no multiplicity off a reflected weight."""
    gcm = validate_gcm(a)
    lam = tuple(lam[:gcm.n])
    direct = IrrTrunc(gcm, lam, depth)
    dims = _build_box(direct)
    assert IrrTrunc(gcm, lam, depth).dimensions() == dims
    mod = IrrTrunc(gcm, lam, depth)
    for k in _weights(gcm.n, depth):
        assert mod.weight_multiplicity(k) == direct.space(k).dim, k


def ref_dimensions(mod) -> dict:
    """The box read in product order, each dominant weight built and any
    other read at its first reflection, which comes earlier: the earlier
    `dimensions`, kept as the reference."""
    out = {}
    for k in itertools.product(range(mod.depth + 1), repeat=mod.gcm.n):
        if sum(k) <= mod.depth:
            lam = mod.lam_of(k)
            i = next((i for i, x in enumerate(lam) if x < 0), None)
            d = mod.space(k).dim if i is None else out.get(_shift(k, i, lam[i]), 0)
            if d:
                out[k] = d
    return out


@settings(max_examples=60, deadline=None)
@given(symmetrizable_gcms(), st.lists(st.integers(0, 2), min_size=3, max_size=3),
       st.integers(0, 6))
@example([[2, -2], [-2, 2]], [0, 0, 0], 6)
@example([[2, 0, 0], [0, 2, -2], [0, -2, 2]], [1, 0, 0], 6)
@example([[2, -3], [-3, 2]], [1, 1, 0], 6)
@example([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [0, 2, 1], 6)
def test_dimensions_walks_the_support_as_the_box_scan_reads_it(a, lam, depth):
    """In the first two examples the weights k delta below the top are
    dominant with multiplicity 0 and no nonzero parent, so the walk never
    reads them, and builds no space outside the cone below the support."""
    gcm = validate_gcm(a)
    lam = tuple(lam[:gcm.n])
    mod = IrrTrunc(gcm, lam, depth)
    dims = mod.dimensions()
    assert list(dims.items()) == list(ref_dimensions(IrrTrunc(gcm, lam, depth)).items())
    for k in mod._spaces:
        assert any(all(map(int.__le__, k, top)) for top in dims), k


@pytest.mark.parametrize("gcm,lam,depth,built", [
    (A2, (2, 1), 10, 4), (G2, (1, 1), 22, 21), (AFFINE, (1, 0), 12, 33),
    (AFFINE_A2, (1, 0, 0), 6, 24), (HYPERBOLIC, (1, 0), 9, 31),
])
def test_multiplicities_build_only_the_spaces_below_dominant_weights(gcm, lam, depth, built):
    mod, asked = IrrTrunc(gcm, lam, depth), IrrTrunc(gcm, lam, depth)
    dims = mod.dimensions()
    box = _weights(gcm.n, depth)
    assert {k: asked.weight_multiplicity(k) for k in box} == {k: dims.get(k, 0) for k in box}
    dominant = [k for k in box if min(mod.lam_of(k)) >= 0]
    for k in mod._spaces:
        assert any(all(map(int.__le__, k, top)) for top in dominant), k
    # each weight is read at its dominant conjugate, which lies in the box
    assert sorted(asked._spaces) == sorted(mod._spaces)
    assert len(mod._spaces) == built < len(box)
    assert dims == _build_box(IrrTrunc(gcm, lam, depth))


def test_weight_multiplicity_walks_before_it_checks_the_cap():
    mod = IrrTrunc(AFFINE, (1, 0), 4, depth_cap=4)
    # (0,9) reflects past Lambda: 0 at any depth
    assert mod.weight_multiplicity((0, 9)) == 0
    # (4,3) reflects to the dominant (3,3), which lies past the cap and is
    # refused with its own depth
    with pytest.raises(TruncationError, match="truncation depth 6,"):
        mod.weight_multiplicity((4, 3))
    assert mod._spaces == {}  # neither call built a space
    # the cap bounds the space reduced: (5,3) reflects to the dominant (1,1)
    assert mod.weight_multiplicity((5, 3)) == 1
    assert max(map(sum, mod._spaces)) == 2


@pytest.mark.parametrize("cap,answer", [(3, 1), (2, "truncation depth 3,")])
def test_a_walk_cut_off_by_the_cap_reads_its_last_weight(cap, answer):
    """(9,6) walks (4,6), (4,2), (1,2), (1,0) to the top in five steps.  Cut
    off after cap + 1 steps it ends at a W-conjugate of the top: (1,0) lies
    within a cap of 3 and has dimension 1; (1,2) lies past a cap of 2."""
    mod = IrrTrunc(AFFINE, (1, 0), 0, depth_cap=cap)
    if isinstance(answer, int):
        assert mod.weight_multiplicity((9, 6)) == answer
    else:
        with pytest.raises(TruncationError, match=answer):
            mod.weight_multiplicity((9, 6))


def test_dim_cap_bounds_the_candidates():
    mod = IrrTrunc(AFFINE, (1, 0), depth=4, dim_cap=1)
    assert mod.space((1, 1)).dim == 1  # one candidate: f_1 f_0 v
    with pytest.raises(linalg.CapError):
        mod.space((2, 2))  # f_0 V_(1,2) and f_1 V_(2,1): two candidates


def test_affine_multiplicities_match_freudenthal_to_depth_12():
    mod = IrrTrunc(AFFINE, (1, 0), depth=12)
    cache = {}
    for k in _weights(2, 12):
        assert mod.weight_multiplicity(k) == freudenthal_multiplicity(AFFINE, (1, 0), k, cache)
    assert mod.weight_multiplicity((6, 6)) == 11


def test_a2_weyl_dimension_2_1():
    mod = IrrTrunc(A2, (2, 1), depth=10)
    assert sum(mod.dimensions().values()) == checks.weyl_dim_a2(2, 1) == 15


def test_depth_extension_is_lazy_and_cached():
    mod = IrrTrunc(SL2, (6,), depth=1, depth_cap=10)
    assert (3,) not in mod._spaces
    out = act_km_group(mod, (KMFactor("f", 0, Fraction(1)),), mod.highest_weight_vector())
    assert out.coefficient((6,)) == Fraction(1, 720)
    assert (6,) in mod._spaces


def _build_box(mod):
    """Build every weight space of the box through `space`, which reduces
    each weight where it lies, and return the nonzero dimensions, as
    `dimensions()` lists them."""
    dims = {k: mod.space(k).dim for k in _weights(mod.gcm.n, mod.depth)}
    return {k: d for k, d in dims.items() if d}


def _build_digest(mod):
    """sha256 prefix of every built weight-space basis and of the f/e
    matrices around it, read through `f_matrix`/`e_matrix` and their Fraction
    view and written as type:value, so that a change of value or of type
    shows.  The keys are f_i into every built k with k_i > 0 and e_j out of
    every built k, in sorted order."""
    h = hashlib.sha256()
    built = sorted(mod._spaces)
    for k in built:
        h.update(f"{k}:{mod._spaces[k].basis}\n".encode())
    f_keys = sorted((i, _shift(k, i, -1)) for k in built for i in range(mod.gcm.n) if k[i])
    e_keys = sorted((j, k) for k in built for j in range(mod.gcm.n))
    for name, keys, matrix in (("f", f_keys, mod.f_matrix), ("e", e_keys, mod.e_matrix)):
        for key in keys:
            h.update(f"{name}{key}:".encode())
            for row in matrix(*key).matrix():
                h.update((",".join(f"{type(x).__name__}:{x}" for x in row) + ";").encode())
            h.update(b"\n")
    return h.hexdigest()[:16]


def _no_row_scan(rows):
    raise AssertionError("the build scanned full rows for their nonzero columns")


@pytest.mark.parametrize(
    "gcm,lam,depth,dim,digest",
    [
        (HYPERBOLIC, (1, 0), 9, 147, "b08fde32a055860e"),
        (AFFINE, (1, 0), 12, 70, "78b68e96759ebbcd"),
        (validate_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]), (1, 0, 0), 6, 22,
         "c9161ecf2b3667de"),
        # larger systems: the blocks of depth 12 have up to 26 candidates
        (HYPERBOLIC, (1, 0), 12, 867, "94eac4842d10eca5"),
    ],
)
def test_weight_space_bases_and_matrices_are_pinned(monkeypatch, gcm, lam, depth, dim, digest):
    """The build writes its Operators column by column: it never scans full
    rows for their nonzero columns."""
    monkeypatch.setattr(linalg, "_nonzero_columns", _no_row_scan)
    mod = IrrTrunc(gcm, lam, depth)
    dims = _build_box(mod)
    assert sum(dims.values()) == dim
    assert _build_digest(mod) == digest
    assert IrrTrunc(gcm, lam, depth).dimensions() == dims


@pytest.mark.parametrize(
    "gcm,lam,depth,updates",
    [(HYPERBOLIC, (1, 0), 9, 273), (AFFINE, (1, 0), 12, 35), (AFFINE_A2, (1, 0, 0), 6, 6),
     (HYPERBOLIC, (1, 0), 12, 6000)],
)
def test_the_build_reduces_each_space_once(monkeypatch, gcm, lam, depth, updates):
    """The modules of the pin test above.  A candidate whose leading column
    is already a pivot can leave its remainder's pivot column nonzero in rows
    above it, so the build calls reduce() once per space, after every add.
    Each stored row update ends in one _make_primitive call, as each new
    row does; a reduced form kept up on every add made 322, 40, 7 and 7963
    updates on these modules."""
    counts = {"reduce": 0, "accepted": 0, "primitive": 0}
    add, reduce, make_primitive = linalg.Echelon.add, linalg.Echelon.reduce, linalg._make_primitive

    def counting_add(self, v):
        grew = add(self, v)
        counts["accepted"] += grew
        return grew

    def counting_reduce(self):
        counts["reduce"] += 1
        reduce(self)

    def counting_make_primitive(*args):
        counts["primitive"] += 1
        make_primitive(*args)

    monkeypatch.setattr(linalg.Echelon, "add", counting_add)
    monkeypatch.setattr(linalg.Echelon, "reduce", counting_reduce)
    monkeypatch.setattr(linalg, "_make_primitive", counting_make_primitive)
    monkeypatch.setattr(linalg, "_nonzero_columns", _no_row_scan)
    dims = _build_box(IrrTrunc(gcm, lam, depth))
    assert counts["reduce"] == len(dims) - 1  # one per nonzero space below the top
    assert counts["primitive"] - counts["accepted"] == updates
    monkeypatch.undo()
    assert IrrTrunc(gcm, lam, depth).dimensions() == dims


@pytest.mark.parametrize(
    "gcm,lam,depth",
    [(HYPERBOLIC, (1, 0), 9), (AFFINE, (1, 0), 12), (AFFINE_A2, (1, 0, 0), 6)],
)
def test_weight_spaces_are_built_without_fractions(monkeypatch, gcm, lam, depth):
    """The build runs in integers: not one Fraction is made while it runs."""
    mod = IrrTrunc(gcm, lam, depth)
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    dims = mod.dimensions()
    monkeypatch.undo()
    assert made == []
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)  # restored
    assert dims and _stored(mod)


@st.composite
def symmetrizable_rank_two(draw):
    """[[2, -p], [-q, 2]] with p q <= 9, p = q = 0 included; p != q gives a
    non-symmetric matrix (finite, affine and hyperbolic types all occur)."""
    if draw(st.integers(0, 9)) == 0:
        return [[2, 0], [0, 2]]
    p = draw(st.integers(1, 9))
    q = draw(st.integers(1, 9 // p))
    return [[2, -p], [-q, 2]]


@settings(max_examples=40, deadline=None)
@given(
    symmetrizable_rank_two(),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(0, 6),
    st.fractions(-3, 3, max_denominator=5),
    st.fractions(-3, 3, max_denominator=5),
)
@example([[2, -1], [-9, 2]], (2, 1), 6, Fraction(1, 2), Fraction(-4, 3))
@example([[2, -3], [-3, 2]], (1, 1), 6, Fraction(2), Fraction(-1, 2))
def test_rank_two_modules_match_freudenthal_and_the_sl2_theta(a, lam, depth, x, y):
    gcm = validate_gcm(a)
    mod = IrrTrunc(gcm, lam, depth)
    cache = {}
    for k in _weights(2, depth):
        assert mod.weight_multiplicity(k) == freudenthal_multiplicity(gcm, lam, k, cache), k
    # e_i, f_i, h_i span an sl2 acting on the string through v_Lambda:
    # theta(exp(b e_i) exp(a f_i)) = (1 + a b)^Lambda_i, whether or not the
    # declared depth holds the string
    for i in range(2):
        g = (KMFactor("e", i, y), KMFactor("f", i, x))
        for declared in (lam[i], 0):
            assert theta_eval(IrrTrunc(gcm, lam, declared), g) == (1 + x * y) ** lam[i]


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(symmetrizable_rank_two(), st.sampled_from([AFFINE_A2.a, HYPERBOLIC.a])),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.integers(0, 6),
)
@example(AFFINE_A2.a, (1, 0, 0), 6)
@example(AFFINE_A2.a, (0, 2, 1), 6)
@example(HYPERBOLIC.a, (1, 0, 0), 6)
def test_the_reflection_walk_marks_only_zero_weights(a, lam, depth):
    """Multiplicities are W-invariant, so a weight that the walk reflects
    past Lambda has Freudenthal multiplicity 0."""
    gcm = validate_gcm(a)
    lam = lam[:gcm.n]
    mod = IrrTrunc(gcm, lam, depth)
    cache, ref_cache = {}, {}
    for k in _weights(gcm.n, depth):
        if any(k) and mod._dominant_depth(k, mod.lam_of(k)) is None:
            assert freudenthal_multiplicity(gcm, lam, k, cache) == 0, k
            # the oracle reflects too, so the full recursion keeps this
            # test from checking the walk against itself
            assert ref_freudenthal(gcm, lam, k, ref_cache) == 0, k


# Plain-Fraction references for the integer actions: every generator is read
# through the Fraction view of its operator, so these check the
# arithmetic of the actions (denominators, series, scales), not the build.

REFERENCE_MODULES = [
    (A2, (1, 1)), (B2, (1, 1)), (G2, (1, 0)), (AFFINE, (2, 1)), (HYPERBOLIC, (1, 1)),
]


def _ref_apply(matrix, coords):
    return [sum((a * b for a, b in zip(row, coords)), Fraction(0)) for row in matrix]


def _ref_act(mod, i, step, parts):
    out = {}
    for k, coords in parts.items():
        op = mod.f_matrix(i, k) if step == 1 else mod.e_matrix(i, k)
        key = _shift(k, i, step)
        image = _ref_apply(op.matrix(), coords)
        out[key] = [a + b for a, b in zip(out[key], image)] if key in out else image
    return {k: c for k, c in out.items() if any(c)}


def _ref_add(parts, other, scale=1):
    out = {k: list(c) for k, c in parts.items()}
    for k, c in other.items():
        out[k] = [a + scale * b for a, b in zip(out[k], c)] if k in out else [scale * b for b in c]
    return {k: c for k, c in out.items() if any(c)}


def _ref_poly(mod, x, parts):
    out = {}
    for w, c in x.terms.items():
        image = parts
        for i in reversed(w):
            image = _ref_act(mod, i, -1, image)
        out = _ref_add(out, image, c)
    return out


def _ref_factor(mod, factor, parts):
    if factor.kind == "torus":
        lam_val, alpha_vals = factor.data
        return {
            k: [c * factor.param ** (lam_val - sum(map(int.__mul__, k, alpha_vals))) for c in coords]
            for k, coords in parts.items()
        }
    def apply(p):
        if factor.kind == "root":
            return _ref_poly(mod, words.multibracket(factor.data), p)
        return _ref_act(mod, factor.data, 1 if factor.kind == "f" else -1, p)

    out, term, n = parts, parts, 0
    while term:
        n += 1
        term = {k: [factor.param * c / n for c in coords] for k, coords in apply(term).items()}
        term = {k: c for k, c in term.items() if any(c)}
        out = _ref_add(out, term)
    return out


def _as_parts(v):
    return {k: list(c) for k, c in v.parts.items()}


@st.composite
def module_vectors(draw, max_depth=2):
    """A module of REFERENCE_MODULES and a vector with a few rational parts
    (no weight space up to depth 2 there is more than 3-dimensional)."""
    gcm, lam = draw(st.sampled_from(REFERENCE_MODULES))
    weights = st.sampled_from(_weights(gcm.n, max_depth))
    coords = st.lists(st.fractions(-4, 4, max_denominator=6), min_size=3, max_size=3)
    parts = draw(st.dictionaries(weights, coords, max_size=4))
    mod = IrrTrunc(gcm, lam, depth=4, depth_cap=8)
    return mod, TruncVector({k: c[:mod.space(k).dim] for k, c in parts.items()})


@settings(max_examples=40, deadline=None)
@given(module_vectors(), st.lists(st.tuples(
    st.sampled_from(["e", "f", "torus", "root"]), st.integers(0, 1),
    st.fractions(-3, 3, max_denominator=4).filter(bool),
), max_size=3))
# f_0 on V_(1,1) of this module has denominator 2, on V_(0,1) denominator 1
@example((IrrTrunc(A2, (1, 1), depth=4, depth_cap=8),
          TruncVector({(1, 1): (1, Fraction(-1, 3)), (0, 1): (2,)})), [("f", 0, Fraction(1, 2))])
# exp(t f_0) on V_(1,1) of this module runs a chain of 4 terms whose step
# denominators are 1, 3 and 2
@example((IrrTrunc(AFFINE, (2, 1), depth=4, depth_cap=8),
          TruncVector({(1, 1): (1, Fraction(-1, 2))})), [("f", 0, Fraction(-2, 3))])
def test_actions_match_the_fraction_reference(mv, spec):
    mod, v = mv
    parts = _as_parts(v)
    for i in range(mod.gcm.n):
        assert _as_parts(act_f(mod, i, v)) == _ref_act(mod, i, 1, parts)
        assert _as_parts(act_e(mod, i, v)) == _ref_act(mod, i, -1, parts)
    # the term with a denominator first, so that later terms are rescaled
    x = words.NcPoly({(1,): Fraction(2, 3), (0, 1): 1, (1, 0): -1})
    assert _as_parts(kacmoody.act_e_poly(mod, x, v)) == _ref_poly(mod, x, parts)
    g = []
    for kind, i, t in spec:
        if kind == "torus":
            g.append(coweight_torus_factor(mod.gcm, mod.lam, (i, 1 - 2 * i), t))
        else:
            g.append(KMFactor(kind, (0, 1) if kind == "root" else i, t))
    try:
        expected = parts
        for factor in reversed(g):
            expected = _ref_factor(mod, factor, expected)
    except TruncationError:  # exp(t f_i) went past the depth cap
        with pytest.raises(TruncationError):
            act_km_group(mod, tuple(g), v)
    else:
        assert _as_parts(act_km_group(mod, tuple(g), v)) == expected


@st.composite
def words_with_repeats(draw, gcm, lam):
    """A Kac-Moody group word of runs, each of one e_i, f_i, root
    multibracket or torus coweight and at times closed by the inverse of its
    product, with an identity factor of every kind (parameter 0, or 1 for
    the torus) put in at random places."""
    params = st.sampled_from([Fraction(n, d) for n in (-2, -1, 1, 2) for d in (1, 2, 3)])
    coweights = st.lists(st.integers(-1, 1), min_size=gcm.n, max_size=gcm.n)
    indices = st.integers(0, gcm.n - 1)

    def factor(kind, i, coeffs, t):
        if kind == "torus":
            return coweight_torus_factor(gcm, lam, coeffs, t)
        return KMFactor(kind, (i, (i + 1) % gcm.n) if kind == "root" else i, t)

    g = []
    for _ in range(draw(st.integers(1, 3))):
        kind, i, coeffs = draw(st.sampled_from(["e", "f", "root", "torus"])), draw(indices), draw(coweights)
        run = draw(st.lists(params, min_size=1, max_size=3))
        if draw(st.booleans()):
            run.append(1 / math.prod(run) if kind == "torus" else -sum(run))
        g += [factor(kind, i, coeffs, t) for t in run]
    for kind in ("e", "f", "root", "torus"):
        identity = factor(kind, draw(indices), draw(coweights), 1 if kind == "torus" else 0)
        g.insert(draw(st.integers(0, len(g))), identity)
    return g


@settings(max_examples=40, deadline=None)
@given(st.data(), symmetrizable_gcms(), st.lists(st.integers(0, 1), min_size=3, max_size=3))
def test_a_folded_word_acts_as_its_factors_one_by_one(data, a, lam):
    """act_km_group folds adjacent repeats and drops identity factors of
    every kind; the result is the Fraction reference applied factor by
    factor.  A word whose reference leaves the depth cap is not drawn."""
    gcm = validate_gcm(a)
    lam = tuple(lam[:gcm.n])
    ref = IrrTrunc(gcm, lam, depth=0, depth_cap=6)
    g = data.draw(words_with_repeats(gcm, lam))
    expected = {(0,) * gcm.n: [Fraction(1)]}
    try:
        for factor in reversed(g):
            expected = _ref_factor(ref, factor, expected)
    except TruncationError:
        assume(False)
    mod = IrrTrunc(gcm, lam, depth=0, depth_cap=6)
    assert _as_parts(act_km_group(mod, tuple(g), mod.highest_weight_vector())) == expected


def test_a_run_of_one_generator_runs_one_exp_series(monkeypatch):
    """f(1/3) f(2/3) acts as f(1): one exp series, with as many images as
    f(1) takes; an identity factor of any kind runs none."""
    series, images = [], []
    exp_series, image = kacmoody._exp_series, linalg.Operator.image

    def counted_series(*args):
        series.append(args)
        return exp_series(*args)

    def counted_image(op, ints):
        images.append(op)
        return image(op, ints)

    monkeypatch.setattr(kacmoody, "_exp_series", counted_series)
    monkeypatch.setattr(linalg.Operator, "image", counted_image)
    mod = IrrTrunc(AFFINE, (1, 0), depth=0)
    v = mod.highest_weight_vector()
    run = act_km_group(mod, (KMFactor("f", 0, Fraction(1, 3)), KMFactor("f", 0, Fraction(2, 3))), v)
    assert (len(series), len(images)) == (1, 1)  # f_0 v; f_0^2 v lies in a zero space
    assert act_km_group(mod, (KMFactor("f", 0, 1),), v) == run
    assert (len(series), len(images)) == (2, 2)
    identities = (KMFactor("e", 0, 0), KMFactor("f", 1, 0), KMFactor("root", (0, 1), 0),
                  coweight_torus_factor(AFFINE, (1, 0), (1, 0), 1))
    assert act_km_group(mod, identities, v) == v
    assert (len(series), len(images)) == (2, 2)


def _public_matrix(self, i, k):
    raise AssertionError("an action read f_matrix or e_matrix")


@pytest.mark.parametrize("gcm, lam", REFERENCE_MODULES)
def test_actions_read_the_stored_operators(monkeypatch, gcm, lam):
    """theta_eval, act_km_group and act_e_poly read the Operators that the
    build stores on each weight space, not f_matrix or e_matrix, and still
    equal the Fraction references; the module they act on is built while the
    public matrices raise."""
    ref = IrrTrunc(gcm, lam, depth=4, depth_cap=8)
    top = (0,) * gcm.n
    g = (
        coweight_torus_factor(gcm, lam, (1, -1), Fraction(-3, 2)),
        KMFactor("e", 0, Fraction(2, 3)),
        KMFactor("root", (0, 1), Fraction(1, 2)),
        KMFactor("e", 1, Fraction(-5, 4)),
        KMFactor("f", 0, Fraction(-1, 3)),
        KMFactor("f", 1, Fraction(2)),
    )
    expected = {top: [Fraction(1)]}
    for factor in reversed(g):
        expected = _ref_factor(ref, factor, expected)
    down = {top: [Fraction(1)]}
    for factor in g[-2:]:
        down = _ref_factor(ref, factor, down)
    x = words.NcPoly({(1,): Fraction(2, 3), (0, 1): 1, (1, 0): -1, (0,): Fraction(-1, 5)})
    expected_poly = _ref_poly(ref, x, down)
    assert len(down) > 2 and expected_poly  # the f factors leave the top

    monkeypatch.setattr(IrrTrunc, "f_matrix", _public_matrix)
    monkeypatch.setattr(IrrTrunc, "e_matrix", _public_matrix)
    mod = IrrTrunc(gcm, lam, depth=4, depth_cap=8)
    assert theta_eval(mod, g) == expected.get(top, [0])[0]
    assert _as_parts(act_km_group(mod, g, mod.highest_weight_vector())) == expected
    assert _as_parts(kacmoody.act_e_poly(mod, x, TruncVector(down))) == expected_poly


def _ref_rank(rows):
    rows = [list(r) for r in rows if any(r)]
    rank, col = 0, 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            c = rows[r][col] / rows[rank][col]
            rows[r] = [a - c * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def _ref_cone(mod, v):
    """v (x) v in the span, weight by weight, of the f-words applied to
    v_Lambda (x) v_Lambda, all on Fraction blocks C (f (x) 1: F C, 1 (x) f: C F^T)."""
    n = mod.gcm.n
    top = (0,) * n
    level = [{(top, top): [[Fraction(1)]]}]
    vectors = list(level)
    for _ in range(2 * _max_depth(v)):
        nxt = []
        for vec in level:
            for i in range(n):
                out = {}
                for (k1, k2), c in vec.items():
                    f1 = mod.f_matrix(i, k1).matrix()
                    f2 = mod.f_matrix(i, k2).matrix()
                    columns = [_ref_apply(f1, column) for column in zip(*c)]
                    for key, m in (((_shift(k1, i, 1), k2), [list(r) for r in zip(*columns)]),
                                   ((k1, _shift(k2, i, 1)), [_ref_apply(f2, row) for row in c])):
                        if key in out:
                            m = [[a + b for a, b in zip(r, s)] for r, s in zip(out[key], m)]
                        out[key] = m
                out = {k: m for k, m in out.items() if any(x for r in m for x in r)}
                if out:
                    nxt.append(out)
        level = nxt
        vectors += nxt
    square = {}
    for k1, c1 in v.parts.items():
        for k2, c2 in v.parts.items():
            square[(k1, k2)] = [[a * b for b in c2] for a in c1]
    totals = {tuple(map(int.__add__, *key)) for key in square}
    for total in totals:
        keys = sorted({key for vec in vectors + [square] for key in vec
                       if tuple(map(int.__add__, *key)) == total})
        dims = {key: (mod.space(key[0]).dim, mod.space(key[1]).dim) for key in keys}

        def flat(vec):
            return [x for key in keys
                    for r in vec.get(key, [[Fraction(0)] * dims[key][1]] * dims[key][0])
                    for x in r]

        span = [flat(vec) for vec in vectors]
        if _ref_rank(span + [flat(square)]) != _ref_rank(span):
            return False
    return True


@settings(max_examples=30, deadline=None)
@given(module_vectors(max_depth=1))
@example((IrrTrunc(A2, (1, 1), depth=4, depth_cap=8),
          TruncVector({(0, 0): (1,), (1, 1): (2, -1)})))
@example((IrrTrunc(HYPERBOLIC, (1, 1), depth=4, depth_cap=8),
          TruncVector({(1, 1): (Fraction(1, 2), 3)})))
def test_kostant_cone_matches_the_fraction_reference(mv):
    mod, v = mv
    assert kostant_cone_test(mod, v) == _ref_cone(mod, v)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(A2, (1, 1)), (A2, (1, 0)), (B2, (1, 0))]), st.lists(st.tuples(
    st.sampled_from(["e", "f"]), st.integers(0, 1), st.fractions(-3, 3, max_denominator=4),
), min_size=1, max_size=3))
@example((A2, (1, 1)), [("f", 0, Fraction(1)), ("f", 1, Fraction(1))])
@example((A2, (1, 1)), [("f", 1, Fraction(2)), ("f", 0, Fraction(3)), ("f", 1, Fraction(-1, 2))])
def test_kostant_cone_holds_on_the_orbit_of_the_highest_weight_vector(module, spec):
    """G v_Lambda lies in the cone (Kostant), so both tests answer yes; these
    finite modules end by depth 4, so the squares stay within the cap."""
    gcm, lam = module
    mod = IrrTrunc(gcm, lam, depth=8, depth_cap=8)
    g = tuple(KMFactor(kind, i, t) for kind, i, t in spec)
    v = act_km_group(mod, g, mod.highest_weight_vector())
    assert kostant_cone_test(mod, v)
    assert _ref_cone(mod, v)


def test_cone_square_beyond_the_cap_is_refused():
    """L(Lambda_1) of A2 ends at depth 2, so no f image reaches the cap; the
    square of a depth-2 vector still needs depth 4."""
    mod = IrrTrunc(A2, (1, 0), depth=2, depth_cap=3)
    with pytest.raises(TruncationError, match="depth 4, the depth cap is 3"):
        kostant_cone_test(mod, TruncVector({(1, 1): (1,)}))


def test_cone_answers_within_the_cap_whatever_the_order_of_the_parts():
    """v (x) v fails at total depth 2 and reaches depth 6: the answer is
    False in either order of v's parts, never the refusal of depth 6."""
    mod = IrrTrunc(A2, (1, 1), depth=3, depth_cap=3)
    parts = {(0, 0): (Fraction(3, 2),), (1, 1): (2, Fraction(2, 3)), (2, 1): (Fraction(-2, 3),)}
    for keys in (list(parts), list(reversed(parts))):
        assert not kostant_cone_test(mod, TruncVector({k: parts[k] for k in keys}))
    assert not _ref_cone(IrrTrunc(A2, (1, 1), depth=3, depth_cap=6), TruncVector(parts))


def test_f_past_the_declared_depth_stops_only_at_the_cap():
    mod = IrrTrunc(A2, (1, 1), depth=2, depth_cap=8)
    v = TruncVector({(1, 1): (1, 0)})
    assert _max_depth(act_f(mod, 0, v)) == 3
    string = IrrTrunc(SL2, (9,), depth=2, depth_cap=8)
    with pytest.raises(TruncationError, match="depth 9, the depth cap is 8"):
        act_f(string, 0, TruncVector({(8,): (1,)}))
    # exp(0 f) stops after one application: f v reaches the cap, f f v is not asked for
    v = TruncVector({(7,): (1,)})
    assert act_km_group(string, (KMFactor("f", 0, Fraction(0)),), v) == v


def test_f_into_a_zero_space_past_the_cap_is_answered():
    """L(Lambda_2) of A2 ends at depth (1,1); f_0 from there lands at depth
    3, past the cap, on a weight the reflection walk proves zero."""
    mod = IrrTrunc(A2, (0, 1), depth=2, depth_cap=2)
    v = TruncVector({(1, 1): (1,)})
    assert act_f(mod, 0, v).is_zero()
    op = mod.f_matrix(0, (1, 1))
    assert (op.height, op.width) == (0, 1)
    assert mod.space((2, 1)).dim == 0
    # a space past the cap that the walk leaves open is still refused
    with pytest.raises(TruncationError, match="depth 3, the depth cap is 2"):
        IrrTrunc(A2, (1, 1), depth=2, depth_cap=2).space((2, 1))


def test_the_reflection_walk_is_bounded_by_the_cap():
    """The walk takes at most depth_cap + 1 steps.  On A1^(1), Lambda = (1,0),
    the weight at depth (8, 11) takes five steps to prove zero: answered at
    cap 4, refused at cap 3.  A huge depth vector whose walk runs about 2e9
    steps before it reaches a dominant weight is refused at once."""
    assert IrrTrunc(AFFINE, (1, 0), depth=0, depth_cap=4).space((8, 11)).dim == 0
    with pytest.raises(TruncationError, match="depth 19, the depth cap is 3"):
        IrrTrunc(AFFINE, (1, 0), depth=0, depth_cap=3).space((8, 11))
    b = 10 ** 19
    with pytest.raises(TruncationError, match="the depth cap is 24"):
        IrrTrunc(AFFINE, (1, 0), depth=0).space((b + 10 ** 9, b))


def test_actions_build_no_fractions(monkeypatch):
    """The actions and the cone test read and return the stored integer
    form: no Fraction is made while they run, and theta_eval makes one, its
    value.  (A root factor is left out: its multibracket is an NcPoly, whose
    coefficients are Fractions.)"""
    mod = IrrTrunc(A2, (1, 1), depth=4, depth_cap=8)
    v = TruncVector({(0, 0): (Fraction(2, 3),), (1, 1): (Fraction(-1, 2), 5)})
    g = (KMFactor("e", 1, Fraction(3, 4)), coweight_torus_factor(A2, mod.lam, (1, -1), Fraction(-2, 5)),
         KMFactor("f", 0, Fraction(-3, 2)), KMFactor("f", 1, Fraction(1, 3)))
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    results = [act_f(mod, 0, v), act_e(mod, 1, v), act_km_group(mod, g, v)]
    in_cone = kostant_cone_test(mod, v)
    counts = [len(made)]
    theta = theta_eval(mod, g)
    counts.append(len(made))
    monkeypatch.undo()
    assert counts == [0, 1]
    assert not in_cone and theta != 0
    assert all(not w.is_zero() for w in results)


def test_the_cone_test_spans_grow_with_the_multiplicities(monkeypatch):
    """Orbit vectors of depth 6 and 8 in the basic module of A2^(1): the
    component's spans are built weight by weight, so the number of f-images
    follows the multiplicities, not the 3^d f-words of length d."""
    ops, keys, calls = [], [], []  # the cone's Operators, their (letter, total weight), image calls
    tensor_f, image = kacmoody._SquareComponent.f, linalg.Operator.image

    def recording_f(component, i, total_k):
        keys.append((i, total_k))
        ops.append(tensor_f(component, i, total_k))
        return ops[-1]

    def recording_image(op, ints):
        calls.append(any(op is cone for cone in ops))
        return image(op, ints)

    monkeypatch.setattr(kacmoody._SquareComponent, "f", recording_f)
    monkeypatch.setattr(linalg.Operator, "image", recording_image)
    mod = IrrTrunc(AFFINE_A2, (1, 0, 0), depth=0, depth_cap=24)
    # applying every f-word takes 44,361 images at depth 6
    for letters, depth in (((0, 1, 2, 0), 6), ((0, 1, 2, 1, 0, 2, 0), 8)):
        v = _orbit_vector(mod, letters)
        assert _max_depth(v) == depth
        ops.clear(), keys.clear(), calls.clear()
        assert kostant_cone_test(mod, v)
        assert all(calls)  # every image is one of the cone's Operators
        # one Operator per (total weight, letter), whatever the rows above it
        assert len(set(keys)) == len(keys)
        if depth == 6:
            assert len(calls) < 1000


def _ref_tensor_f(m, i, blocks_above, blocks):
    """f_i (x) 1 + 1 (x) f_i from the (k1, k2) blocks of blocks_above to
    those of blocks, as Fraction rows: a block Kronecker product of f_i's
    Fraction matrix with an identity where the target is (k1 + e_i, k2) or
    (k1, k2 + e_i), zero elsewhere."""
    def identity(n):
        return [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]

    def kron(a, b):
        return [[x * y for x in ra for y in rb] for ra in a for rb in b]

    rows = []
    for t1, t2, e1, e2 in blocks:
        band = [[] for _ in range(e1 * e2)]
        for k1, k2, d1, d2 in blocks_above:
            if (t1, t2) == (_shift(k1, i, 1), k2):
                block = kron(m.f_matrix(i, k1).matrix(), identity(d2))
            elif (t1, t2) == (k1, _shift(k2, i, 1)):
                block = kron(identity(d1), m.f_matrix(i, k2).matrix())
            else:
                block = [[Fraction(0)] * (d1 * d2)] * (e1 * e2)
            for row, part in zip(band, block):
                row.extend(part)
        rows.extend(band)
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("gcm, lam, depth", [
    (AFFINE_A2, (1, 0, 0), 6),
    (HYPERBOLIC, (1, 0), 8),
])
def test_the_cone_operators_are_the_fraction_tensor_action(gcm, lam, depth):
    mod = IrrTrunc(gcm, lam, depth=depth)
    component = kacmoody._SquareComponent(mod)

    def layer(total):
        """The (k1, k2, dim V_k1, dim V_k2) blocks of the component's layout
        at total, each starting where the one before it ends."""
        offsets, size = component.blocks(total)
        blocks = [(k1, k2, mod.space(k1).dim, mod.space(k2).dim) for k1, k2 in offsets]
        starts = [0, *itertools.accumulate(d1 * d2 for *_, d1, d2 in blocks)]
        assert list(offsets.values()) == starts[:-1] and size == starts[-1]
        return blocks

    for total in _weights(gcm.n, depth):
        blocks = layer(total)
        for i in range(gcm.n):
            if not total[i]:
                continue
            above = layer(_shift(total, i, -1))
            op = component.f(i, total)
            assert (op.height, op.width) == (
                sum(d1 * d2 for *_, d1, d2 in blocks), sum(d1 * d2 for *_, d1, d2 in above)
            )
            assert op.matrix() == _ref_tensor_f(mod, i, above, blocks)
            ints = [[x * op.denom for x in row] for row in op.matrix()]
            assert op.columns == linalg.Operator.from_rows(ints).columns


@pytest.mark.parametrize("gcm, lam", REFERENCE_MODULES)
def test_the_cone_reads_the_stored_operators(monkeypatch, gcm, lam):
    """_SquareComponent.f reads each f_i where the build stores it, not
    through f_matrix or e_matrix, and still equals the Fraction tensor
    action, zero ends included; the reference is built before the public
    matrices raise."""
    depth = 4
    ref = IrrTrunc(gcm, lam, depth=depth, depth_cap=8)
    ref_component = kacmoody._SquareComponent(ref)

    def layer(total):
        offsets = ref_component.blocks(total)[0]
        return [(k1, k2, ref.space(k1).dim, ref.space(k2).dim) for k1, k2 in offsets]

    expected = {
        (total, i): _ref_tensor_f(ref, i, layer(_shift(total, i, -1)), layer(total))
        for total in _weights(gcm.n, depth) for i in range(gcm.n) if total[i]
    }
    # exp(t f_0) v_Lambda, in the cone (Kostant); its square stays within the cap
    v = act_km_group(ref, (KMFactor("f", 0, Fraction(3, 2)),), ref.highest_weight_vector())

    monkeypatch.setattr(IrrTrunc, "f_matrix", _public_matrix)
    monkeypatch.setattr(IrrTrunc, "e_matrix", _public_matrix)
    mod = IrrTrunc(gcm, lam, depth=depth, depth_cap=8)
    component = kacmoody._SquareComponent(mod)
    assert any(not op.columns for op in map(linalg.Operator.from_rows, expected.values()))
    for (total, i), matrix in expected.items():
        assert component.f(i, total).matrix() == matrix
    assert kostant_cone_test(mod, TruncVector(v.parts))
