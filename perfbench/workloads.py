"""Seeded job lists for the three benchmark workloads, with their oracles.

A job is one timed call into liereg's public API.  Besides the call it
carries a canonical form of the output that no valid change of basis can
alter (word values, multiplicities, theta values, verdicts, closure
dimensions) and an oracle that computes the expected canonical form
without making the call under test.  Oracles and canonical forms run
outside the timed section.

The shape of every list is fixed: job types, job counts, module sizes,
Kac-Moody types, weights and depths.  The seed draws coefficients, words,
group parameters, letter orders, changes of basis and the job order.  So
different seeds measure the same amount of work on different numbers.
"""
from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from liereg import cli, duals, grp, kacmoody, reps, words
from liereg.words import Alphabet, NcPoly

WORKLOADS = ("free-eval", "free-span", "km-cli")

# in_shuffle_span's horizon at the seed: it only looks at lengths N+1..N+5.
SEED_SLACK = 5

PETERSON = "peterson-zero-denominator"
HORIZON = "span-horizon"


@dataclass
class Job:
    """One closed-loop request: a timed call plus its untimed check."""

    kind: str
    key: str  # printable, deterministic description of the inputs
    call: Callable[[], Any]
    canon: Callable[[Any], Any]  # output -> JSON-able, basis-independent form
    oracle: Callable[[], Any]  # expected form, computed without `call`
    agrees: Callable[[Any, Any], bool] = lambda got, expected: got == expected
    tag: str = ""  # "sparse" or "dense" module; "" when it does not apply
    # recognises a wrong answer caused by a known seed defect
    defect: Optional[Callable[[Any, Any], Optional[str]]] = None


@dataclass
class Workload:
    name: str
    jobs: list
    modules: list  # one printable descriptor per module built in set-up


def build(name: str, seed: int, per_kind: Optional[int] = None) -> Workload:
    """The workload's job list for a seed.

    `per_kind` keeps only the first jobs of each type, for a tiny run.
    Module construction and `reps.validate_integrable` happen here, so
    they count as set-up.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    make_jobs = {"free-eval": _free_eval, "free-span": _free_span, "km-cli": _km_cli}[name]
    jobs, modules = make_jobs(rng, per_kind)
    rng.shuffle(jobs)
    return Workload(name, jobs, modules)


def normalize(x):
    """JSON round trip, so tuples and lists compare equal."""
    return json.loads(json.dumps(x))


def defect_class(exc: BaseException) -> Optional[str]:
    """Name the known seed defect an exception comes from, if any.

    Peterson's recurrence divides by (beta|beta-2rho), which is zero for
    some non-roots; the seed then trips an assertion in
    `root_multiplicities` or `freudenthal_multiplicity`.
    """
    if not isinstance(exc, AssertionError):
        return None
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if code.co_filename.endswith("kacmoody.py") and code.co_name in (
            "root_multiplicities",
            "freudenthal_multiplicity",
        ):
            return PETERSON
        tb = tb.tb_next
    return None


# ---------------------------------------------------------------------------
# helpers shared by the free-algebra workloads


def _frac(rng, bound=5, nonzero=False) -> Fraction:
    while True:
        x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if x or not nonzero:
            return x


def _fracs(rng, n, nonzero=False):
    return [_frac(rng, nonzero=nonzero) for _ in range(n)]


def _strs(values):
    return [str(Fraction(x)) for x in values]


# plain helpers, so that inputs and checks do not run through liereg.linalg
def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _matmul(a, b):
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def _unimodular(rng, d):
    """A random integer matrix of determinant 1 and its exact inverse."""
    u = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    inv = [row[:] for row in u]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        for k in range(d):  # U <- (1 + c E_ij) U
            u[i][k] += c * u[j][k]
        for k in range(d):  # U^-1 <- U^-1 (1 - c E_ij)
            inv[k][j] -= c * inv[k][i]
    return u, inv


class _Conjugation:
    """A change of basis x -> U x; module, vector and covector follow it."""

    def __init__(self, rng, d):
        self.u, self.inv = _unimodular(rng, d)

    def rep(self, rep: reps.RepSpec) -> reps.RepSpec:
        mats = {
            e: _matmul(_matmul(self.u, rep.matrices[e]), self.inv)
            for e in rep.alphabet.letters()
        }
        return reps.RepSpec(rep.alphabet, rep.dim, mats)

    def vector(self, v):
        return [_dot(row, v) for row in self.u]

    def covector(self, phi):
        return [_dot(phi, col) for col in zip(*self.inv)]


def _nnz(rep: reps.RepSpec) -> float:
    entries = [x for m in rep.matrices.values() for row in m for x in row]
    return sum(1 for x in entries if x) / len(entries)


def _describe(rep: reps.RepSpec, what: str) -> str:
    return f"{what} dim {rep.dim} nnz {_nnz(rep):.2f}"


def _validated(rep: reps.RepSpec) -> reps.RepSpec:
    violations = reps.validate_integrable(rep)
    if violations:
        raise RuntimeError("benchmark module is not integrable: " + "; ".join(violations))
    return rep


def _random_word(rng, letters, n):
    return tuple(rng.choice(letters) for _ in range(n))


def _covering_terms(rng, letters, max_len, extra):
    """Random word -> coefficient terms using every letter, of max length max_len."""
    terms = {_random_word(rng, letters, max_len): _frac(rng, nonzero=True)}
    for e in letters:
        n = rng.randint(1, max_len)
        w = list(_random_word(rng, letters, n))
        w[rng.randrange(n)] = e
        terms[tuple(w)] = _frac(rng, nonzero=True)
    for _ in range(extra):
        terms[_random_word(rng, letters, rng.randint(0, max_len))] = _frac(rng, nonzero=True)
    return terms


def _alternating(letters, p, start):
    return tuple(letters[(start + i) % 2] for i in range(p))


def _random_chain_seq(rng, letters, p):
    seq = [rng.choice(letters)]
    while len(seq) < p:
        seq.append(rng.choice([e for e in letters if e != seq[-1]]))
    return tuple(seq)


def _take(kind_jobs, per_kind):
    return kind_jobs if per_kind is None else kind_jobs[:per_kind]


# ---------------------------------------------------------------------------
# free-eval: word evaluation, witnesses, products and group actions


def _free_eval(rng, per_kind):
    alphabet = Alphabet(("e1", "e2", "e3"))
    letters = list(alphabet.letters())
    modules = []
    jobs = []

    # evaluate realized finite functionals on every word up to length + 1
    kind = []
    for max_len, n_letters, count in ((2, 2, 10), (2, 3, 8), (3, 2, 6)):
        for _ in range(count):
            j = sorted(rng.sample(letters, n_letters))
            h = duals.FiniteFunctional(_covering_terms(rng, j, max_len, extra=2))
            mc = duals.realize_rep_backed(h, alphabet)
            _validated(mc.rep)
            modules.append(_describe(mc.rep, f"sparse V_{max_len}(J), |J|={n_letters}"))
            ws = list(words.all_words(j, max_len + 1))
            kind.append(Job(
                kind="eval-realized",
                key=f"eval-realized {sorted(h.items())} on {len(ws)} words",
                call=lambda mc=mc, ws=ws: [mc.evaluate_word(w) for w in ws],
                canon=_strs,
                oracle=lambda h=h, ws=ws: _strs(h.coeff(w) for w in ws),
                tag="sparse",
            ))
    jobs += _take(kind, per_kind)

    # faithfulness witnesses of polynomials: V_N(J) moves b_empty to x
    kind = []
    for max_len, n_letters, count in ((2, 3, 8), (3, 2, 8), (3, 3, 4)):
        for _ in range(count):
            j = sorted(rng.sample(letters, n_letters))
            x = NcPoly(_covering_terms(rng, j, max_len, extra=2))
            kind.append(Job(
                kind="witness-poly",
                key=f"witness-poly {x!r}",
                call=lambda x=x: grp.faithfulness_witness(x, alphabet),
                canon=lambda out: {
                    alphabet.word_str(w): str(c) for w, c in zip(out[0].labels, out[2]) if c
                },
                oracle=lambda x=x: {alphabet.word_str(w): str(c) for w, c in x.terms.items()},
                tag="sparse",
            ))
    jobs += _take(kind, per_kind)

    # faithfulness witnesses of reduced group words on chain modules
    kind = []
    for p in (3, 4, 5, 6, 7, 8) * 6:
        seq = _random_chain_seq(rng, letters, p)
        g = grp.GroupWord(grp.exp_factor(e, _frac(rng, nonzero=True)) for e in seq)
        kind.append(Job(
            kind="witness-group",
            key=f"witness-group {[(f.letter, str(f.param)) for f in g]}",
            call=lambda g=g: grp.group_faithfulness_witness(g, alphabet),
            canon=lambda out: _strs(out[2]),
            # b_j is reached from b_0 only by the last j letters of g, so
            # its coordinate is the coordinate function f_w of that word
            oracle=lambda g=g: _strs(
                grp.f_w(tuple(f.letter for f in g[len(g) - j:]), g) for j in range(len(g) + 1)
            ),
            tag="sparse",
        ))
    jobs += _take(kind, per_kind)

    # products: finite x finite (shuffle) and rep x rep (tensor), on words <= 5
    kind = []
    eval_words = list(words.all_words(letters[:2], 5))
    for variant, count in (("finite", 8), ("sparse", 5), ("dense", 5)):
        for index in range(count):
            if variant == "finite":
                h1, h2 = (
                    duals.FiniteFunctional(_covering_terms(rng, letters[:2], 3, extra=1))
                    for _ in range(2)
                )
                tag = ""
            else:
                h1, h2 = (_small_mc(rng, alphabet, variant, index + k, modules) for k in (0, 1))
                tag = variant
            kind.append(Job(
                kind="product",
                key=f"product {variant} {_fkey(h1)} {_fkey(h2)}",
                call=lambda h1=h1, h2=h2: _eval_all(duals.product(h1, h2), eval_words),
                canon=_strs,
                oracle=lambda h1=h1, h2=h2: _strs(
                    _coproduct_pairing(h1, h2, w) for w in eval_words
                ),
                tag=tag,
            ))
    jobs += _take(kind, per_kind)

    # group actions, checked against the Taylor expansion of phi(g . v)
    pool = []
    for seq_len in (5, 7):
        rep = _validated(reps.make_chain(alphabet, _random_chain_seq(rng, letters, seq_len)))
        pool.append((rep, "sparse", "chain"))
    for j in ([0, 1], [0, 1, 2]):
        pool.append((_validated(reps.make_VNJ(alphabet, 2, j)), "sparse", f"V_2(J), |J|={len(j)}"))
    for d in (6, 7, 8, 8):
        pool.append((_validated(_dense_upper(rng, alphabet, d)), "dense", "conjugated upper"))
    kind = []
    for index in range(36):
        slot = index % len(pool)
        rep, tag, what = pool[slot]
        if index < len(pool):
            modules.append(_describe(rep, f"{tag} {what}"))
        phi, v = _fracs(rng, rep.dim), _fracs(rng, rep.dim, nonzero=True)
        support = sorted(reps.support(rep))
        gs = [
            grp.GroupWord(
                grp.exp_factor(rng.choice(support), _frac(rng, nonzero=True)) for _ in range(3)
            )
            for _ in range(4)
        ]
        h = duals.MatrixCoefficient(rep, phi, v)
        kind.append(Job(
            kind="act-group",
            key=f"act-group module {slot} phi {_strs(phi)} v {_strs(v)} "
                f"g {[[(f.letter, str(f.param)) for f in g] for g in gs]}",
            call=lambda rep=rep, gs=gs, v=v: [grp.act_group(rep, g, v) for g in gs],
            canon=lambda outs, phi=phi: _strs(_dot(phi, out) for out in outs),
            oracle=lambda h=h, gs=gs: _taylor_values(h, gs),
            tag=tag,
        ))
    jobs += _take(kind, per_kind)
    return jobs, modules


def _fkey(h) -> str:
    if isinstance(h, duals.FiniteFunctional):
        return str(sorted(h.items()))
    return f"mc(dim {h.rep.dim}, phi {_strs(h.phi)}, v {_strs(h.v)})"


def _eval_all(h, ws):
    return [h.evaluate_word(w) for w in ws]


def _coproduct_pairing(h1, h2, w) -> Fraction:
    total = Fraction(0)
    for (left, right), c in words.coproduct(NcPoly.word(w)).terms.items():
        total += c * h1.evaluate_word(left) * h2.evaluate_word(right)
    return total


def _taylor_values(h, gs):
    """phi(g . v) from the Taylor polynomial of h along g's letters."""
    polys = {}
    values = []
    for g in gs:
        letters = tuple(f.letter for f in g)
        if letters not in polys:
            polys[letters] = grp.taylor_expand(h, letters)
        values.append(polys[letters](*(f.param for f in g)))
    return _strs(values)


def _dense_upper(rng, alphabet, d) -> reps.RepSpec:
    """Strictly upper-triangular letters conjugated by a unimodular matrix."""
    mats = {}
    for e in alphabet.letters():
        m = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                m[i][j] = _frac(rng, 3, nonzero=True)
        mats[e] = m
    return _Conjugation(rng, d).rep(reps.RepSpec(alphabet, d, mats))


def _small_mc(rng, alphabet, variant, index, modules) -> duals.MatrixCoefficient:
    """A three-dimensional matrix coefficient: dense, or a chain or V_1(J) by index."""
    if variant == "dense":
        rep = _dense_upper(rng, alphabet, 3)
        what = "dense conjugated upper"
    elif index % 2:
        rep = reps.make_chain(alphabet, _random_chain_seq(rng, [0, 1], 2))
        what = "sparse chain"
    else:
        rep = reps.make_VNJ(alphabet, 1, [0, 1])
        what = "sparse V_1(J), |J|=2"
    _validated(rep)
    modules.append(_describe(rep, what))
    return duals.MatrixCoefficient(rep, _fracs(rng, 3), _fracs(rng, 3, nonzero=True))


# ---------------------------------------------------------------------------
# free-span: translation closures and the shuffle-span test


def _free_span(rng, per_kind):
    alphabet = Alphabet(("e1", "e2"))
    letters = list(alphabet.letters())
    modules = []
    jobs = []

    # closure dimension of a matrix coefficient, known in closed form:
    # on V_N(J) a combination of b_u with |u| = l generates
    # sum_{i <= N-l} |J|^i dimensions; on a chain, b_i + ... generates p+1-i
    sparse = {
        "vnj": _validated(reps.make_VNJ(alphabet, 3, letters)),
        "chain": _validated(reps.make_chain(alphabet, _alternating(letters, 14, 0))),
    }
    pool = [(shape, "sparse", rep, None) for shape, rep in sparse.items()]
    for shape, rep in list(sparse.items()) * 2:
        conj = _Conjugation(rng, rep.dim)
        pool.append((shape, "dense", _validated(conj.rep(rep)), conj))
    for shape, tag, rep, _conj in pool:
        modules.append(_describe(rep, f"{tag} {'V_3(J), |J|=2' if shape == 'vnj' else 'chain'}"))
    kind = []
    for index in range(48):
        shape, tag, rep, conj = pool[index % len(pool)]
        turn = index // len(pool)
        v = [Fraction(0)] * rep.dim
        if shape == "vnj":
            level = turn % 4
            for i, w in enumerate(sparse["vnj"].labels):
                if len(w) == level:
                    v[i] = _frac(rng, nonzero=True)
            expected = sum(2**i for i in range(3 - level + 1))
        else:
            first = 2 * turn
            v[first] = _frac(rng, nonzero=True)
            for i in range(first + 1, 15):
                v[i] = _frac(rng)
            expected = 15 - first
        phi = _fracs(rng, rep.dim)
        if conj is not None:
            v = conj.vector(v)
        h = duals.MatrixCoefficient(rep, phi, v)
        kind.append(Job(
            kind="membership-mc",
            key=f"membership-mc module {index % len(pool)} phi {_strs(phi)} v {_strs(v)}",
            call=lambda h=h: duals.membership_ffr(h),
            canon=list,
            oracle=lambda expected=expected: [True, expected],
            tag=tag,
        ))
    jobs += _take(kind, per_kind)

    # closure dimension of a finite functional: c*phi_w spans |w|+1
    # dimensions; c1*phi_w1 + c2*phi_w2 with different last letters spans
    # its proper prefixes plus itself
    kind = []
    for index in range(24):
        n_words = 1 + index % 2
        ws = []
        for last in letters[:n_words]:
            w = _random_word(rng, letters, 1 + index % 6)
            ws.append(w[:-1] + (last,))
        h = duals.FiniteFunctional({w: _frac(rng, nonzero=True) for w in ws})
        prefixes = {w[:i] for w in ws for i in range(len(w))}
        kind.append(Job(
            kind="membership-finite",
            key=f"membership-finite {sorted(h.items())}",
            call=lambda h=h: duals.membership_ffr(h, alphabet),
            canon=list,
            oracle=lambda n=len(prefixes) + 1: [True, n],
        ))
    jobs += _take(kind, per_kind)

    # the cyclic pair has infinite support: never inside the span
    cyclic = _validated(reps.make_cyclic_pair(alphabet, 0, 1))
    kind = []
    for index in range(12):
        tag = ("sparse", "dense")[index % 2]
        rep, phi, v = cyclic, _fracs(rng, 2, nonzero=True), _fracs(rng, 2, nonzero=True)
        if tag == "dense":
            conj = _Conjugation(rng, 2)
            rep, v, phi = _validated(conj.rep(rep)), conj.vector(v), conj.covector(phi)
        h = duals.MatrixCoefficient(rep, phi, v)
        bound = 4 * (index // 2)
        kind.append(Job(
            kind="span-cyclic",
            key=f"span-cyclic {tag} phi {_strs(phi)} v {_strs(v)} bound {bound}",
            call=lambda h=h, bound=bound: duals.in_shuffle_span(h, bound),
            canon=bool,
            oracle=lambda: False,
            tag=tag,
        ))
    jobs += _take(kind, per_kind)

    # a realized finite functional is inside iff bound >= its max length
    kind = []
    for index in range(16):
        max_len = 2 + index % 2
        h = duals.FiniteFunctional(_covering_terms(rng, letters, max_len, extra=2))
        mc = duals.realize_rep_backed(h, alphabet)
        _validated(mc.rep)
        modules.append(_describe(mc.rep, f"sparse realized V_{max_len}(J), |J|=2"))
        bound = (index // 2) % (max_len + 3)
        kind.append(Job(
            kind="span-realized",
            key=f"span-realized {sorted(h.items())} bound {bound}",
            call=lambda mc=mc, bound=bound: duals.in_shuffle_span(mc, bound),
            canon=bool,
            oracle=lambda ok=bound >= max_len: ok,
            tag="sparse",
        ))
    jobs += _take(kind, per_kind)

    # a chain of length p with phi = b_p*, v = b_0 is inside iff bound >= p;
    # the seed's horizon answers "inside" whenever p > bound + SEED_SLACK
    kind = []
    grid = [(p, "sparse") for p in (4, 6, 8, 10)] + [(8, "dense"), (10, "dense")]
    for p, tag in grid:
        seq = _alternating(letters, p, rng.randint(0, 1))
        rep = reps.make_chain(alphabet, seq)
        phi = [Fraction(int(i == p)) for i in range(p + 1)]
        v = [Fraction(int(i == 0)) for i in range(p + 1)]
        if tag == "dense":
            conj = _Conjugation(rng, p + 1)
            rep, v, phi = conj.rep(rep), conj.vector(v), conj.covector(phi)
        _validated(rep)
        modules.append(_describe(rep, f"{tag} chain"))
        h = duals.MatrixCoefficient(rep, phi, v)
        for bound in range(p + 2):
            kind.append(_span_chain_job(h, seq, p, bound, tag))
    jobs += _take(kind, per_kind)
    return jobs, modules


def _span_chain_job(h, seq, p, bound, tag):
    return Job(
        kind="span-chain",
        key=f"span-chain {tag} seq {seq} bound {bound} phi {_strs(h.phi)}",
        call=lambda: duals.in_shuffle_span(h, bound),
        canon=bool,
        oracle=lambda: bound >= p,
        tag=tag,
        defect=lambda got, expected: (
            HORIZON if got and not expected and p - bound > SEED_SLACK else None
        ),
    )


# ---------------------------------------------------------------------------
# km-cli: the km-* commands, in process, one fresh module per job

GCMS = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "G2": [[2, -3], [-1, 2]],
    "A1^(1)": [[2, -2], [-2, 2]],
    "A2^(1)": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    "hyperbolic": [[2, -3], [-3, 2]],
}
FINITE = ("A1", "A2", "B2", "G2")
# basic representations L(Lambda_0), whose multiplicities are known in
# closed form (Frenkel-Kac): colored partition numbers, one color per
# finite simple root
BASIC = {"A1^(1)": (1, 0), "A2^(1)": (1, 0, 0)}

KM_BUILD = (
    ("A1", (2,), 4), ("A1", (4,), 6), ("A1", (6,), 8),
    ("A2", (1, 1), 5), ("A2", (2, 1), 6),
    ("B2", (1, 0), 5), ("B2", (0, 1), 5),
    ("G2", (1, 0), 6), ("G2", (1, 0), 7), ("G2", (0, 1), 6),
    ("A1^(1)", (1, 0), 6), ("A1^(1)", (1, 0), 7),
    ("A2^(1)", (1, 0, 0), 4), ("A2^(1)", (1, 0, 0), 5),
    ("hyperbolic", (1, 0), 6), ("hyperbolic", (1, 1), 5),
)
KM_MULT = (
    ("A1", (3,), (3,)), ("A1", (3,), (5,)),
    ("A2", (1, 1), (1, 1)), ("A2", (1, 1), (2, 1)), ("A2", (1, 1), (2, 2)),
    ("A2", (2, 1), (1, 2)), ("A2", (2, 1), (2, 2)),
    ("B2", (1, 1), (2, 2)), ("B2", (1, 1), (3, 2)), ("B2", (1, 1), (3, 3)),
    ("G2", (1, 0), (3, 2)), ("G2", (1, 0), (4, 2)), ("G2", (1, 0), (3, 3)),
    ("G2", (0, 1), (3, 3)),
    ("A1^(1)", (1, 0), (3, 4)), ("A1^(1)", (1, 0), (4, 3)),
    ("A1^(1)", (1, 0), (5, 3)), ("A1^(1)", (1, 0), (2, 6)), ("A1^(1)", (1, 0), (1, 8)),
    ("A1^(1)", (1, 0), (0, 9)),
    ("A2^(1)", (1, 0, 0), (1, 1, 1)), ("A2^(1)", (1, 0, 0), (1, 1, 2)),
    ("A2^(1)", (1, 0, 0), (2, 2, 1)),
    ("hyperbolic", (1, 0), (2, 4)), ("hyperbolic", (1, 0), (3, 3)),
    ("hyperbolic", (1, 0), (4, 2)),
)
KM_THETA = (
    ("A1", (2,)), ("A1", (5,)), ("A1", (8,)), ("A2", (2, 1)), ("B2", (1, 1)),
    ("G2", (1, 0)), ("A1^(1)", (1, 0)), ("A2^(1)", (1, 0, 0)), ("hyperbolic", (1, 1)),
)
KM_CONE = (
    ("A1", (1,)), ("A1", (3,)), ("A2", (1, 1)), ("A2", (2, 1)), ("B2", (1, 1)),
    ("G2", (1, 0)), ("A1^(1)", (1, 0)), ("A2^(1)", (1, 0, 0)), ("hyperbolic", (1, 1)),
)


def _km_cli(rng, per_kind):
    jobs = []
    freudenthal_caches: dict = {}

    def run_cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def cli_job(kind, argv, canon, oracle, **extra):
        return Job(
            kind=kind,
            key=" ".join(argv),
            call=lambda: run_cli(argv),
            canon=lambda out: canon(json.loads(out[1])) if out[0] == 0 else ["exit", out[0]],
            oracle=oracle,
            **extra,
        )

    def matrix_arg(gcm):
        return json.dumps({"matrix": GCMS[gcm]})

    def freudenthal(gcm, lam, k):
        cache = freudenthal_caches.setdefault((gcm, lam), {})
        return kacmoody.freudenthal_multiplicity(
            kacmoody.validate_gcm(GCMS[gcm]), lam, k, cache
        )

    def expected_mult(gcm, lam, k):
        if BASIC.get(gcm) == lam:
            return basic_multiplicity(GCMS[gcm], k)
        return freudenthal(gcm, lam, k)

    kind = []
    for _ in range(2):
        for gcm, lam, depth in KM_BUILD:
            argv = ["km-build", "--matrix", matrix_arg(gcm), "--weight", json.dumps(list(lam)),
                    "--depth", str(depth)]
            canon = lambda out: {
                "total": out["total-dimension"],
                "mults": {
                    ",".join(map(str, w["depth"])): w["multiplicity"] for w in out["weights"]
                },
            }
            if gcm in FINITE and depth >= lowest_weight_depth(GCMS[gcm], lam):
                # the whole module fits: compare with Weyl's dimension formula
                kind.append(cli_job(
                    "km-build", argv, canon,
                    oracle=lambda gcm=gcm, lam=lam: weyl_dimension(GCMS[gcm], lam),
                    agrees=lambda got, dim: (
                        got["total"] == dim == sum(got["mults"].values())
                        and all(m > 0 for m in got["mults"].values())
                    ),
                ))
            else:
                kind.append(cli_job(
                    "km-build", argv, canon,
                    oracle=lambda gcm=gcm, lam=lam, depth=depth: _mults_within(
                        len(lam), depth, lambda k: expected_mult(gcm, lam, k)
                    ),
                ))
    jobs += _take(kind, per_kind)

    kind = []
    for gcm, lam, k in KM_MULT:
        argv = ["km-mult", "--matrix", matrix_arg(gcm), "--weight", json.dumps(list(lam)),
                "--k", json.dumps(list(k)), "--oracle"]
        kind.append(cli_job(
            "km-mult", argv,
            canon=lambda out: [out["gram-rank"], out["freudenthal"]],
            oracle=lambda gcm=gcm, lam=lam, k=k: [expected_mult(gcm, lam, k)] * 2,
        ))
    jobs += _take(kind, per_kind)

    # theta(s^h exp(b e_i) exp(a f_i)) = s^(Lambda(h)) (1 + ab)^(Lambda_i):
    # e_i, f_i, h_i span an sl2 acting on the string through v_Lambda
    kind = []
    for turn in range(4):
        for gcm, lam in KM_THETA:
            nodes = [j for j, x in enumerate(lam) if x]
            i = nodes[turn % len(nodes)]
            a, b = _frac(rng, 6), _frac(rng, 6)
            group = [{"kind": "e", "index": i, "param": str(b)},
                     {"kind": "f", "index": i, "param": str(a)}]
            expected = (1 + a * b) ** lam[i]
            if turn % 2:
                coweight = [rng.randint(-2, 2) for _ in lam]
                s = _frac(rng, 3, nonzero=True)
                group.insert(0, {"kind": "torus", "coweight": coweight, "param": str(s)})
                expected *= s ** sum(c * x for c, x in zip(coweight, lam))
            argv = ["km-theta", "--matrix", matrix_arg(gcm), "--weight", json.dumps(list(lam)),
                    "--depth", str(lam[i]), "--group", json.dumps(group)]
            kind.append(cli_job(
                "km-theta", argv,
                canon=lambda out: out["theta"],
                oracle=lambda expected=expected: str(expected),
            ))
    jobs += _take(kind, per_kind)

    # v = x0 v_Lambda + x1 f_i v_Lambda.  v (x) v lies in L(2 Lambda) iff
    # x1 = 0 or Lambda_i = 1: otherwise f_i v (x) f_i v is not a multiple of
    # f_i^2 (v (x) v).  The verdict does not depend on how f_i v_Lambda is
    # scaled, so it survives any change of basis.
    kind = []
    for turn in range(4):
        for gcm, lam in KM_CONE:
            nodes = [j for j, x in enumerate(lam) if x]
            i = nodes[turn % len(nodes)]
            x0, x1 = _frac(rng), _frac(rng)
            if not (x0 or x1):
                x1 = Fraction(1)
            top = [0] * len(lam)
            below = [int(j == i) for j in range(len(lam))]
            vector = [{"depth": top, "coords": [str(x0)]},
                      {"depth": below, "coords": [str(x1)]}]
            argv = ["km-cone", "--matrix", matrix_arg(gcm), "--weight", json.dumps(list(lam)),
                    "--depth", "1", "--vector", json.dumps(vector)]
            kind.append(cli_job(
                "km-cone", argv,
                canon=lambda out: out["in-cone"],
                oracle=lambda ok=(x1 == 0 or lam[i] == 1): ok,
            ))
    jobs += _take(kind, per_kind)
    return jobs, []


def _mults_within(n, depth, mult):
    out = {}
    for k in itertools.product(range(depth + 1), repeat=n):
        if sum(k) <= depth:
            m = mult(k)
            if m:
                out[",".join(map(str, k))] = m
    return {"total": sum(out.values()), "mults": out}


# ---------------------------------------------------------------------------
# closed forms for Kac-Moody oracles, independent of liereg.kacmoody


def _symmetrizer(a):
    """Positive d with d_i a_ij = d_j a_ji (connected matrices)."""
    n = len(a)
    d = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j != i and a[i][j] and d[j] is None:
                d[j] = d[i] * Fraction(a[i][j], a[j][i])
                stack.append(j)
    return d


def positive_roots(a):
    """Positive roots of a finite-type Cartan matrix, by root strings."""
    n = len(a)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(simple)
    layer = simple
    while layer:
        nxt = []
        for beta in layer:
            for i in range(n):
                p = 0
                while tuple(b - (p + 1) * (j == i) for j, b in enumerate(beta)) in roots:
                    p += 1
                q = p - sum(beta[j] * a[i][j] for j in range(n))
                up = tuple(b + (j == i) for j, b in enumerate(beta))
                if q > 0 and up not in roots:
                    roots.add(up)
                    nxt.append(up)
        layer = nxt
    return roots


def weyl_dimension(a, lam) -> int:
    """prod over positive roots of (Lambda + rho | alpha) / (rho | alpha)."""
    d = _symmetrizer(a)
    dim = Fraction(1)
    for alpha in positive_roots(a):
        num = sum(c * d[i] * (lam[i] + 1) for i, c in enumerate(alpha))
        den = sum(c * d[i] for i, c in enumerate(alpha))
        dim *= num / den
    assert dim.denominator == 1
    return int(dim)


def lowest_weight_depth(a, lam) -> int:
    """Height of Lambda - w0 Lambda: reflect until the weight is antidominant."""
    mu = list(lam)
    height = 0
    while True:
        i = next((i for i, x in enumerate(mu) if x > 0), None)
        if i is None:
            return height
        c = mu[i]
        height += c
        mu = [x - c * a[j][i] for j, x in enumerate(mu)]


def colored_partitions(n: int, colors: int) -> int:
    """Coefficient of q^n in prod_m (1 - q^m)^(-colors)."""
    if n < 0:
        return 0
    coeffs = [1] + [0] * n
    for _ in range(colors):
        for part in range(1, n + 1):
            for total in range(part, n + 1):
                coeffs[total] += coeffs[total - part]
    return coeffs[n]


def basic_multiplicity(a, k) -> int:
    """mult of Lambda_0 - sum k_i alpha_i in the basic module of A_r^(1).

    With delta = sum alpha_i the weight is Lambda_0 + beta - k_0 delta for
    beta = sum_{i>0} (k_0 - k_i) alpha_i, and its multiplicity is the
    number of r-colored partitions of k_0 - |beta|^2 / 2.
    """
    finite = [row[1:] for row in a[1:]]
    beta = [k[0] - x for x in k[1:]]
    norm = sum(beta[i] * finite[i][j] * beta[j] for i in range(len(beta)) for j in range(len(beta)))
    return colored_partitions(k[0] - norm // 2, len(beta))
