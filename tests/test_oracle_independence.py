"""Each oracle shares no code path with what it checks.

Each (oracle, subject) pair runs on one small input under sys.setprofile,
which records every liereg function that each side calls; a nested function
or comprehension counts as the function it sits in.  Each side builds its
own inputs from plain data, and what the input constructors below call is
left out, since both sides must read the same input.  The two sets must be
disjoint, apart from the functions that KNOWN_SHARED lists for a pair with
the reason they are still shared: the list measures that debt, so a pair
that stops sharing one of them must leave the list.
"""
import os
import sys
from fractions import Fraction

import pytest

import liereg
from liereg import checks, kacmoody

PACKAGE = os.path.dirname(liereg.__file__)

# both sides of a pair build their input through these, and so does the CLI
INPUT_CONSTRUCTORS = ("kacmoody.validate_gcm",)

# (pair, functions both sides still call, reason)
KNOWN_SHARED = (
    ("GramSpace.dim / IrrTrunc.dimensions",
     ("linalg.Echelon.__init__", "linalg.Echelon.add", "linalg.Echelon._reduce",
      "linalg.Echelon.reduce", "linalg._make_primitive", "linalg.by_leading_column",
      "linalg._minus_leading_column"),
     "the Gram oracle ranks its matrix with linalg.rref, the build's own Echelon; "
     "the Weyl-Kac character oracle (ROADMAP item 3) is to replace it"),
)

HYPERBOLIC = [[2, -3], [-3, 2]]
A2 = [[2, -1], [-1, 2]]
SL2 = [[2]]
B, A = Fraction(2, 3), Fraction(-1, 2)
# u_0 + 2 u_1 + 2 u_2 = exp(2 F) u_0 on V_2 lies in the cone
ORBIT = (Fraction(1), Fraction(2), Fraction(2))


def _gram_subject():
    mod = kacmoody.IrrTrunc(kacmoody.validate_gcm(A2), (1, 1), depth=2)
    return mod.dimensions().get((1, 1), 0)


def _cone_subject():
    mod = kacmoody.IrrTrunc(kacmoody.validate_gcm(SL2), (2,), depth=2, depth_cap=10)
    v = kacmoody.TruncVector({(j,): (c,) for j, c in enumerate(ORBIT)})
    return kacmoody.kostant_cone_test(mod, v)


def _theta_subject():
    mod = kacmoody.IrrTrunc(kacmoody.validate_gcm(SL2), (3,), depth=3)
    g = (kacmoody.KMFactor("e", 0, B), kacmoody.KMFactor("f", 0, A))
    return kacmoody.theta_eval(mod, g)


PAIRS = {
    "freudenthal_multiplicity / IrrTrunc.weight_multiplicity": (
        lambda: kacmoody.freudenthal_multiplicity(
            kacmoody.validate_gcm(HYPERBOLIC), (1, 1), (3, 2)),
        lambda: kacmoody.IrrTrunc(
            kacmoody.validate_gcm(HYPERBOLIC), (1, 1), depth=5).weight_multiplicity((3, 2)),
    ),
    "sl2_explicit_theta / theta_eval": (lambda: checks.sl2_explicit_theta(3, B, A), _theta_subject),
    "_in_sl2_square_top / kostant_cone_test": (
        lambda: checks._in_sl2_square_top(ORBIT), _cone_subject),
    "GramSpace.dim / IrrTrunc.dimensions": (
        lambda: checks.GramSpace(kacmoody.validate_gcm(A2), (1, 1), (1, 1)).dim, _gram_subject),
}


def _name(code) -> str:
    """module.qualname of a liereg code object, up to its first <locals>."""
    module = os.path.splitext(os.path.basename(code.co_filename))[0]
    return f"{module}.{code.co_qualname.partition('.<locals>')[0]}"


def _calls(side):
    """(side's value, the liereg functions it calls outside the input constructors)."""
    seen = set()

    def record(frame, event, arg):
        if event != "call" or os.path.dirname(frame.f_code.co_filename) != PACKAGE:
            return
        outer = frame
        while outer is not None:
            code = outer.f_code
            if os.path.dirname(code.co_filename) == PACKAGE and _name(code) in INPUT_CONSTRUCTORS:
                return
            outer = outer.f_back
        seen.add(_name(frame.f_code))

    sys.setprofile(record)
    try:
        value = side()
    finally:
        sys.setprofile(None)
    return value, seen


def test_the_known_shared_pairs_are_pairs():
    assert {pair for pair, _, _ in KNOWN_SHARED} <= set(PAIRS)
    assert all(reason for _, _, reason in KNOWN_SHARED)


@pytest.mark.parametrize("pair", PAIRS)
def test_an_oracle_shares_no_function_with_its_subject(pair):
    oracle, subject = PAIRS[pair]
    expected, oracle_calls = _calls(oracle)
    value, subject_calls = _calls(subject)
    assert value == expected
    assert oracle_calls and subject_calls
    known = {name for shared_pair, names, _ in KNOWN_SHARED if shared_pair == pair for name in names}
    assert oracle_calls & subject_calls == known
