"""Acceptance gate: every suite must pass, one line per criterion.

Each test runs one deterministic suite from liereg.checks and prints a
single pass/fail line; the assertion carries the suite's detail message.
"""
import time

import pytest

from liereg import checks

SEED = 7

TIME_BUDGETS = {
    "shuffle-laws": 10.0,
    "duality-inverse": 30.0,
    "counterexample": 5.0,
    "km-sl2": 10.0,
    "km-affine": 60.0,
}


def _run(name):
    start = time.monotonic()
    ((_, ok, detail, _),) = checks.run_all(SEED, [name])
    elapsed = time.monotonic() - start
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.2f}s)")
    assert ok, f"{name}: {detail}"
    budget = TIME_BUDGETS.get(name)
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def test_01_shuffle_laws():
    _run("shuffle-laws")


def test_02_hopf_axioms():
    _run("hopf-axioms")


def test_03_duality_inverse():
    _run("duality-inverse")


def test_04_product_correspondence():
    _run("product-correspondence")


def test_05_translation_commutation():
    _run("translation-commutation")


def test_06_counterexample():
    _run("counterexample")


def test_07_faithfulness():
    _run("faithfulness")


def test_08_km_sl2():
    _run("km-sl2")


def test_09_km_a2():
    _run("km-a2")


def test_10_km_affine():
    _run("km-affine")


def test_11_kostant_cone():
    _run("kostant-cone")


def test_12_z_monoid():
    _run("z-monoid")
