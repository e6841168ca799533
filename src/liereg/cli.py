"""Command-line front end: JSON in, JSON out, deterministic (``check`` also
prints each suite's wall time).

Each JSON subcommand's handler returns its object, and the wrapper that
build_parser registers prints it; ``check`` prints its own lines.  The
alphabet is --letters when given, else the letter names of the bare words
among the command's arguments (a JSON argument names no letters), else e1.
A refusal names the argument or JSON field that carried the bad input
(``x[0].word``, ``gcm.matrix``, ...), a library's own refusal included.
The CLI reads argv, files and environment variables only: group words of
both halves, modules and functionals are decoded by jsonio.

Exit codes: 0 success, 1 validation failure, 2 size/depth cap exceeded.
Caps can be overridden with the environment variables LIEREG_DIM_CAP and
LIEREG_DEPTH_CAP.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import checks, duals, grp, jsonio, kacmoody, linalg, reps, words
from .duals import MatrixCoefficient
from .jsonio import SchemaError, decode_int_list, encode_fraction
from .kacmoody import IrrTrunc, TruncVector, validate_gcm
from .words import Alphabet, NcPoly

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CAP = 2


def _env_cap(name: str, default: int) -> int:
    """The cap that the environment variable `name` sets, else `default`; a
    SchemaError naming the variable unless it is a nonnegative integer."""
    text = os.environ.get(name, str(default))
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise SchemaError(f"{name}: expected a nonnegative integer, got {text!r}")
    return cap


def _dim_cap() -> int:
    return _env_cap("LIEREG_DIM_CAP", linalg.DEFAULT_DIM_CAP)


def _depth_cap() -> int:
    return _env_cap("LIEREG_DEPTH_CAP", kacmoody.DEFAULT_DEPTH_CAP)


def _load_json(text: str, field: str):
    if text == "-":
        text = sys.stdin.read()
    elif text.startswith("@"):
        path = text[1:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            why = exc.strerror if isinstance(exc, OSError) else f"not UTF-8: {exc.reason}"
            raise SchemaError(f"{field}: cannot read {path!r} ({why})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{field}: invalid JSON ({exc.msg})") from exc


def _is_json_arg(text: str) -> bool:
    stripped = text.lstrip()
    return stripped.startswith("[") or stripped.startswith("@") or stripped == "-"


def _alphabet_from_args(args, *texts) -> Alphabet:
    """The alphabet of --letters; else the sorted letter names of those texts
    that are bare words, since a JSON text names no letters; else e1.  A
    malformed word is left for jsonio.decode_word to refuse by its field."""
    if getattr(args, "letters", None):
        try:
            return Alphabet([n for n in args.letters.split(",") if n])
        except ValueError as exc:
            raise SchemaError(f"letters: {exc}") from exc
    names = {
        part
        for text in texts if text != "1" and not _is_json_arg(text)
        for part in text.split(".") if part
    }
    return Alphabet(sorted(names) or ["e1"])


def _decode_poly_arg(alphabet: Alphabet, text: str, field: str) -> NcPoly:
    """The polynomial of the argument `field`: a bare word or an NcPoly JSON array."""
    if _is_json_arg(text):
        return jsonio.decode_ncpoly(alphabet, _load_json(text, field), field)
    return NcPoly.word(jsonio.decode_word(alphabet, text, field))


def _named(field: str, fn, *args):
    """fn(*args), with a library ValueError raised as a SchemaError naming field."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise SchemaError(f"{field}: {exc}") from exc


def _functional_from_args(args, *texts) -> tuple:
    """Returns (alphabet, functional).

    A matrix coefficient brings its module's alphabet, and a finite JSON
    functional needs the one --letters gives.  For a phi:w functional, the
    alphabet is _alphabet_from_args's of w and of texts, the command's other
    words.
    """
    text = args.functional
    if text.startswith("phi:"):
        alphabet = _alphabet_from_args(args, text[4:], *texts)
        w = jsonio.decode_word(alphabet, text[4:], "functional")
        return alphabet, duals.phi(w)
    obj = _load_json(text, "functional")
    alphabet = None
    if getattr(args, "letters", None):
        alphabet = _alphabet_from_args(args)
    h = jsonio.decode_functional(obj, alphabet)
    if isinstance(h, MatrixCoefficient):
        _require_integrable(h.rep, "functional.rep")
        alphabet = h.rep.alphabet
    return alphabet, h


def _require_integrable(rep, field: str) -> None:
    violations = reps.validate_integrable(rep)
    if violations:
        raise SchemaError(f"{field}: " + "; ".join(violations))


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_shuffle(args):
    alphabet = _alphabet_from_args(args, args.w1, args.w2)
    w1 = jsonio.decode_word(alphabet, args.w1, "w1")
    w2 = jsonio.decode_word(alphabet, args.w2, "w2")
    h = duals.shuffle_product(duals.phi(w1), duals.phi(w2))
    return {"terms": jsonio.encode_ncpoly(alphabet, h)}


def cmd_mul(args):
    alphabet = _alphabet_from_args(args, args.x, args.y)
    x = _decode_poly_arg(alphabet, args.x, "x")
    y = _decode_poly_arg(alphabet, args.y, "y")
    return {"terms": jsonio.encode_ncpoly(alphabet, x * y)}


def cmd_coproduct(args):
    alphabet = _alphabet_from_args(args, args.x)
    x = _decode_poly_arg(alphabet, args.x, "x")
    delta = _named("x", words.coproduct, x)
    return {"terms": [
        {
            "left": alphabet.word_str(w1),
            "right": alphabet.word_str(w2),
            "coeff": encode_fraction(c),
        }
        for (w1, w2), c in sorted(delta.terms.items())
    ]}


def cmd_antipode(args):
    alphabet = _alphabet_from_args(args, args.x)
    x = _decode_poly_arg(alphabet, args.x, "x")
    return {"terms": jsonio.encode_ncpoly(alphabet, words.antipode(x))}


def cmd_act(args):
    rep = jsonio.decode_rep(_load_json(args.rep, "rep"))
    _require_integrable(rep, "rep")
    v = jsonio.decode_vector(_load_json(args.vector, "vector"), "vector")
    if args.group is not None:
        g = jsonio.decode_group_word(rep.alphabet, _load_json(args.group, "group"))
        out = grp.act_group(rep, g, v)
    else:
        x = _decode_poly_arg(rep.alphabet, args.x, "x")
        out = reps.act_poly(rep, x, v)
    return {"vector": jsonio.encode_vector(out)}


def cmd_eval(args):
    alphabet, h = _functional_from_args(args, args.x)
    x = _decode_poly_arg(alphabet, args.x, "x")
    return {"value": encode_fraction(duals.evaluate(h, x))}


def _pretty_taylor(poly: duals.RhoExpansion) -> str:
    parts = []
    for ks, c in poly.items():
        factors = []
        if c != 1 or not any(ks):
            factors.append(encode_fraction(c))
        for i, k in enumerate(ks):
            if k == 1:
                factors.append(f"t{i + 1}")
            elif k > 1:
                factors.append(f"t{i + 1}^{k}")
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


def cmd_taylor(args):
    tuple_names = [n for n in args.tuple.split(",") if n]
    alphabet, h = _functional_from_args(args, ".".join(tuple_names))
    try:
        letters = [alphabet.index(n) for n in tuple_names]
    except KeyError as exc:
        raise SchemaError(f"tuple: unknown letter {exc.args[0]!r}") from exc
    poly = _named("tuple", grp.taylor_expand, h, letters, alphabet)
    out = jsonio.encode_taylor(poly)
    out["pretty"] = _pretty_taylor(poly)
    return out


def cmd_phi_map(args):
    rep = jsonio.decode_rep(_load_json(args.rep, "rep"))
    _require_integrable(rep, "rep")
    phi = jsonio.decode_vector(_load_json(args.phi, "phi"), "phi")
    v = jsonio.decode_vector(_load_json(args.vector, "vector"), "vector")
    f = grp.RegularFunction(rep, phi, v)
    h = grp.phi_map(f)
    return jsonio.encode_functional(h)


def cmd_xi_map(args):
    alphabet, h = _functional_from_args(args)
    f = grp.xi_map(h, alphabet)
    out = jsonio.encode_functional(grp.phi_map(f))
    out["kind"] = "regular-function"
    return out


def cmd_witness(args):
    if args.group is not None:
        alphabet = _alphabet_from_args(args)
        g = jsonio.decode_group_word(alphabet, _load_json(args.group, "group"))
        rep, v0, moved = _named("group", grp.group_faithfulness_witness, g, alphabet)
    else:
        alphabet = _alphabet_from_args(args, args.x)
        x = _decode_poly_arg(alphabet, args.x, "x")
        rep, v0, moved = _named("x", grp.faithfulness_witness, x, alphabet, _dim_cap())
    return {
        "rep": jsonio.encode_rep(rep),
        "start": jsonio.encode_vector(v0),
        "moved": jsonio.encode_vector(moved),
    }


def cmd_membership(args):
    if args.bound is not None and args.bound < 0:
        raise SchemaError("bound: must be nonnegative")
    alphabet, h = _functional_from_args(args)
    finite, dim = duals.membership_ffr(h, alphabet)
    out = {"translation-closure-finite": finite, "closure-dimension": dim}
    if args.bound is not None:
        out["in-shuffle-span"] = duals.in_shuffle_span(h, args.bound)
        out["bound"] = args.bound
    return out


def _nonnegative_ints(obj, field: str, n: int) -> tuple:
    """n nonnegative JSON integers, as a dominant weight or a depth vector is."""
    k = decode_int_list(obj, field, n)
    if any(x < 0 for x in k):
        raise SchemaError(f"{field}: expected {n} nonnegative integers")
    return k


def _km_weight(args) -> tuple:
    """The validated GCM of --matrix and the dominant weight of --weight."""
    rows = jsonio.decode_gcm_matrix(_load_json(args.matrix, "gcm"))
    gcm = _named("gcm.matrix", validate_gcm, rows)
    return gcm, _nonnegative_ints(_load_json(args.weight, "weight"), "weight", gcm.n)


def _km_module(args) -> IrrTrunc:
    gcm, lam = _km_weight(args)
    if args.depth < 0:
        raise SchemaError("depth: expected a nonnegative integer")
    return IrrTrunc(
        gcm, lam, depth=args.depth, depth_cap=_depth_cap(), dim_cap=_dim_cap()
    )


def cmd_km_build(args):
    mod = _km_module(args)
    dims = mod.dimensions()
    return {
        "symmetrizer": [encode_fraction(d) for d in mod.gcm.d],
        "weights": [
            {
                "depth": list(k),
                "lambda": list(mod.lam_of(k)),
                "multiplicity": dims[k],
            }
            for k in sorted(dims)
        ],
        "total-dimension": sum(dims.values()),
    }


def cmd_km_mult(args):
    gcm, lam = _km_weight(args)
    k = _nonnegative_ints(_load_json(args.k, "k"), "k", gcm.n)
    # depth 0: km-mult lists no box, and weight_multiplicity checks the cap
    # after the reflection walk, so a zero weight past the cap is answered
    mod = IrrTrunc(gcm, lam, depth=0, depth_cap=_depth_cap(), dim_cap=_dim_cap())
    mult = mod.weight_multiplicity(k)
    # "gram-rank" is the old name of "multiplicity", kept for one release
    out = {"depth": list(k), "multiplicity": mult, "gram-rank": mult}
    if args.oracle:
        out["freudenthal"] = kacmoody.freudenthal_multiplicity(gcm, lam, k)
    return out


def cmd_km_theta(args):
    mod = _km_module(args)
    g = jsonio.decode_km_group_word(mod.gcm.n, _load_json(args.group, "group"))
    return {"theta": encode_fraction(kacmoody.theta_eval(mod, g))}


def cmd_km_cone(args):
    mod = _km_module(args)
    obj = _load_json(args.vector, "vector")
    if not isinstance(obj, list):
        raise SchemaError("vector: expected a list of {depth, coords}")
    parts = {}
    for i, entry in enumerate(obj):
        if not isinstance(entry, dict):
            raise SchemaError(f"vector[{i}]: expected {{depth, coords}}")
        k = _nonnegative_ints(entry.get("depth"), f"vector[{i}].depth", mod.gcm.n)
        coords = jsonio.decode_vector(entry.get("coords"), f"vector[{i}].coords")
        dim = mod.space(k).dim
        if len(coords) != dim:
            raise SchemaError(f"vector[{i}].coords: expected {dim} coordinates")
        if k in parts:
            raise SchemaError(f"vector[{i}].depth: depth {list(k)} is given twice")
        parts[k] = coords
    v = TruncVector(parts)
    return {"in-cone": kacmoody.kostant_cone_test(mod, v)}


def cmd_check(args):
    names = None if args.suite == "all" else [args.suite]
    if names and names[0] not in checks.SUITE_NAMES:
        raise SchemaError(
            f"suite: unknown suite {args.suite!r}; "
            f"choose from all, {', '.join(checks.SUITE_NAMES)}"
        )
    results = checks.run_all(args.seed, names)
    failed = 0
    for name, ok, detail, seconds in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name} ({seconds:.2f} s): {detail}")
        if not ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} suites passed (seed {args.seed})")
    return EXIT_OK if failed == 0 else EXIT_INVALID


# ---------------------------------------------------------------------------


@functools.cache  # built once per process: main parses with it on every call
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser; its `commands` maps each subcommand's name to
    the subcommand's own parser, to which `main` hands the arguments."""
    parser = argparse.ArgumentParser(
        prog="liereg",
        description="Exact computer algebra for free Lie algebras and Kac-Moody modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def add(name, fn, *parents, **kwargs):
        """The subcommand `name`, whose handler returns the JSON object that
        the wrapper prints; its options start with those of parents."""
        def run(args):
            sys.stdout.write(json.dumps(fn(args), indent=2) + "\n")
            return EXIT_OK
        p = sub.add_parser(name, parents=parents, **kwargs)
        p.set_defaults(fn=run)
        return p

    # the options that the km-* commands share, declared once
    km_weight = argparse.ArgumentParser(add_help=False)
    km_weight.add_argument("--matrix", required=True)
    km_weight.add_argument("--weight", required=True)
    km_depth = argparse.ArgumentParser(add_help=False)
    km_depth.add_argument("--depth", type=int, required=True)

    p = add("shuffle", cmd_shuffle, help="shuffle product of two delta functionals")
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    p.add_argument("--letters")

    p = add("mul", cmd_mul, help="concatenation product of two polynomials")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--letters")

    p = add("coproduct", cmd_coproduct, help="deconcatenation-type coproduct")
    p.add_argument("--x", required=True)
    p.add_argument("--letters")

    p = add("antipode", cmd_antipode, help="antipode of a polynomial")
    p.add_argument("--x", required=True)
    p.add_argument("--letters")

    p = add("act", cmd_act, help="apply a polynomial or group word to a vector")
    p.add_argument("--rep", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument("--x")
    p.add_argument("--group")

    p = add("eval", cmd_eval, help="evaluate a functional on a polynomial")
    p.add_argument("--functional", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--letters")

    p = add("taylor", cmd_taylor, help="polynomial expansion along exp factors")
    p.add_argument("--functional", required=True)
    p.add_argument("--tuple", required=True)
    p.add_argument("--letters")

    p = add("phi-map", cmd_phi_map, help="regular function to linear functional")
    p.add_argument("--rep", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--vector", required=True)

    p = add("xi-map", cmd_xi_map, help="linear functional to regular function")
    p.add_argument("--functional", required=True)
    p.add_argument("--letters")

    p = add("witness", cmd_witness, help="faithfulness witness module")
    p.add_argument("--x")
    p.add_argument("--group")
    p.add_argument("--letters")

    p = add("membership", cmd_membership, help="translation closure and span tests")
    p.add_argument("--functional", required=True)
    p.add_argument("--bound", type=int)
    p.add_argument("--letters")

    add("km-build", cmd_km_build, km_weight, km_depth,
        help="build a truncated highest-weight module")

    p = add("km-mult", cmd_km_mult, km_weight,
            help="weight multiplicity, optionally cross-checked")
    p.add_argument("--k", required=True)
    p.add_argument("--oracle", action="store_true")

    p = add("km-theta", cmd_km_theta, km_weight, km_depth,
            help="highest matrix coefficient of a group word")
    p.add_argument("--group", required=True)

    p = add("km-cone", cmd_km_cone, km_weight, km_depth,
            help="tensor-square cone membership test")
    p.add_argument("--vector", required=True)

    # check prints its own text and picks its exit code
    p = sub.add_parser("check", help="run acceptance suites")
    p.set_defaults(fn=cmd_check)
    p.add_argument("--suite", default="all")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    """Run one command.  When argv starts with a subcommand's name, the rest
    goes straight to that subcommand's parser, as the top-level parser
    would hand it on, and the top-level parser reports what is left over;
    anything else (no command, -h, an unknown command) the top-level parser
    parses, so every message is the one argparse gives."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
    if args.command in ("act", "witness") and args.x is None and args.group is None:
        parser.error(f"{args.command} needs --x or --group")
    try:
        return args.fn(args)
    except linalg.CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (SchemaError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit("error: run the liereg command as python -m liereg")
