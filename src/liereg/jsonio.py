"""JSON serialization for the CLI: rationals as "p/q", words as dotted names.

Every encoder/decoder pair round-trips exactly; decoders raise
:class:`SchemaError` naming the offending field.  The group words of both
halves, free (`decode_group_word`) and Kac-Moody (`decode_km_group_word`),
are read by one walk over the factor list; neither names a module, so a
Kac-Moody word needs only the rank of its GCM.
"""
from __future__ import annotations

import functools
from fractions import Fraction

from . import grp, words
from .duals import FiniteFunctional, MatrixCoefficient, RhoExpansion
from .grp import GroupWord
from .kacmoody import KMFactor
from .reps import RepSpec
from .words import Alphabet, NcPoly, TermMap


class SchemaError(ValueError):
    pass


def decode_int_list(obj, field: str, n: int = None, below: int = None) -> tuple:
    """obj, a list of JSON integers, as a tuple; else a SchemaError naming the field.

    n, if given, is the required length; below, if given, bounds every entry
    to 0..below-1.  Floats, strings and booleans are refused: int() would
    truncate 1.9, parse "2" and read true as 1.
    """
    if not (
        isinstance(obj, list)
        and n in (None, len(obj))
        and all(type(x) is int and (below is None or 0 <= x < below) for x in obj)
    ):
        count = "" if n is None else f"{n} "
        plural = "" if n == 1 else "s"
        scope = "" if below is None else f" in 0..{below - 1}"
        raise SchemaError(f"{field}: expected {count}integer{plural}{scope}")
    return tuple(obj)


def encode_fraction(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def decode_fraction(s, field: str = "coeff") -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{field}: {s!r} is not a rational 'p/q'") from exc


def decode_word(alphabet: Alphabet, text, field: str = "word"):
    """The word of a dotted text; else a SchemaError naming the field and
    the empty or unknown letter name."""
    text = str(text)
    try:
        return alphabet.word(text)
    except KeyError as exc:
        name = exc.args[0]
        why = f"unknown letter {name!r}" if name else f"empty letter name in {text!r}"
        raise SchemaError(f"{field}: {why}") from exc


def encode_ncpoly(alphabet: Alphabet, x: TermMap) -> list:
    """The terms of a polynomial or a finite functional, in canonical order."""
    return [
        {"word": alphabet.word_str(w), "coeff": encode_fraction(c)}
        for w, c in x.items()
    ]


def _decode_terms(alphabet: Alphabet, obj, field: str) -> dict:
    """A list of {word, coeff} as a map word -> summed coefficient."""
    if not isinstance(obj, list):
        raise SchemaError(f"{field}: expected a list of {{word, coeff}}")
    terms = {}
    for i, term in enumerate(obj):
        if not isinstance(term, dict) or "word" not in term:
            raise SchemaError(f"{field}[{i}]: expected {{word, coeff}}")
        w = decode_word(alphabet, term["word"], f"{field}[{i}].word")
        c = decode_fraction(term.get("coeff", "1"), f"{field}[{i}].coeff")
        terms[w] = terms.get(w, Fraction(0)) + c
    return terms


def decode_ncpoly(alphabet: Alphabet, obj, field: str = "poly") -> NcPoly:
    return NcPoly(_decode_terms(alphabet, obj, field))


def encode_vector(v) -> list:
    return [encode_fraction(x) for x in v]


def decode_vector(obj, field: str = "vector") -> tuple:
    if not isinstance(obj, list):
        raise SchemaError(f"{field}: expected a list of rationals")
    return tuple(decode_fraction(x, f"{field}[{i}]") for i, x in enumerate(obj))


def encode_matrix(m) -> list:
    return [encode_vector(row) for row in m]


def decode_matrix(obj, field: str = "matrix") -> tuple:
    if not isinstance(obj, list):
        raise SchemaError(f"{field}: expected a list of rows")
    return tuple(decode_vector(row, f"{field}[{i}]") for i, row in enumerate(obj))


def encode_rep(rep: RepSpec) -> dict:
    out = {
        "dim": rep.dim,
        "letters": [
            {
                "name": rep.alphabet.names[e],
                "kind": rep.kind(e),
                "matrix": encode_matrix(m),
            }
            for e, m in rep.matrices.items()
        ],
    }
    if rep.labels is not None:
        out["labels"] = [_encode_label(rep.alphabet, label) for label in rep.labels]
    return out


def _encode_label(alphabet: Alphabet, label) -> str:
    """A basis label as a string: a name, a dotted word, or "(a (x) b)".

    Tensor modules label their basis by pairs (a, b) of factor labels.
    decode_rep reads every label back as the string written here.
    """
    if isinstance(label, str):
        return label
    if all(type(x) is int for x in label):
        return alphabet.word_str(label)
    left, right = label
    return f"({_encode_label(alphabet, left)} (x) {_encode_label(alphabet, right)})"


def decode_rep(obj, field: str = "rep") -> RepSpec:
    """The module of a JSON {dim, letters, labels?}; a refusal names its
    fields under field."""
    if not isinstance(obj, dict) or "dim" not in obj or "letters" not in obj:
        raise SchemaError(f"{field}: expected {{dim, letters, labels?}}")
    (dim,) = decode_int_list([obj["dim"]], f"{field}.dim", 1)
    letters = obj["letters"]
    if not isinstance(letters, list) or not letters:
        raise SchemaError(f"{field}.letters: expected a nonempty list")
    names, kinds, matrices = [], [], {}
    for i, entry in enumerate(letters):
        if not isinstance(entry, dict) or "name" not in entry:
            raise SchemaError(f"{field}.letters[{i}]: expected {{name, kind, matrix}}")
        name = entry["name"]
        if not isinstance(name, str):
            raise SchemaError(f"{field}.letters[{i}].name: expected a string")
        if name in names:
            raise SchemaError(f"{field}.letters[{i}].name: duplicate letter name {name!r}")
        names.append(name)
        kind = entry.get("kind", words.NILPOTENT)
        if not isinstance(kind, str) or kind not in words.KINDS:
            raise SchemaError(f"{field}.letters[{i}].kind: unknown kind {kind!r}")
        kinds.append(kind)
        matrices[i] = decode_matrix(
            entry.get("matrix", [[0] * dim for _ in range(dim)]),
            f"{field}.letters[{i}].matrix",
        )
    alphabet = Alphabet(names, kinds)
    labels = obj.get("labels")
    if labels is not None and not (
        isinstance(labels, list)
        and len(labels) == dim
        and all(isinstance(label, str) for label in labels)
    ):
        raise SchemaError(f"{field}.labels: expected one string per basis vector, {dim} in all")
    try:
        return RepSpec(alphabet, dim, matrices, labels)
    except ValueError as exc:
        raise SchemaError(f"{field}: {exc}") from exc


def encode_functional(h, alphabet: Alphabet = None) -> dict:
    if isinstance(h, FiniteFunctional):
        if alphabet is None:
            raise ValueError("finite functionals need an alphabet to serialize")
        return {"kind": "finite", "terms": encode_ncpoly(alphabet, h)}
    return {
        "kind": "matrix-coefficient",
        "rep": encode_rep(h.rep),
        "phi": encode_vector(h.phi),
        "v": encode_vector(h.v),
    }


def decode_functional(obj, alphabet: Alphabet = None):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("functional: expected {kind, ...}")
    kind = obj["kind"]
    if kind == "finite":
        if alphabet is None:
            raise SchemaError("functional: finite terms need an alphabet in context")
        return FiniteFunctional(
            _decode_terms(alphabet, obj.get("terms", []), "functional.terms")
        )
    if kind == "matrix-coefficient":
        rep = decode_rep(obj.get("rep"), "functional.rep")
        phi = decode_vector(obj.get("phi"), "functional.phi")
        v = decode_vector(obj.get("v"), "functional.v")
        rep.check_length(phi, "functional.phi")
        rep.check_length(v, "functional.v")
        return MatrixCoefficient(rep, phi, v)
    raise SchemaError(f"functional.kind: unknown kind {kind!r}")


def _decode_factors(obj, key: str, shape: str, decode_entry) -> list:
    """The factors of a JSON group word, a list of dicts that each carry key.

    decode_entry(i, entry) reads the i-th entry as (torus, param, make), the
    factor being make(param); a key it finds missing is refused as
    group[i].<key>: missing, and a torus factor of parameter 0 is refused
    after every other check of its entry.
    """
    if not isinstance(obj, list):
        raise SchemaError("group: expected a list of factors")
    factors = []
    for i, entry in enumerate(obj):
        if not isinstance(entry, dict) or key not in entry:
            raise SchemaError(f"group[{i}]: expected {shape}")
        try:
            torus, param, make = decode_entry(i, entry)
        except KeyError as exc:
            raise SchemaError(f"group[{i}].{exc.args[0]}: missing") from exc
        if torus and not param:
            raise SchemaError(f"group[{i}].param: a torus factor needs a nonzero parameter")
        factors.append(make(param))
    return factors


def decode_group_word(alphabet: Alphabet, obj) -> GroupWord:
    """The group word of a list of {letter, kind, param}; each factor's kind
    must be the one its letter's kind in the alphabet allows: 'exp' for a
    locally nilpotent letter, 'torus' for a diagonalizable one."""

    def factor(i, entry):
        try:
            letter = alphabet.index(str(entry["letter"]))
        except KeyError as exc:
            raise SchemaError(f"group[{i}].letter: unknown letter {exc.args[0]!r}") from exc
        kind = entry.get("kind", "exp")
        if kind not in ("exp", "torus"):
            raise SchemaError(f"group[{i}].kind: expected 'exp' or 'torus'")
        expected = "exp" if alphabet.is_nilpotent(letter) else "torus"
        if kind != expected:
            raise SchemaError(
                f"group[{i}].kind: letter {alphabet.names[letter]} is {alphabet.kind(letter)}, "
                f"so its factor kind is {expected!r}, not {kind!r}"
            )
        param = decode_fraction(entry.get("param", "1"), f"group[{i}].param")
        make = grp.exp_factor if kind == "exp" else grp.torus_factor
        return kind == "torus", param, functools.partial(make, letter)

    return GroupWord(_decode_factors(obj, "letter", "{letter, kind, param}", factor))


def decode_km_group_word(n: int, obj) -> tuple:
    """The Kac-Moody group word of a list of {kind, param, ...} over a GCM of
    rank n: kind 'e' or 'f' with an index, 'root' with a nonempty list of
    indices, 'torus' with a coweight of n integers.  The word names no
    module: it acts on every L(Lambda) of the GCM."""

    def factor(i, entry):
        kind = entry["kind"]
        if kind not in ("e", "f", "root", "torus"):
            raise SchemaError(f"group[{i}].kind: unknown kind {kind!r}")
        param = decode_fraction(entry["param"], f"group[{i}].param")
        if kind in ("e", "f"):
            (data,) = decode_int_list([entry["index"]], f"group[{i}].index", 1, n)
        elif kind == "root":
            data = decode_int_list(entry["indices"], f"group[{i}].indices", below=n)
            if not data:
                raise SchemaError(f"group[{i}].indices: expected at least one index")
        else:
            data = decode_int_list(entry["coweight"], f"group[{i}].coweight", n)
        return kind == "torus", param, functools.partial(KMFactor, kind, data)

    return tuple(_decode_factors(obj, "kind", "{kind, ...}", factor))


def encode_taylor(poly: RhoExpansion) -> dict:
    return {
        "nvars": len(poly.letters),
        "terms": [{"k": list(ks), "c": encode_fraction(c)} for ks, c in poly.items()],
    }


def decode_gcm_matrix(obj):
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise SchemaError("gcm: expected {matrix}")
    rows = obj["matrix"]
    if not isinstance(rows, list):
        raise SchemaError("gcm.matrix: expected a list of rows")
    return [list(decode_int_list(row, f"gcm.matrix[{i}]")) for i, row in enumerate(rows)]
