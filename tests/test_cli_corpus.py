"""Replay the committed CLI output corpus, tests/golden/cli.jsonl.

Each line is one invocation: `argv`, the cap variables `env` it runs under,
the `exit` code, the SHA-256 of stdout and, for exits 1 and 2, the first line
of stderr.  A line may carry `known`, a note on an output that a planned
change is expected to alter.  The corpus is a regression gate, not an
oracle: the suites and the other tests vouch for each answer.

A change that alters an output edits its lines in the same commit:
`python tests/test_cli_corpus.py` rewrites every line from the current tree,
keeping argv, env and known, and fills in a line given only its argv (and env).
"""
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

CORPUS = Path(__file__).parent / "golden" / "cli.jsonl"
CAP_VARIABLES = ("LIEREG_DIM_CAP", "LIEREG_DEPTH_CAP")


def record(argv, env) -> dict:
    """The exit code, the stdout hash and the first stderr line of one run of
    cli.main in process, under exactly the cap variables of env."""
    from liereg import cli

    saved = {name: os.environ.pop(name, None) for name in CAP_VARIABLES}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse's own errors
                code = exc.code
    finally:
        for name, value in saved.items():
            os.environ.pop(name, None)
            if value is not None:
                os.environ[name] = value
    result = {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    if code:
        result["stderr"] = err.getvalue().partition("\n")[0]
    elif err.getvalue():
        result["stderr"] = err.getvalue()  # a success writes nothing to stderr
    return result


def _lines():
    return [json.loads(line) for line in CORPUS.read_text().splitlines()]


def test_the_corpus_covers_every_free_side_subcommand():
    commands = {line["argv"][0] for line in _lines()}
    assert commands >= {"shuffle", "mul", "coproduct", "antipode", "act", "eval", "taylor",
                        "phi-map", "xi-map", "witness", "membership"}
    assert len(_lines()) >= 150


def test_the_corpus_covers_every_km_subcommand():
    commands = {line["argv"][0] for line in _lines()}
    assert commands >= {"km-build", "km-mult", "km-theta", "km-cone"}
    km = [line for line in _lines() if line["argv"][0].startswith("km-")]
    # each exit: an answer, a refused field and a cap
    assert {line["exit"] for line in km} == {0, 1, 2}
    assert sum(line["argv"][0] == "km-cone" for line in km) >= 150


@pytest.mark.parametrize("line", _lines(), ids=lambda line: " ".join(line["argv"])[:60])
def test_the_cli_replays_its_corpus(line):
    expected = {key: line[key] for key in ("exit", "stdout_sha256", "stderr") if key in line}
    assert record(line["argv"], line.get("env", {})) == expected


def rewrite() -> None:
    lines = []
    for line in _lines():
        kept = {key: line[key] for key in ("argv", "env") if key in line}
        kept.update(record(kept["argv"], kept.get("env", {})))
        if "known" in line:
            kept["known"] = line["known"]
        lines.append(json.dumps(kept))
    CORPUS.write_text("".join(line + "\n" for line in lines))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parents[1] / "src"))
    rewrite()
