"""Every public top-level function and every public method of a top-level
class of liereg has a caller inside the package, or is listed below with the
reason it stays without one; and every module-level import of liereg is
used."""
import ast
from pathlib import Path

import liereg

SRC = Path(liereg.__file__).parent

# public functions and methods that nothing in the package calls, kept on purpose
UNCALLED = (
    ("grp.derive_left", "the right invariant derivation e <| f, a paper concept"),
    ("grp.derive_right", "the left invariant derivation e |> f, a paper concept"),
    ("grp.f_w", "the coordinate functions f_w of the group, a paper concept"),
    ("kacmoody.peter_weyl_rank", "the Peter-Weyl rank of matrix coefficients"),
    ("linalg.mat_vec", "named by the benchmark's per-layer metrics"),
    ("reps.act_word", "named by the benchmark's per-layer metrics"),
    ("linalg.solve", "named by the benchmark's per-layer metrics"),
    ("kacmoody.IrrTrunc.e_matrix",
     "named by the benchmark's per-layer metrics; the actions read the stored e_i"),
    ("kacmoody.IrrTrunc.f_matrix",
     "named by the benchmark's per-layer metrics; the actions read the stored f_i"),
)


def _uses(node, module, owner, used):
    """Record each name and each attribute read in node, keyed by
    ("name", id) or ("attr", attr)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.setdefault(("name", sub.id), set()).add((module, owner))
        elif isinstance(sub, ast.Attribute):
            used.setdefault(("attr", sub.attr), set()).add((module, owner))


def _uncalled():
    # defined: qualified name -> (name, module, owner, is a method)
    defined, used = {}, {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    owner = f"{node.name}.{getattr(item, 'name', '')}"
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined[f"{module}.{owner}"] = (item.name, module, owner, True)
                    _uses(item, module, owner, used)
                continue
            owner = getattr(node, "name", None)
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined[f"{module}.{owner}"] = (node.name, module, owner, False)
            _uses(node, module, owner, used)
    # a use inside the function's own body (recursion) is not a caller; a
    # method counts as called wherever an attribute of its name is read, and
    # only there: a local variable of the same name does not call it
    def callers(name, method):
        found = set(used.get(("attr", name), ()))
        if not method:
            found |= used.get(("name", name), set())
        return found

    return {
        qualified
        for qualified, (name, module, owner, method) in defined.items()
        if not callers(name, method) - {(module, owner)}
    }


def test_every_public_function_has_a_caller_or_a_reason():
    kept = dict(UNCALLED)
    assert len(kept) == len(UNCALLED)
    uncalled = _uncalled()
    assert uncalled - set(kept) == set(), "public functions with no caller in liereg"
    assert set(kept) - uncalled == set(), "listed as uncalled, but now called or gone"
    assert all(reason for reason in kept.values())


def _unused_imports(path):
    """The names that module-level imports of the file bind and that its
    code never reads; a name listed in __all__ counts as read."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return {f"{path.stem}:{line} {name}" for name, line in bound.items() if name not in read}


def test_every_module_level_import_is_used():
    unused = set().union(*(_unused_imports(path) for path in sorted(SRC.glob("*.py"))))
    assert unused == set()
