"""The benchmark's per-layer metrics name liereg functions and methods; each
named one must still exist, public and callable, or the benchmark loses a
layer without failing."""
import importlib
import json
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
METRICS = {"calls", "s", "self_s", "nnz_frac", "accept_ratio"}


def _named_callables():
    """(metric name, dotted path) for every per-layer metric of one function
    or method; layer totals (<module>.self_s) and trace_overhead name none."""
    for entry in json.loads(SPEC.read_text())["per_layer"]:
        path, _, metric = entry["name"].rpartition(".")
        if "." in path:
            assert metric in METRICS, entry["name"]
            yield entry["name"], path


def test_every_per_layer_metric_names_a_public_liereg_callable():
    named = list(_named_callables())
    assert named
    for name, path in named:
        module, *attrs = path.split(".")
        obj = importlib.import_module(f"liereg.{module}")
        for attr in attrs:
            assert not attr.startswith("_"), name
            assert hasattr(obj, attr), f"{name}: liereg has no {path}"
            obj = getattr(obj, attr)
        assert callable(obj), name
