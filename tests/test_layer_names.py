"""The per-layer metric names of BENCHMARK.json still name library functions.

A traced benchmark run (`perfbench/run.py --trace 1`) reports each
"layer.func.metric" name from the function `func` of `stretchlab.layer`, and
a "*.hit_ratio" from that function's `cache_info()`.  A refactor that renames
or uncaches one of them breaks the traced run; this test breaks first.
"""

import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _function_names():
    names = [entry["name"] for entry in json.loads(BENCHMARK.read_text())["per_layer"]]
    return [name.split(".") for name in names if name.count(".") == 2]


def test_per_layer_names_resolve():
    parts = _function_names()
    assert parts, "BENCHMARK.json names no per-layer function"
    for layer, func, metric in parts:
        module = importlib.import_module(f"stretchlab.{layer}")
        assert hasattr(module, func), f"stretchlab.{layer} has no {func} for {layer}.{func}.{metric}"
        if metric == "hit_ratio":
            assert hasattr(getattr(module, func), "cache_info"), f"{layer}.{func} is not cached"
