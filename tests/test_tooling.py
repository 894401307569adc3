"""The bench finds convrec's functions by name; a rename must fail here, not print `absent`.

Importing the package stays light: what it loads is pinned here too.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from test_bench_contract import KNOWN_ABSENT

ROOT = Path(__file__).resolve().parent.parent


def test_per_layer_metrics_name_existing_functions():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))["per_layer"]
    named = [m["name"].split(".") for m in metrics if m["name"].count(".") >= 2]
    assert named, "no <module>.<function>.<suffix> metric in BENCHMARK.json"
    for module, function, *_ in named:
        fn = getattr(importlib.import_module(f"convrec.{module}"), function, None)
        if f"{module}.{function}" in KNOWN_ABSENT:
            assert fn is None, f"convrec.{module}.{function} exists again"
        else:
            assert callable(fn), f"BENCHMARK.json names convrec.{module}.{function}, which is gone"


def test_sampled_calls_exist_in_recommender():
    tree = ast.parse((ROOT / "bench" / "train_worker.py").read_text("utf-8"))
    values = [ast.literal_eval(node.value) for node in ast.walk(tree)
              if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "SAMPLED_CALLS" for t in node.targets)]
    assert len(values) == 1 and values[0], "bench/train_worker.py defines no SAMPLED_CALLS"
    recommender = importlib.import_module("convrec.recommender")
    for name in values[0]:
        assert callable(getattr(recommender, name, None)), (
            f"SAMPLED_CALLS names convrec.recommender.{name}, which is gone")


def test_every_exported_name_resolves():
    # a stale __all__ entry fails only under `from convrec import *`
    convrec = importlib.import_module("convrec")
    missing = [name for name in convrec.__all__ if not hasattr(convrec, name)]
    assert not missing, f"convrec.__all__ names {missing}, which the package lacks"
    assert len(set(convrec.__all__)) == len(convrec.__all__)


def modules_after(statement):
    """The modules a fresh interpreter holds after ``statement`` that it did not before."""
    probe = ("import json, sys; before = set(sys.modules); " + statement
             + "; print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_importing_the_package_loads_only_the_allocator():
    loaded = modules_after("import convrec")
    assert [m for m in loaded if m.split(".")[0] == "convrec"] == ["convrec", "convrec.allocator"]
    heavy = [m for m in loaded if m.split(".")[0] in ("numpy", "scipy", "click")]
    assert not heavy, f"import convrec loads {len(heavy)} numpy/scipy/click modules"


def test_importing_the_cli_does_not_load_the_generators():
    loaded = modules_after("import convrec.cli")
    assert "convrec.cli" in loaded and "convrec.synthetic" not in loaded


def test_importing_the_cli_loads_no_scipy():
    # scipy is imported where a graph operator is built, which a served turn never does
    loaded = modules_after("import convrec.cli")
    assert "convrec.graphs" in loaded and "convrec.autodiff" in loaded
    scipy = [m for m in loaded if m.split(".")[0] == "scipy"]
    assert not scipy, f"import convrec.cli loads {len(scipy)} scipy modules"


def test_only_optim_packs_binary_fields():
    # every binary file goes through optim's one container reader and writer
    importers = []
    for path in sorted((ROOT / "src" / "convrec").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "struct" in names:
                importers.append(path.stem)
    assert importers == ["optim"], f"convrec modules importing struct: {importers}"
