"""The bench finds convrec's functions by name; a rename must fail here, not print `absent`.

Importing the package stays light: what it loads is pinned here too, and so
is the package boundary: every public function has a caller outside the tests.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from test_bench_contract import KNOWN_ABSENT, bench_function_names

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


# public functions of the package that only the tests call, and why each stays
TEST_ONLY = {
    "autodiff.mul": "test objectives seed an upstream gradient with total(mul(out, constant(g)))",
    "autodiff.reshape": "conftest.total, every gradient check's objective, is built from it",
    "synthetic.toy_instance": "the tests' fixed corpus; it leaves src/ with synthetic.py, "
                              "which bench/workloads.py imports",
    "synthetic.cluster_corpus": "criterion 6's corpus; it leaves src/ with synthetic.py",
}


def references(tree, own=None):
    """The (module, name) pairs of convrec a file refers to: names it imports from a
    package module, attributes of a package module it binds (``ad.x`` after
    ``from . import autodiff as ad``) and, in the package module ``own``, its
    own names. An attribute of anything else, numpy's ``.reshape`` say, is no use."""
    bound, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "convrec"
                                                 or node.module.startswith("convrec.")):
            module = (node.module or "") if node.level else node.module[len("convrec."):]
            for alias in node.names:
                if module:
                    refs.add((module, alias.name))
                else:  # from . import autodiff as ad, from convrec import cli
                    bound[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in bound:
            refs.add((bound[node.value.id], node.attr))
        elif own and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add((own, node.id))
    return refs


def test_the_package_defines_no_function_only_tests_call():
    public, used = set(), {tuple(name.split(".")) for name in bench_function_names()}
    for path in sorted((ROOT / "src" / "convrec").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        used |= references(tree, own=path.stem)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                public.add((path.stem, node.name))
                # a command is called by its group, and the group by the entry point
                if any(ast.unparse(d).startswith(("main.command", "click.group"))
                       for d in node.decorator_list):
                    used.add((path.stem, node.name))
    for path in sorted((ROOT / "bench").glob("*.py")):
        used |= references(ast.parse(path.read_text("utf-8")))
    only_tests = {".".join(name) for name in public - used}
    assert only_tests == set(TEST_ONLY), (
        f"called only by tests: {sorted(only_tests - set(TEST_ONLY))}; "
        f"called elsewhere after all: {sorted(set(TEST_ONLY) - only_tests)}")
