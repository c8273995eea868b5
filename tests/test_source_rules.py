import ast
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import cycle_integrals
from cycle_integrals.config import Settings
from cycle_integrals.melnikov import OraclePoly


def _package_trees():
    for path in sorted(Path(cycle_integrals.__file__).parent.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise
    # typed errors instead
    offenders = []
    for path, tree in _package_trees():
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert not offenders, offenders


def test_every_setting_is_read():
    # a constant that no code reads is dead configuration: every Settings
    # field must be read as DEFAULT.<field> outside the module defining it
    read = set()
    for path, tree in _package_trees():
        if path.name == "config.py":
            continue
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "DEFAULT"}
    unread = [field.name for field in dataclasses.fields(Settings)
              if field.name not in read]
    assert not unread, unread


def test_one_exclusion_radius_rule():
    # what counts as near a critical value has one rule: exclusion_scale is
    # read in tracking.per_cv_radii and nowhere else
    def reads(tree):
        return [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr == "exclusion_scale"
                and isinstance(node.value, ast.Name)
                and node.value.id == "DEFAULT"]

    everywhere, inside = [], []
    for path, tree in _package_trees():
        everywhere += [f"{path.name}:{line}" for line in reads(tree)]
        if path.name == "tracking.py":
            (rule,) = [node for node in tree.body
                       if isinstance(node, ast.FunctionDef)
                       and node.name == "per_cv_radii"]
            inside += [f"{path.name}:{line}" for line in reads(rule)]
    assert inside and everywhere == inside, everywhere


def test_precision_has_one_home_in_the_oracle():
    # the rung of the precision ladder is decided in melnikov._fit alone:
    # only _fit and _build_oracle bind the name dps, as a parameter or a
    # loop target, and the double-precision product sampler keeps no cache
    path = Path(cycle_integrals.__file__).parent / "melnikov.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    binders = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
            continue
        a = func.args
        params = a.posonlyargs + a.args + a.kwonlyargs
        loops = [node.target for node in ast.walk(func)
                 if isinstance(node, (ast.For, ast.comprehension))]
        if (any(p.arg == "dps" for p in params)
                or any(isinstance(n, ast.Name) and n.id == "dps"
                       for target in loops for n in ast.walk(target))):
            binders.add(getattr(func, "name", "<lambda>"))
    assert binders == {"_fit", "_build_oracle"}, binders

    (sampler,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
                  and node.name == "_ProductSampler"]
    dicts = [f"melnikov.py:{node.lineno}" for node in ast.walk(sampler)
             if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
             and any(isinstance(target, ast.Attribute)
                     for target in (node.targets if isinstance(node, ast.Assign)
                                    else [node.target]))
             and (isinstance(node.value, (ast.Dict, ast.DictComp))
                  or (isinstance(node.value, ast.Call)
                      and getattr(node.value.func, "id", None) == "dict"))]
    assert not dicts, dicts


def test_no_settings_parameter():
    # tolerances are constants read from config.DEFAULT, never passed in
    offenders = []
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [
                    p for p in (a.vararg, a.kwarg) if p is not None]
                if any(p.arg == "settings" for p in params):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_extended_precision_has_one_home():
    # extended-precision arithmetic lives in precision.py and runs on
    # decimal: no other package module imports decimal, and none imports
    # mpmath, which the tests keep only as their reference
    offenders = []
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] == "mpmath"
                          or (name.split(".")[0] == "decimal"
                              and path.name != "precision.py")]
    assert not offenders, offenders


def test_json_has_one_home():
    # serialize.py writes every report and parses every JSON input: no
    # other package module imports json
    offenders = []
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] == "json"
                          and path.name != "serialize.py"]
    assert not offenders, offenders


def test_one_polynomial_toolkit():
    # polynomials are evaluated and differentiated by RatPoly and
    # ComplexPoly: no package module imports numpy.polynomial
    offenders = []
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.startswith("numpy.polynomial")]
    assert not offenders, offenders


def test_the_program_runs_without_mpmath(tmp_path):
    # a fresh interpreter counts the tangential zeros of trial 0 of the
    # seed-2026 (4,3) suite, whose oracle settles at 40 digits, and never
    # loads mpmath
    instance, report = tmp_path / "draw.json", tmp_path / "out.json"
    instance.write_text(json.dumps(
        {"f": ["10/3", -2, 10, "7/3", 1], "g": [-2, -4, -3, -2],
         "cycle": [7, 4, -6, -5], "epsilon": None, "seed": 0,
         "precision_bits": None}))
    script = (
        "import sys\n"
        "import cycle_integrals\n"
        "from cycle_integrals.cli import main\n"
        f"code = main(['tangential', '--instance', {str(instance)!r},\n"
        f"             '--output', {str(report)!r}])\n"
        "assert code == 0, code\n"
        "assert 'mpmath' not in sys.modules\n")
    src = str(Path(cycle_integrals.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(report.read_text())["result"]["precision_dps"] == 40


def test_no_precision_twins():
    # one code path serves every precision: no module defines two
    # functions or methods whose names differ only by a precision suffix
    twins = []
    for path, tree in _package_trees():
        stems = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stem = re.sub(r"_(d|mp|double)$", "", node.name)
                stems.setdefault(stem, set()).add(node.name)
        twins += [f"{path.name}: {sorted(names)}"
                  for names in stems.values() if len(names) > 1]
    assert not twins, twins


def test_every_import_is_used():
    # an imported name that its module never reads is dead code; the names
    # the benchmark tracer wraps are read where their module binds them,
    # and the package re-exports what `__all__` lists
    unused = []
    for path, tree in _package_trees():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
                read |= {elt.value for elt in node.value.elts}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert not unused, unused


def test_no_private_cross_module_imports():
    # an underscore name is private to its module: no package module
    # imports one from another (dunder names such as __version__ excepted)
    offenders = []
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("cycle_integrals")):
                offenders += [f"{path.name}:{node.lineno} {alias.name}"
                              for alias in node.names
                              if alias.name.startswith("_")
                              and not alias.name.startswith("__")]
    assert not offenders, offenders


def test_names_the_benchmark_tracer_reads_exist():
    # the traced benchmark run wraps names where program modules bind them
    # and reads fields of the oracle; parse it without importing, so a
    # deleted name fails here rather than in the benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module == "cycle_integrals"
               for alias in node.names}
    wrapped = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(target, "id", None)
                        for target in node.targets] == ["WRAPPED"])
    names = [(entry.elts[0].id, entry.elts[1].value) for entry in wrapped.elts]
    names += [(node.value.id, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(
                   f"cycle_integrals.{module}"), attr)]
    assert not missing, missing
    fields = {field.name for field in dataclasses.fields(OraclePoly)}
    assert {"radius", "precision_dps"} <= fields


def test_names_the_benchmark_imports_exist():
    # every benchmark script imports program names directly; parse them
    # without importing, so a deleted or renamed name fails here rather
    # than in the benchmark or in regen_literals.py
    missing = []
    for path in sorted((Path(__file__).resolve().parents[1]
                        / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "cycle_integrals"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    continue
                try:
                    importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    missing.append(f"{path.name}: {node.module}.{alias.name}")
    assert not missing, missing
