"""Static checks on the package source (no linter is a dependency)."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "holonet"
BENCH = PACKAGE.parents[1] / "perfbench"


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; imports on a line marked
    `# noqa: F401` are re-exports and exempt."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


# the package depends on numpy alone; scipy being installed must not leak in
ALLOWED_IMPORTS = sys.stdlib_module_names | {"numpy", "holonet"}


def foreign_imports(path: Path) -> list[str]:
    """Absolute imports anywhere in a module (function bodies too) of anything
    outside the standard library, numpy and holonet."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] not in ALLOWED_IMPORTS]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_holonet(path):
    assert foreign_imports(path) == []


def test_foreign_import_check_sees_nested_scipy(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import numpy as np\nfrom . import tensor_core\n\n"
                      "def f():\n    from scipy.linalg import expm\n    import os, mpmath\n")
    assert foreign_imports(module) == ["scipy.linalg (line 5)", "mpmath (line 6)"]


# a model's params carry its kind: no function takes the kind beside them
MODEL_PARAMETERS = {"params", "p", "model"}


def kind_beside_model(package: Path) -> list[str]:
    """Functions and methods of `package` (lambdas too) that take a `kind`
    parameter beside a model parameter."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if "kind" in names and names & MODEL_PARAMETERS:
                    found.append(f"{path.name}:{getattr(node, 'name', 'lambda')} "
                                 f"(line {node.lineno})")
    return found


def test_no_function_takes_a_kind_beside_a_model():
    assert kind_beside_model(PACKAGE) == []


# a task and a curriculum answer for their kind: the pipelines never test it
KIND_OWNERS = {"TaskConfig", "Curriculum"}


def kind_reads_off_tasks_and_curricula(path: Path) -> list[str]:
    """`.kind` reads in a module off a task or curriculum: a value named
    `task` or `curriculum` (as a name or an attribute), or a parameter
    annotated with one of KIND_OWNERS."""
    tree = ast.parse(path.read_text())
    owners = {"task", "curriculum"}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and isinstance(node.annotation, ast.Name) \
                and node.annotation.id in KIND_OWNERS:
            owners.add(node.arg)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "kind":
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) \
                else owner.attr if isinstance(owner, ast.Attribute) else None
            if name in owners:
                found.append(f"{name}.kind (line {node.lineno})")
    return found


def test_experiments_reads_no_task_or_curriculum_kind():
    assert kind_reads_off_tasks_and_curricula(PACKAGE / "experiments.py") == []


def test_kind_read_check_sees_tasks_and_curricula(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("def f(task, c: Curriculum, params, cfg):\n"
                      "    return task.kind, c.kind, cfg.curriculum.kind, params.kind\n")
    assert kind_reads_off_tasks_and_curricula(module) == [
        "task.kind (line 2)", "c.kind (line 2)", "curriculum.kind (line 2)"]


# models.py answers every per-kind question of training and the prefix-pass
# probes; jacobian_horizon alone steps a recurrence by hand
MODEL_KIND_READERS = {"jacobian_horizon"}


def model_kind_reads(path: Path, allowed=frozenset()) -> list[str]:
    """`.kind` reads off a model (a name in MODEL_PARAMETERS) anywhere in a
    module outside its top-level functions and classes named in `allowed`."""
    found = []
    for top in ast.parse(path.read_text()).body:
        if getattr(top, "name", None) in allowed:
            continue
        found += [f"{node.value.id}.kind (line {node.lineno})" for node in ast.walk(top)
                  if isinstance(node, ast.Attribute) and node.attr == "kind"
                  and isinstance(node.value, ast.Name) and node.value.id in MODEL_PARAMETERS]
    return found


def test_experiments_reads_no_model_kind_outside_the_horizon():
    assert model_kind_reads(PACKAGE / "experiments.py", MODEL_KIND_READERS) == []


def test_model_kind_read_check_sees_reads_outside_the_allowed_functions(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("def f(params, model, task):\n"
                      "    return params.kind, model.kind, task.kind\n\n\n"
                      "def g(p):\n    return p.kind\n\n\nK = params.kind\n")
    assert model_kind_reads(module, {"g"}) == [
        "params.kind (line 2)", "model.kind (line 2)", "params.kind (line 9)"]
    assert model_kind_reads(module)[2] == "p.kind (line 6)"


def call_sites(path: Path, method: str) -> list[str]:
    """The top-level functions of a module that call `<anything>.<method>(...)`,
    once per call; a call outside every function is listed as <module>."""
    tree = ast.parse(path.read_text())
    owners = {id(node): top.name for top in tree.body
              if isinstance(top, (ast.FunctionDef, ast.ClassDef))
              for node in ast.walk(top)}
    return sorted(owners.get(id(node), "<module>") for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == method)


def test_experiments_runs_one_forward_and_samples_labelled_batches_only_to_train():
    # every probe is a reduction of prefix_pass; training alone needs a
    # labelled `Batch`, evaluation labels the columns it scores
    path = PACKAGE / "experiments.py"
    assert call_sites(path, "forward_batch") == ["prefix_pass"]
    assert set(call_sites(path, "sample_batch")) == {"train"}


def test_call_site_check_names_the_calling_function(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("x = md.forward_batch()\n\ndef f():\n    def g():\n"
                      "        md.forward_batch(task.sample_batch())\n    return g\n\n"
                      "class C:\n    def h(self):\n        return md.forward_batch()\n")
    assert call_sites(module, "forward_batch") == ["<module>", "C", "f"]
    assert call_sites(module, "sample_batch") == ["f"]


def names_read(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Identifiers a parsed file reads: names, attributes, imported names and
    string constants (perfbench wraps functions by their names as strings),
    outside the subtree `skip`."""
    hidden = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    found = set()
    for node in ast.walk(tree):
        if id(node) in hidden:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unreferenced_definitions(package: Path, bench: Path) -> list[str]:
    """Module-level functions and classes of `package` that no file of the
    package (outside the definition itself) or of `bench` reads by name."""
    trees = {p: ast.parse(p.read_text())
             for p in sorted(package.glob("*.py")) + sorted(bench.rglob("*.py"))}
    dead = []
    for path in sorted(package.glob("*.py")):
        others = set().union(*(names_read(t) for p, t in trees.items() if p != path))
        dead += [f"{path.name}:{node.name}" for node in trees[path].body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name not in others | names_read(trees[path], node)]
    return dead


def test_every_module_level_definition_is_referenced():
    # tests do not count as readers: code only they call is dead
    assert unreferenced_definitions(PACKAGE, BENCH) == []


def benchmark_tracing():
    """perfbench/tracing.py, loaded from its file: perfbench is not a package
    on the test path. Its dataclasses look their module up while loading."""
    spec = importlib.util.spec_from_file_location("benchmark_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_is_where_the_tracer_looks_it_up():
    # the tracer wraps owner.__dict__[attribute]; without this a deleted or
    # moved name would fail only a traced benchmark run
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in benchmark_tracing().TARGETS
               if attr not in owner.__dict__]
    assert missing == []
