"""Project-wide checks: the metadata in pyproject.toml, the package's one write path, its one training loop,
the one owner of the visibility matrix, the one carrier of the attention mode and the one task table."""

import ast
import dataclasses
import importlib
import pathlib
import re

import pytest

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "tabrep"


def test_declared_dependencies_import():
    # a dependency that cannot be installed must not be declared
    tomllib = pytest.importorskip("tomllib")
    deps = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert deps
    for spec in deps:
        importlib.import_module(re.match(r"[A-Za-z0-9_.-]+", spec).group(0).replace("-", "_"))


def write_opens(path):
    """Line numbers of the calls to an `open` whose mode may write: a mode with
    w, a, x or +, or one that is not a string literal."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "mode"), None)
        if mode is not None and not (isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")):
            yield node.lineno


def test_only_corpus_opens_files_for_writing():
    # every file is written through corpus.write_file: temp file, then rename
    assert list(write_opens(PACKAGE / "corpus.py"))
    others = {p.name: list(write_opens(p)) for p in sorted(PACKAGE.glob("*.py")) if p.name != "corpus.py"}
    assert {name: lines for name, lines in others.items() if lines} == {}


def calls(path, names):
    """Line numbers of the calls to any of `names`, by name or as an attribute."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in names:
            yield node.lineno


def calls_outside(module, names):
    """Module file name -> lines calling any of `names`, for every package
    module but `module`, which must call one."""
    assert list(calls(PACKAGE / module, names))
    others = {p.name: list(calls(p, names)) for p in sorted(PACKAGE.glob("*.py")) if p.name != module}
    return {name: lines for name, lines in others.items() if lines}


def test_only_numeric_builds_an_optimizer_or_steps_it():
    # `numeric.train` is the one training loop; a second copy would build its own Adam
    assert calls_outside("numeric.py", ("Adam", "descend")) == {}


def test_only_encoding_builds_a_visibility_matrix():
    # `Sequence.visibility` is the one cache; a second would call build_visibility itself
    assert calls_outside("encoding.py", ("build_visibility",)) == {}


def takes(path, name):
    """Line numbers of the functions (lambdas too) that take a parameter called `name`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            if name in {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p is not None}:
                yield node.lineno


def test_the_model_alone_carries_its_attention_mode():
    # `Model.use_visibility` is set where a model gets its weights; no layer above the encoder takes its own
    from tabrep.tasks import FinetuneSettings

    assert list(takes(PACKAGE / "encoder.py", "use_visibility"))
    above = {name: list(takes(PACKAGE / name, "use_visibility")) for name in ("pretrain.py", "tasks.py", "cli.py")}
    assert {name: lines for name, lines in above.items() if lines} == {}
    assert "use_visibility" not in {f.name for f in dataclasses.fields(FinetuneSettings)}


def test_the_command_line_reads_each_task_from_the_table():
    # `tasks.TASKS` is the one place a task is defined; cli.py looks a task up in it and branches on none
    from tabrep import tasks

    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    compared = [
        node.lineno
        for cmp in ast.walk(tree) if isinstance(cmp, ast.Compare)
        for side in (cmp.left, *cmp.comparators)
        for node in ast.walk(side) if isinstance(node, ast.Constant) and node.value in tasks.TASKS
    ]
    assert compared == []
    steps = {name for name in vars(tasks) if name.startswith(("train_", "eval_", "build_"))}
    assert steps and list(calls(PACKAGE / "cli.py", steps)) == []
    choices = [
        next(k.value for k in node.keywords if k.arg == "choices")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and node.args and getattr(node.args[0], "value", None) == "--task"
    ]
    assert len(choices) == 2
    assert all(any(getattr(n, "attr", None) == "TASKS" for n in ast.walk(c)) for c in choices)
