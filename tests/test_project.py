"""Project-wide checks: the metadata in pyproject.toml, the package's one write path, its one training loop,
the one owner of the visibility matrix and of the attention bias, the one carrier of the attention mode, the
one entry point into the encoder, the one masked-cell scorer, the one read path of the masked-entity head, the
one linking path and the one task table."""

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


def test_only_encoding_builds_an_attention_bias_to_keep():
    # `Sequence.attention_bias` is the one cache, kept on the sequence and gone with it; a module-level
    # cache would build biases itself. The kernel that defines the bias also makes one per call from a
    # hand-made mask, and keeps none.
    others = calls_outside("encoding.py", ("mask_bias",))
    assert set(others) == {"kernels.py"} and len(others["kernels.py"]) == 1


def takes(path, name):
    """Line numbers of the functions (lambdas too) that take a parameter called `name`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            if name in {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p is not None}:
                yield node.lineno


def encode_calls(path):
    """(line, positional argument count, keyword names) of each call to `encode`, by name or as an attribute."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "encode":
            yield node.lineno, len(node.args), {k.arg for k in node.keywords}


def test_the_model_alone_carries_its_attention_mode():
    # `Model.use_visibility` is set where a model gets its weights; no layer above the encoder takes its own
    from tabrep.tasks import FinetuneSettings

    assert list(takes(PACKAGE / "encoder.py", "use_visibility"))
    above = {name: list(takes(PACKAGE / name, "use_visibility")) for name in ("pretrain.py", "tasks.py", "cli.py")}
    assert {name: lines for name, lines in above.items() if lines} == {}
    assert "use_visibility" not in {f.name for f in dataclasses.fields(FinetuneSettings)}
    # `encode` is the encoder's one entry point: no other module embeds a sequence or runs a block
    assert calls_outside("encoder.py", ("embed_sequence", "transformer_block")) == {}
    # every layer above the encoder encodes in the model's mode; only the bench's C03 gate and the tests pass
    # `encode` a mode of its own
    found = {name: list(encode_calls(PACKAGE / name)) for name in ("pretrain.py", "tasks.py", "cli.py")}
    moded = {
        name: [line for line, n_args, keywords in c if n_args > 2 or keywords & {"use_visibility", "reference"}]
        for name, c in found.items()
    }
    assert {name: lines for name, lines in moded.items() if lines} == {}
    assert found["pretrain.py"] and found["tasks.py"]


def defines(path, name):
    """Line numbers of the functions called `name` that a module defines, nested ones too."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
            yield node.lineno


def test_one_function_scores_masked_cells():
    # `encoder.masked_cell_states` is the one masked-cell scorer, for masked recovery and cell filling alike
    found = {p.name: list(defines(p, "masked_cell_states")) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines}.keys() == {"encoder.py"}
    assert all(list(calls(PACKAGE / name, ("masked_cell_states",))) for name in ("pretrain.py", "tasks.py"))


def holders(path, names):
    """Names of a module's top-level definitions ("<module>" for other code) whose code holds a string
    constant in `names`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        getattr(top, "name", "<module>")
        for top in tree.body for node in ast.walk(top) if isinstance(node, ast.Constant) and node.value in names
    }


def test_one_function_reads_the_masked_entity_head():
    # `pretrain.entity_head` is the head's one read path, for pre-training, recovery, cell filling and row
    # population alike; `init_model` only creates its weights
    found = {(p.name, name) for p in sorted(PACKAGE.glob("*.py")) for name in holders(p, {"mer_W", "mer_b"})}
    assert found == {("pretrain.py", "entity_head"), ("encoder.py", "init_model")}


def called_parameters(path, function):
    """The parameters of a module's top-level function that its code (nested functions too) calls."""
    fn = next(n for n in ast.parse(path.read_text(encoding="utf-8")).body if getattr(n, "name", None) == function)
    params = {a.arg for a in [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]}
    return {n.func.id for n in ast.walk(fn) if isinstance(n, ast.Call) and getattr(n.func, "id", None) in params}


def test_linking_scores_its_candidates_one_way():
    # training and evaluation build entry rows the same way, inside the spec; no caller hands it a callback
    assert called_parameters(PACKAGE / "tasks.py", "_linking_spec") == set()
    assert called_parameters(PACKAGE / "tasks.py", "_label_spec") == {"golds"}  # the check does see a call


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
