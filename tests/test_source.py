"""Checks on the package source itself, in place of a linter."""

import ast
import importlib.util
import re
from collections import defaultdict
from dataclasses import fields
from pathlib import Path

import pytest

import reranklab

PACKAGE = Path(reranklab.__file__).resolve().parent


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    if module == "__init__.py":  # its imports are the package's exports
        used = set(reranklab.__all__)
    else:
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in _imported_names(tree) if name not in used] == []


def _opcodes(parsed):
    """Every opcode name in a parsed regex, its nested parts included."""
    for op, av in parsed:
        yield str(op)
        for part in av if isinstance(av, (tuple, list)) else ():
            for item in part if isinstance(part, list) else (part,):
                if isinstance(item, re._parser.SubPattern):
                    yield from _opcodes(item)


@pytest.mark.skipif(not hasattr(re, "_parser"), reason="re._parser is Python 3.11's")
@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_pattern_needs_python_3_11(module):
    # pyproject.toml allows 3.10, whose re compiles no possessive repeat or atomic group
    namespace = vars(importlib.import_module(f"reranklab.{module}"))
    patterns = [value for value in namespace.values() if isinstance(value, re.Pattern)]
    for pattern in patterns:
        found = set(_opcodes(re._parser.parse(pattern.pattern, pattern.flags)))
        assert not found & {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}, pattern.pattern


ROOT = Path(__file__).resolve().parents[1]


def _public_definitions(tree: ast.Module):
    """Each public top-level name a module defines, with the statement that defines it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in found if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in targets if not name.startswith("_"))


def _program_callers() -> dict[str, set[str]]:
    """Each public name of the package, with the top directories of the program files using it.

    An import or an ``__all__`` entry is not a use, and tests are not callers.
    """
    files = [*ROOT.glob("src/**/*.py"), *ROOT.glob("bench/*.py"), *ROOT.glob("demos/*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    uses = defaultdict(list)
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                uses[node.id if isinstance(node, ast.Name) else node.attr].append((path, node))
    callers = {}
    for module in sorted(ROOT.glob("src/reranklab/*.py")):
        for name, definition in _public_definitions(trees[module]):
            inside = {id(node) for node in ast.walk(definition)}
            callers[f"{module.stem}.{name}"] = {
                path.relative_to(ROOT).parts[0] for path, node in uses[name]
                if not (path == module and id(node) in inside)}
    return callers


def test_every_public_name_has_a_program_caller():
    assert [name for name, dirs in _program_callers().items() if not dirs] == []


def test_the_bench_only_names_are_the_compatibility_names():
    # the names that only the benchmark still calls; each goes once bench/ stops calling it
    bench_only = [name for name, dirs in _program_callers().items() if dirs == {"bench"}]
    assert sorted(bench_only) == [
        "rerank.score_candidates", "types.Candidate", "types.validate_candidate_list"]


def test_the_cli_sets_every_backend_setting():
    # a BackendConfig field that no run can set is one that nothing needs
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    build = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_build_backend")
    (call,) = [node for node in ast.walk(build) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "BackendConfig"]
    assert sorted(k.arg for k in call.keywords) == sorted(
        f.name for f in fields(reranklab.BackendConfig))


def test_only_staging_and_report_read_out_dir():
    # a report command writes through _report, so the --out-dir rule is stated in one place
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    readers = {function.name for function in tree.body if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function)
               if isinstance(node, ast.Attribute) and node.attr == "out_dir"}
    assert sorted(readers) == ["_report", "_staging"]


def test_only_decision_prompt_reads_the_answer_scaffold():
    # every read after a think block is assembled in one place, so no second read path can
    # come back with its own scaffold
    readers = {f"{module.stem}.{getattr(definition, 'name', definition.lineno)}"
               for module in sorted(PACKAGE.glob("*.py"))
               for definition in ast.parse(module.read_text(encoding="utf-8")).body
               for node in ast.walk(definition)
               if isinstance(node, ast.Attribute) and node.attr == "answer_scaffold"}
    assert sorted(readers) == ["prompts.decision_prompt"]



# a dataclass left without slots, with the reason it needs an instance __dict__
UNSLOTTED = {
    "types.Corpus": "its cached_property stores the id lookup in the instance __dict__",
}


def _dataclasses(tree: ast.Module):
    """Each class decorated ``@dataclass(...)``, with whether it passes ``slots=True``."""
    for node in ast.walk(tree):
        for decorator in node.decorator_list if isinstance(node, ast.ClassDef) else ():
            call = decorator if isinstance(decorator, ast.Call) else None
            target = call.func if call else decorator
            if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
                yield node.name, any(
                    k.arg == "slots" and isinstance(k.value, ast.Constant) and k.value.value is True
                    for k in (call.keywords if call else ()))


def test_every_dataclass_declares_slots():
    # a row type without slots carries a __dict__ per instance, about twice its size
    unslotted = [f"{module.stem}.{name}" for module in sorted(PACKAGE.glob("*.py"))
                 for name, slotted in _dataclasses(ast.parse(module.read_text(encoding="utf-8")))
                 if not slotted]
    assert sorted(unslotted) == sorted(UNSLOTTED)


def test_only_rerank_decides_what_a_strategy_kind_means():
    # the samples and the sampling each kind takes are resolved by RerankStrategy.resolve, so
    # the CLI cannot grow a rule of its own again; it names StrategyKind for --strategy's choices
    deciders = {module.stem for module in sorted(PACKAGE.glob("*.py"))
                for compare in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
                if isinstance(compare, ast.Compare)
                for node in ast.walk(compare)
                if isinstance(node, ast.Attribute)
                and getattr(node.value, "id", "") == "StrategyKind"}
    assert sorted(deciders) == ["rerank"]
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    assert "SamplingParams" not in names | set(_imported_names(tree))


def _message_tests(tree: ast.Module):
    """Each line in an ``except … as name:`` body that compares or prefix-tests str(name…)."""
    for handler in ast.walk(tree):
        if not (isinstance(handler, ast.ExceptHandler) and handler.name):
            continue
        for node in (node for statement in handler.body for node in ast.walk(statement)):
            if not (isinstance(node, ast.Compare) or isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "startswith"):
                continue
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "str":
                    root = call.args[0] if call.args else None
                    while isinstance(root, ast.Attribute):
                        root = root.value
                    if getattr(root, "id", None) == handler.name:
                        yield node.lineno


def test_no_module_branches_on_an_exception_message():
    # an error's wording is for people; a caller that matches it breaks when the wording
    # changes, and a second module's wording couples the two
    found = sorted({f"{module.name}:{line}" for module in sorted(PACKAGE.glob("*.py"))
                    for line in _message_tests(ast.parse(module.read_text(encoding="utf-8")))})
    assert found == []


def test_code_lines_counts_code_outside_docstrings_and_comments(tmp_path):
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = tmp_path / "m.py"
    source.write_text('"""Module\ndocstring."""\n# a comment\n\ndef f(x):\n    """Doc."""\n'
                      '    return (x +  # two lines of one statement\n            1)\n'
                      'TEXT = """a string\nthat is code"""\n', encoding="utf-8")
    assert tool.code_lines(source) == 5  # def, return and its tail, TEXT's two lines
