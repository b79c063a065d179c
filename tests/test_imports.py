"""Every name a module under src/rfpop or a test module imports is used by
that module.

Neither ruff nor pyflakes ships with the toolchain, so this is the F401
check done by hand over the AST.  A deliberate re-export either appears in
the module's `__all__` or carries `# noqa: F401` on its import line.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "rfpop"
MODULES = sorted(SRC.rglob("*.py"))
TEST_MODULES = sorted(TESTS.glob("*.py"))


def _annotation_names(node) -> set[str]:
    """Names inside a quoted annotation such as `-> "Config"`."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            tree = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_the_scan_sees_an_unused_import():
    source = "from typing import Optional, Union\nimport os  # noqa: F401\n\nx: Optional[int] = None\n"
    assert unused_imports(source) == ["line 1: Union"]
    assert unused_imports('from a import B\n\n\ndef f() -> "B":\n    pass\n') == []
    assert unused_imports('from a import B\n\n__all__ = ["B"]\n') == []


def _module_id(path: Path) -> str:
    return f"tests/{path.name}" if path.parent == TESTS else str(path.relative_to(SRC))


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=_module_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def bitstring_uses(source: str) -> list[str]:
    """Lines that import or name `BitString`."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named = any(alias.name.split(".")[-1] == "BitString" for alias in node.names)
        elif isinstance(node, ast.Name):
            named = node.id == "BitString"
        elif isinstance(node, ast.Attribute):
            named = node.attr == "BitString"
        else:
            continue
        if named:
            hits.append(f"line {node.lineno}")
    return hits


def test_no_module_imports_bitstring():
    """Protocol values are `bytes`; the `BitString` stub in
    primitives/bitstring.py is there for the benchmark tracer alone."""
    assert bitstring_uses("from rfpop.primitives.bitstring import BitString, xor\n") == ["line 1"]
    assert bitstring_uses("x = bitstring.BitString(8, 0)\n") == ["line 1"]
    found = {str(p.relative_to(SRC)): bitstring_uses(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {path: lines for path, lines in found.items() if lines} == {}


RETIRED_STEP_NAMES = {"ReaderAction", "TagAction", "Reply", "ReplyWithOutput", "Output"}


def retired_step_names(source: str) -> list[str]:
    """Lines that define or import one of the retired step-result names."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        else:
            continue
        hits += [f"line {node.lineno}: {name}" for name in names if name in RETIRED_STEP_NAMES]
    return hits


def test_no_module_defines_or_imports_a_retired_step_result():
    """A protocol verdict is one `Action`, a step result one `StepOutcome`."""
    assert retired_step_names("from rfpop.model.types import Output, StepOutcome\n") == ["line 1: Output"]
    assert retired_step_names("class TagAction:\n    pass\n\n\nReply = None\n") == [
        "line 1: TagAction", "line 5: Reply"]
    found = {str(p.relative_to(SRC)): retired_step_names(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {path: lines for path, lines in found.items() if lines} == {}


RETIRED_WRAPPERS = {
    "interior_params",
    "_PopTagScratch",
    "cex_tag_finish",
    "pop_reader_finalize_send",
    "pop_tag_finalize",
    "pop_reader_verify",
}


def mapop_wrappers(source: str) -> list[str]:
    """Lines that define a retired wrapper or free round function, or read an
    attribute `ma` (the old `PopParams.ma`)."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in RETIRED_WRAPPERS:
            hits.append(f"line {node.lineno}: {node.name}")
        elif isinstance(node, ast.Attribute) and node.attr == "ma":
            hits.append(f"line {node.lineno}: .ma")
    return hits


def test_mapop_extends_ma_without_wrappers():
    """`PopParams` is a `MaParams` and the tag has one scratch type, so no
    module unwraps interior parameters or scratch. MAPoP's and cex's rounds
    are methods of their `MaProtocol` subclasses, so no module defines them
    as free functions."""
    assert mapop_wrappers("def interior_params(p):\n    return p.ma\n") == [
        "line 1: interior_params", "line 2: .ma"]
    assert mapop_wrappers("def pop_tag_finalize(params, state, scratch, payload):\n    pass\n") == [
        "line 1: pop_tag_finalize"]
    assert mapop_wrappers("from rfpop.ma import MaParams\n") == []
    found = {str(p.relative_to(SRC)): mapop_wrappers(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {path: lines for path, lines in found.items() if lines} == {}


RETIRED_MODE_NAMES = {"default_mode", "piprime_run"}


def per_session_modes(source: str) -> list[str]:
    """Lines that define `default_mode` or `piprime_run`, or take a
    parameter named `session_mode`."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name in RETIRED_MODE_NAMES:
            hits.append(f"line {node.lineno}: {node.name}")
        args = node.args
        hits += [f"line {a.lineno}: {a.arg}" for a in args.posonlyargs + args.args + args.kwonlyargs
                 if a.arg == "session_mode"]
    return hits


def test_one_session_shape_per_protocol():
    """No protocol picks a mode per session, and the possession subprotocol
    runs only inside a MAPoP session."""
    assert per_session_modes(
        "def default_mode(self):\n    pass\n\n\ndef serve(db, *, session_mode=None):\n    pass\n"
    ) == ["line 1: default_mode", "line 5: session_mode"]
    found = {str(p.relative_to(SRC)): per_session_modes(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {path: lines for path, lines in found.items() if lines} == {}
