"""Every name a module under src/rfpop or a test module imports is used by
that module.

Neither ruff nor pyflakes ships with the toolchain, so this is the F401
check done by hand over the AST.  A deliberate re-export either appears in
the module's `__all__` or carries `# noqa: F401` on its import line.
"""

import ast
import importlib
from pathlib import Path

import pytest

from rfpop.app.config import MODES

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


RETIRED_COPY_NAMES = {"record_updated", "clone_records", "_clone", "take_changed"}


def record_copies(source: str) -> list[str]:
    """Lines that define or call a retired record-copy or mutate-and-report
    helper."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            name = node.name
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            continue
        if name in RETIRED_COPY_NAMES:
            hits.append(f"line {node.lineno}: {name}")
    return hits


def test_reader_records_are_replaced_not_copied():
    """Reader records are frozen and `ReaderDatabase.put` is the one write,
    so no module reports an in-place change or copies a record to guard it,
    and the open session, not the database, holds what it changed."""
    assert record_copies("def _clone(r):\n    pass\n\n\ndb.record_updated(rec, None)\n") == [
        "line 1: _clone", "line 5: record_updated"]
    assert record_copies("db.put(replace(rec, ctr=2))\n") == []
    found = {str(p.relative_to(SRC)): record_copies(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {path: lines for path, lines in found.items() if lines} == {}


UPPER_PACKAGES = ("rfpop.harness", "rfpop.app")
LOWER_PACKAGES = ("primitives", "model")


def upward_imports(source: str, package: str = "rfpop") -> list[str]:
    """Lines that import from the security harness or the application; a
    relative import is resolved against `package`."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = parts[: len(parts) + 1 - node.level] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        hits += [f"line {node.lineno}: {name}" for name in names
                 if any(name == pkg or name.startswith(pkg + ".") for pkg in UPPER_PACKAGES)]
    return hits


def test_lower_layers_import_neither_harness_nor_app():
    """primitives/ and model/ sit under everything that runs games or
    serves sessions, so they import from neither."""
    assert upward_imports(
        "from rfpop.harness.report import ExperimentReport\nimport rfpop.app.cli\n"
        "from rfpop import harness\n"
    ) == ["line 1: rfpop.harness.report.ExperimentReport", "line 2: rfpop.app.cli",
          "line 3: rfpop.harness"]
    assert upward_imports("from ..app import cli\nfrom .rng import Rng\n", "rfpop.primitives") == [
        "line 1: rfpop.app.cli"]
    assert upward_imports("from rfpop.primitives.rng import Rng\nimport rfpop.application\n") == []
    found = {}
    for path in MODULES:
        relative = path.relative_to(SRC)
        if relative.parts[0] in LOWER_PACKAGES:
            package = ".".join(("rfpop",) + relative.parent.parts)
            found[str(relative)] = upward_imports(path.read_text(encoding="utf-8"), package)
    assert found and {path: lines for path, lines in found.items() if lines} == {}


def frozen_slotted_dataclasses(source: str) -> list[str]:
    """Lines of classes decorated with `dataclass(frozen=True, slots=True)`."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            func = decorator.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            flags = {kw.arg for kw in decorator.keywords
                     if isinstance(kw.value, ast.Constant) and kw.value.value is True}
            if name == "dataclass" and {"frozen", "slots"} <= flags:
                hits.append(f"line {node.lineno}: {node.name}")
    return hits


def test_kept_values_are_built_by_value():
    """A frozen slotted class is a `model.types.value`, whose generated
    `__init__` and `evolve` method write through the slots."""
    assert frozen_slotted_dataclasses(
        "@dataclass(frozen=True, slots=True)\nclass A:\n    x: int\n\n\n"
        "@dataclasses.dataclass(slots=True, frozen=True, eq=False)\nclass B:\n    x: int\n"
    ) == ["line 2: A", "line 7: B"]
    assert frozen_slotted_dataclasses(
        "@dataclass(frozen=True)\nclass A:\n    x: int\n\n\n@value\nclass B:\n    x: int\n"
    ) == []
    found = {str(p.relative_to(SRC)): frozen_slotted_dataclasses(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {path: lines for path, lines in found.items() if lines} == {}


def imports_of(source: str, package: str) -> list[str]:
    """Lines that import `package` or a submodule of it, each marked
    `module level` or `in a function`."""
    hits = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""] if not child.level else []
            else:
                names = []
            if any(name == package or name.startswith(package + ".") for name in names):
                hits.append(f"line {child.lineno}: {'in a function' if in_function else 'module level'}")
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse(source), False)
    return hits


def test_nothing_imports_cryptography_and_only_the_ed25519_module_imports_ctypes():
    """MA runs on a PRF alone: libsodium's Ed25519 loads, through `ctypes` in
    primitives/ed25519.py, when a full-time key pair is first derived or
    decoded, from a function in primitives/sig.py, so no process that signs
    nothing maps it. The `cryptography` package is a test reference only."""
    assert imports_of(
        "import cryptography\n"
        "from cryptography.exceptions import InvalidSignature\n"
        "if True:\n    import cryptography.hazmat\n"
        "class A:\n    from cryptography import x\n"
        "def f():\n    from cryptography.hazmat import y\n"
        "    def g():\n        import cryptography\n", "cryptography"
    ) == ["line 1: module level", "line 2: module level", "line 4: module level",
          "line 6: module level", "line 8: in a function", "line 10: in a function"]
    assert imports_of("import cryptographyx\nfrom .cryptography import y\n", "cryptography") == []
    assert imports_of("from ctypes.util import find_library\n", "ctypes") == ["line 1: module level"]

    def importers(package):
        found = {str(p.relative_to(SRC)): imports_of(p.read_text(encoding="utf-8"), package)
                 for p in MODULES}
        return {path: lines for path, lines in found.items() if lines}

    assert importers("cryptography") == {}
    assert set(importers("ctypes")) == {"primitives/ed25519.py"}
    loaders = importers("rfpop.primitives.ed25519")
    assert set(loaders) == {"primitives/sig.py"}
    assert all(line.endswith("in a function") for line in loaders["primitives/sig.py"])


MODE_NAMES = {"ma", "mapop", "cex"}


def mode_comparisons(source: str) -> list[str]:
    """Lines that compare a value to a mode name literal, alone or in a
    tuple, list or set, or match a case against one."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        for operand in operands:
            elts = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
            if any(isinstance(e, ast.Constant) and e.value in MODE_NAMES for e in elts):
                hits.append(f"line {node.lineno}")
                break
    return hits


def test_the_record_codec_has_no_mode_branch():
    """Each mode's reader-record and tag-state layout is one `LAYOUTS`
    entry, so app/dbfile.py, app/tagfile.py and app/netrun.py never ask
    which mode they are handling."""
    assert mode_comparisons(
        'if mode == "ma":\n    pass\n'
        'x = "cex" != mode\n'
        'y = mode in ("ma", "cex")\n'
        'match mode:\n    case "mapop":\n        pass\n'
    ) == ["line 1", "line 3", "line 4", "line 6"]
    assert mode_comparisons('x = mode == "pop"\ny = mode in MODES\nz = LAYOUTS["ma"]\n') == []
    for name in ("dbfile.py", "tagfile.py", "netrun.py"):
        assert mode_comparisons((SRC / "app" / name).read_text(encoding="utf-8")) == [], name


def mode_tables(namespaces: dict[str, dict], modes) -> dict[str, bool]:
    """Each module-level dict keyed by a mode, as module.name -> whether its
    keys are exactly `modes`."""
    return {f"{module}.{name}": set(table) == set(modes)
            for module, namespace in namespaces.items() for name, table in namespace.items()
            if isinstance(table, dict) and any(key in modes for key in table)}


def test_every_mode_table_has_the_modes_of_the_one_list():
    """The modes are listed once, as `config.MODES`, and every table keyed by
    mode has exactly those keys."""
    assert mode_tables({"m": {"T": {"a": 1, "b": 2}, "U": {"a": 1}, "V": {1: "a"}, "W": ("a",)}},
                       ("a", "b")) == {"m.T": True, "m.U": False}
    namespaces = {}
    for path in MODULES:
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        namespaces[name] = vars(importlib.import_module(name))
    tables = mode_tables(namespaces, MODES)
    assert {"rfpop.system.SYSTEM_BUILDERS", "rfpop.app.dbfile.LAYOUTS"} <= set(tables)
    assert [name for name, exact in tables.items() if not exact] == []


WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}


def write_sites(source: str) -> list[str]:
    """Lines that open a file for writing or appending (`open` with a mode
    that is not a read-only literal, `os.open` with a write flag), call
    `os.replace`, `os.rename`, `os.truncate` or `os.ftruncate`, or call a
    `write_text` or `write_bytes` method."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            writes = any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                         or set(m.value) & set("wax+") for m in modes)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "os":
            flags = {n.attr for arg in node.args[1:2] for n in ast.walk(arg) if isinstance(n, ast.Attribute)}
            writes = (func.attr in ("replace", "rename", "truncate", "ftruncate")
                      or (func.attr == "open" and bool(flags & WRITE_FLAGS)))
        else:
            writes = isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes")
        if writes:
            hits.append(f"line {node.lineno}")
    return hits


def test_only_the_files_module_writes_files():
    """Every file the package keeps is written through app/files.py, so how
    a file is written (its mode, staging, and later its fsync) is decided in
    one place."""
    assert write_sites(
        'open(p, "wb")\nopen(p)\nopen(p, "rb")\nopen(p, mode="a")\nopen(p, m)\n'
        "os.open(p, os.O_RDONLY)\nos.open(p, os.O_WRONLY | os.O_CREAT)\nos.replace(a, b)\n"
        'path.write_text("x")\nos.path.join(a, b)\nos.truncate(p, 0)\nos.ftruncate(fd, 0)\n'
    ) == ["line 1", "line 4", "line 5", "line 7", "line 8", "line 9", "line 11", "line 12"]
    found = {str(p.relative_to(SRC)): write_sites(p.read_text(encoding="utf-8")) for p in MODULES}
    writers = {path: lines for path, lines in found.items() if lines}
    assert "app/files.py" in writers
    del writers["app/files.py"]
    assert writers == {}


def test_only_the_framing_module_imports_zlib():
    """Both append-only files, the reader's journal and a tag's state log,
    frame their records through app/framing.py, so the one module that
    checksums a record is the one that imports `zlib`."""
    assert imports_of("import zlib\nfrom zlib import crc32\ndef f():\n    import zlib\n", "zlib") == [
        "line 1: module level", "line 2: module level", "line 4: in a function"]
    assert imports_of("import zlibx\nfrom .zlib import crc32\n", "zlib") == []
    found = {str(p.relative_to(SRC)): imports_of(p.read_text(encoding="utf-8"), "zlib") for p in MODULES}
    assert {path for path, lines in found.items() if lines} == {"app/framing.py"}


def json_parse_sites(source: str) -> list[str]:
    """Lines that call `json.load` or `json.loads`, or import either from
    `json`."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            parses = any(alias.name in ("load", "loads") for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            parses = node.value.id == "json" and node.attr in ("load", "loads")
        else:
            continue
        if parses:
            lines.add(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


def test_only_the_framing_and_config_modules_parse_json():
    """Every stored JSON object a loader reads (the database's metadata
    block, a key file, a state-log record) goes through
    `framing.json_object`, so what a damaged one raises is decided in one
    place; a config file keeps its own parse, which raises ConfigError."""
    assert json_parse_sites(
        "import json\njson.loads(b)\nfrom json import loads as parse\njson.dumps(d)\n"
        "doc = json.load(handle)\nobj.loads(b)\n"
    ) == ["line 2", "line 3", "line 5"]
    found = {str(p.relative_to(SRC)): json_parse_sites(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {path for path, lines in found.items() if lines} == {"app/framing.py", "app/config.py"}
