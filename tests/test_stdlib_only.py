import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ffmcast"


def test_runtime_imports_only_the_standard_library():
    # relative imports stay inside the package; every absolute one must name
    # ffmcast itself or a standard library module
    allowed = set(sys.stdlib_module_names) | {"ffmcast"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] not in allowed]
    assert foreign == []


def test_every_import_is_used():
    # a name a module imports but never reads is dead; an import kept on
    # purpose carries "# noqa: F401" on one of its lines
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert sources
    dead = []
    for path in sources:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            dead += [f"{path.name}:{node.lineno} {n}" for n in names if n not in read]
    assert dead == []


def test_every_file_read_or_write_names_its_encoding():
    # without encoding= a text file is read in the locale's encoding, so the
    # same input could parse on one machine and fail on another
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    unnamed = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("open", "read_text", "write_text") and "encoding" not in {k.arg for k in node.keywords}:
                unnamed.append(f"{path.name}:{node.lineno} {name}")
    assert unnamed == []
