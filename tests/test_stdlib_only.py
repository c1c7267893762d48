import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ffmcast"


def absolute_imports() -> list[tuple[str, int, str]]:
    """(file, line, top-level module) of every absolute import in the package;
    relative imports stay inside it."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, node.lineno, n.split(".")[0]) for n in names]
    return found


def test_runtime_imports_only_the_standard_library():
    # every absolute import must name ffmcast itself or a standard library module
    allowed = set(sys.stdlib_module_names) | {"ffmcast"}
    assert [imp for imp in absolute_imports() if imp[2] not in allowed] == []


def test_no_module_imports_dataclasses():
    # importing dataclasses loads inspect too, and every process pays for both
    # at start-up: records are __slots__ classes or typing.NamedTuple
    assert [imp for imp in absolute_imports() if imp[2] == "dataclasses"] == []


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site-packages (and whatever .pth files they import) out of it
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        "import ffmcast, ffmcast.cli\n"
        "assert ffmcast.__file__.startswith(sys.path[0]), ffmcast.__file__\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
