"""No module imports another module's private names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "sl2hyper").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _private_imports(path: Path) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "sl2hyper":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.endswith("__"):
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                out.append(f"{where} imports {name} from {'.' * node.level}{module}")
    return out


def test_no_private_imports():
    assert [hit for path in FILES for hit in _private_imports(path)] == []
