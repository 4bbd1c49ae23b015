"""No module imports another module's private names, reads an element's layout
or computes in floats."""

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


def _private_attributes(source: str, where: str) -> list[str]:
    # a leading-underscore attribute, read or set, on anything but self
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        name = node.attr
        if not name.startswith("_") or name.endswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            continue
        out.append(f"{where}:{node.lineno} uses .{name}")
    return out


def test_element_layout_stays_in_algebra():
    # HyperElem's private state (`_keys`, `_block`) is read by algebra alone
    assert _private_attributes("u._block.ravel()\nself._check(v)", "x") == ["x:1 uses ._block"]
    hits = []
    for path in sorted((ROOT / "src" / "sl2hyper").glob("*.py")):
        if path.name != "algebra.py":
            source = path.read_text(encoding="utf-8")
            hits += _private_attributes(source, str(path.relative_to(ROOT)))
    assert hits == []


def _float_uses(source: str, where: str) -> list[str]:
    # the name `float`, or an attribute starting with `float` (np.float64, ...)
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "float":
            out.append(f"{where}:{node.lineno} uses float")
        elif isinstance(node, ast.Attribute) and node.attr.startswith("float"):
            out.append(f"{where}:{node.lineno} uses .{node.attr}")
    return sorted(out)


def test_no_float_arithmetic():
    # the package computes in integers mod p alone
    assert _float_uses("x.astype(np.float64)\nfloat(y)\nz.floor", "x") == ["x:1 uses .float64", "x:2 uses float"]
    hits = []
    for path in sorted((ROOT / "src" / "sl2hyper").glob("*.py")):
        hits += _float_uses(path.read_text(encoding="utf-8"), str(path.relative_to(ROOT)))
    assert hits == []
