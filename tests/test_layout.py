"""``src/rkstab`` holds only what the tool runs; code that only tests use
lives in ``tests/`` (the step and kernel oracles)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rkstab"
PERFBENCH = ROOT / "perfbench"


def names_in(node) -> set:
    """Every name ``node`` refers to: each ``Name`` and each attribute read."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_src_holds_only_what_the_tool_runs():
    """Every top-level function and class of ``src/rkstab`` is referenced
    from ``src/rkstab`` (outside ``__init__.py`` and outside its own
    definition) or from ``perfbench/``: as a name, or as a string in the
    wrap lists of ``perfbench/tracing.py``."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own is not None:
                defined[own] = path.name
            if path.name != "__init__.py":
                used |= names_in(top) - {own}
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        used |= names_in(tree)
        if path.name == "tracing.py":
            for top in tree.body:
                if isinstance(top, ast.Assign) and {t.id for t in top.targets} & {"FUNCTIONS", "METHODS"}:
                    used |= {n.value for n in ast.walk(top.value) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    unused = sorted(f"{defined[name]}:{name}" for name in defined.keys() - used)
    assert unused == [], f"defined in src/rkstab but used by no code of the tool: {unused}"
