"""Every public function of the kernel modules has a caller outside its module.

A wrapper that only tests call is API with no user: the numbers come from
the kernels behind it, so its tests check code the pipeline does not run.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curvewave"


def _named(path):
    """Every identifier a module names: variables, attributes, imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


@pytest.mark.parametrize("module", ["cylinder.py", "barrier1d.py", "spectrum.py"])
def test_public_functions_have_callers_outside_tests(module):
    tree = ast.parse((PACKAGE / module).read_text())
    public = [node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    others = [p for p in PACKAGE.glob("*.py") if p.name != module]
    others += sorted((ROOT / "perfbench").glob("*.py"))
    named = set().union(*(_named(p) for p in others))
    assert public
    assert [name for name in public if name not in named] == []
