"""Source checks that need no import of the package."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "permll").glob("*.py"))


def module_bindings(tree: ast.Module) -> list[str]:
    """Names bound at module level by def, class or assignment, in order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_level_name_is_bound_twice(path):
    # a second def, class or assignment silently shadows the first
    names = module_bindings(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert [name for name, count in Counter(names).items() if count > 1] == []


def test_the_check_sees_a_shadowed_definition():
    tree = ast.parse("def f(): pass\nclass C: pass\nA, B = 1, 2\nf = 3\nC: int = 4\nB = A\nA += 1\n")
    assert [n for n, c in Counter(module_bindings(tree)).items() if c > 1] == ["f", "C", "B"]
