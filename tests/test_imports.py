"""Import-graph guard: the package's modules import each other one way only,
and every import is a module-level statement."""

import ast
import graphlib
import pathlib

import pytest

import ganevo

PACKAGE = pathlib.Path(ganevo.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def parse(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def package_imports(name):
    """Modules of this package that module `name` imports, anywhere in it."""
    found = set()
    for node in ast.walk(parse(name)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "ganevo":
                    found.add(rest.split(".")[0] or "__init__")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                base = node.module or ""
            elif node.level == 0 and (node.module or "").split(".")[0] == "ganevo":
                base = node.module.partition(".")[2]
            else:
                continue
            if base:
                found.add(base.split(".")[0])
            else:  # from . import name: a sibling module or a package attribute
                found |= {a.name if a.name in MODULES else "__init__" for a in node.names}
    found.discard(name)
    return found


def test_package_imports_form_no_cycle():
    graph = {name: package_imports(name) for name in MODULES}
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_at_module_level(name):
    tree = parse(name)
    top = {id(node) for node in tree.body}
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert nested == [], f"{name}.py imports inside a function or block at lines {nested}"
