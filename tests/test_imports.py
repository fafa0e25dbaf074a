"""Package-structure guards: the modules import each other one way only,
every import is a module-level statement, run parameters have one home and
no module reads the process environment."""

import ast
import dataclasses
import graphlib
import importlib
import inspect
import pathlib

import pytest

import ganevo
from ganevo.experiment import RunConfig

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


def test_no_default_restates_a_run_parameter():
    """Only RunConfig gives run parameters their values: no other function or
    class of the package defaults a parameter or field named like one of its
    fields.  A None default ("not given, take the config's") is allowed."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    found = []
    for name in MODULES:
        module = importlib.import_module(f"ganevo.{name}" if name != "__init__" else "ganevo")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__ or obj is RunConfig:
                continue
            if inspect.isclass(obj):
                members = [getattr(obj, attr) for attr in vars(obj)]
                callables = [m for m in members if inspect.isfunction(m) or inspect.ismethod(m)]
            elif inspect.isfunction(obj):
                callables = [obj]
            else:
                continue
            for fn in callables:
                for param in inspect.signature(fn).parameters.values():
                    if (param.name in fields and param.default is not param.empty
                            and param.default is not None):
                        found.append(f"{module.__name__}.{fn.__qualname__}"
                                     f"({param.name}={param.default!r})")
    assert found == []


def test_no_module_reads_the_environment():
    """The config is a run's only input: no module of the package reads the
    process environment, which no checkpoint records."""
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for name in MODULES:
        for node in ast.walk(parse(name)):
            if (isinstance(node, ast.Attribute) and node.attr in readers
                    or isinstance(node, ast.ImportFrom)
                    and any(alias.name in readers for alias in node.names)):
                found.append(f"{name}.py:{node.lineno}")
    assert found == []
