"""Every public name is used by the package itself, not only by tests."""

import ast
import importlib.util
from pathlib import Path

import tcpfluid

ROOT = Path(__file__).resolve().parents[1]


class _References(ast.NodeVisitor):
    """Names loaded or attributes read, outside the definition of the same name."""

    def __init__(self):
        self.names: set[str] = set()
        self._defining: list[str] = []

    def _definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name: str):
        if name not in self._defining:
            self.names.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def referenced_names() -> set[str]:
    files = [p for p in (ROOT / "src" / "tcpfluid").glob("*.py") if p.name != "__init__.py"]
    refs = _References()
    for path in files:
        refs.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return refs.names


def test_every_public_name_is_used_outside_tests():
    unused = sorted(set(tcpfluid.__all__) - referenced_names())
    assert unused == [], f"public names only tests use: {unused}"


def public_definitions() -> dict[str, str]:
    """Public module-level functions, classes and constants -> their module."""
    defined = {}
    for path in (ROOT / "src" / "tcpfluid").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined.update((name, path.stem) for name in names if name[0] != "_")
    return defined


def test_every_public_definition_is_used_outside_tests():
    # A builder, helper or constant that only tests reach belongs in the tests.
    defined, used = public_definitions(), referenced_names()
    assert {"run_simulation", "SimState", "WORK_BUDGET", "FROZEN"} <= defined.keys()
    unused = sorted(f"{module}.{name}" for name, module in defined.items() if name not in used)
    assert unused == [], f"public definitions only tests use: {unused}"


def load_bench_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_bindings_resolve():
    # The traced benchmark run rebinds these names from outside the package;
    # a rename would break it with no package test failing.
    tracer = load_bench_tracer()
    for name, bindings in tracer.FUNCTIONS.items():
        for module, attr in bindings:
            assert callable(getattr(getattr(tcpfluid, module), attr, None)), (name, module, attr)
    for module, cls_name, attr in tracer.WRITERS:
        assert attr in getattr(getattr(tcpfluid, module), cls_name).__dict__, (cls_name, attr)
    for cls_name in tracer.WINDOW_CLASSES:
        assert "window" in getattr(tcpfluid.protocols, cls_name).__dict__, cls_name
