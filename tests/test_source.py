"""Properties of the library source itself."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import switchdeck

SRC = Path(switchdeck.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "perfbench"


def test_library_has_no_assert_statements():
    """python -O drops assert statements, so no library check may be one."""
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_exported_name_exists_once():
    """A stale __all__ entry would break only `from switchdeck import *`."""
    names = switchdeck.__all__
    assert [n for n in names if not hasattr(switchdeck, n)] == []
    assert len(names) == len(set(names))


def test_library_has_no_unused_imports():
    """Every imported name is read in its module or listed in its __all__."""
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        used = _exported_names(tree) | {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported_names(tree).items() if name not in used]
    assert unused == []


def _called_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_error_class_is_raised_and_expected_by_a_test():
    """Each exception class but the base is raised somewhere in the library
    and named by some pytest.raises, so no dead class lingers in errors.py."""
    errors = ast.parse((SRC / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    classes.discard("SwitchDeckError")
    assert classes
    raised = {
        _called_name(node.exc)
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None
    }
    expected = {
        _called_name(name)
        for path in TESTS.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and _called_name(node) == "raises" and node.args
        for name in ast.walk(node.args[0])
    }
    assert sorted(classes - raised) == []
    assert sorted(classes - expected) == []


def test_every_error_class_past_the_general_ones_has_its_own_handler():
    """Each exception class but SwitchDeckError, OutOfRange and
    HypothesisUnmet is named in cli._EXIT_CODES or in an except clause of
    the library: a class that no caller tells apart from HypothesisUnmet
    belongs in HypothesisUnmet."""
    errors = ast.parse((SRC / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    classes -= {"SwitchDeckError", "OutOfRange", "HypothesisUnmet"}
    assert classes
    exit_codes = next(
        node.value for node in ast.parse((SRC / "cli.py").read_text()).body
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_EXIT_CODES"
            for target in node.targets))
    handled = {_called_name(node) for node in ast.walk(exit_codes)}
    handled |= {
        _called_name(name)
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        for name in ast.walk(node.type)
    }
    assert sorted(classes - handled) == []


def _literal(path: Path, name: str):
    """The literal value a module assigns to name, read without importing it."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def test_every_name_the_benchmark_reads_exists():
    """The benchmark wraps the functions and methods in its tracer's TARGETS
    and reads cache_info() of the canon functions in its metrics' CACHES, so
    a library change that drops one of those names fails here too."""
    targets = _literal(BENCH / "tracer.py", "TARGETS")
    caches = _literal(BENCH / "metrics.py", "CACHES")
    assert targets and caches
    missing = []
    for mod_name, path, _ in targets:
        owner = importlib.import_module(f"switchdeck.{mod_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and attr in vars(cls)
        else:
            found = callable(getattr(owner, path, None))
        if not found:
            missing.append(f"{mod_name}.{path}")
    canon = importlib.import_module("switchdeck.canon")
    missing += [f"canon.{attr}" for attr in caches.values()
                if not hasattr(getattr(canon, attr, None), "cache_info")]
    assert missing == []


def test_spaces_share_one_protocol_and_only_generic_kernel_spaces_carry_a_group():
    """Each space class implements the protocol the spaces docstring lists,
    and the group members the generic kernels read (actions, act_array,
    vertex_images) exist on exactly the classes that bind spaces.group_min
    or spaces.scan_reps."""
    from switchdeck import spaces
    from switchdeck.canon import OrientationSpace
    from switchdeck.digraph import from_arcs, underlying
    from switchdeck.generate import TournamentSpace

    protocol = ("n", "count", "scan_reps", "reps_array", "orbit_min_array", "digraph")
    group = ("actions", "act_array", "vertex_images")
    instances = [spaces.PathSpace(3), spaces.CycleSpace(4), spaces.CycleSpace(4, digons=True),
                 OrientationSpace(underlying(from_arcs(3, [(0, 1), (1, 2)]))),
                 TournamentSpace(3)]
    generic, grouped, lacking = set(), set(), []
    for space in instances:
        cls = type(space)
        lacking += [f"{cls.__name__}.{name}" for name in protocol if not hasattr(space, name)]
        if cls.orbit_min_array is spaces.group_min or cls.scan_reps is spaces.scan_reps:
            generic.add(cls.__name__)
        if any(hasattr(space, name) for name in group):
            grouped.add(cls.__name__)
    assert lacking == []
    assert generic == {"PathSpace", "OrientationSpace"}
    assert grouped == generic
