"""The benchmark's per-layer hooks name functions that the package still
has, and every other module-level function of the package has a caller in it."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "ness_sdp"

# Module-level functions that may have no caller in the package besides the hooks.
CALLER_ALLOWLIST = {
    # the exact steady state on a sector's subspace: the symmetry tests' reference
    ("oracle", "restricted_steady_state"),
}


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [target for target, _ in tracer.HOOKS]


@pytest.mark.parametrize("target", _hooks())
def test_hook_target_resolves_to_a_callable(target):
    # The tracer hooks a method on its own class only, and a missing hook
    # silently drops the metrics that read it.
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(f"ness_sdp.{module_name}")
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        found = vars(getattr(module, owner_name)).get(method)
    else:
        found = getattr(module, attr, None)
    assert callable(found), f"{target} does not resolve to a callable"


def _is_click_command(fn: ast.FunctionDef) -> bool:
    """Decorated by ``<group>.command(...)`` or ``<group>.group(...)``, as click wires it."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in fn.decorator_list)


def _references(tree: ast.Module) -> set[str]:
    """Every name, attribute or imported name read in ``tree``, each outside
    the body of the top-level def that it names."""
    found = set()
    for top in tree.body:
        own = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            names = ([node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else
                     [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else [])
            found.update(name for name in names if name != own)
    return found


def test_every_module_function_has_a_caller():
    # Code that nothing in the package calls is dead weight: a helper only
    # tests call, or one that repeats another, goes (a test builds what it
    # needs from the routine that stays).
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(_references, trees.values()))
    hooked = {tuple(target.split(":")) for target in _hooks() if "." not in target}
    dead = [f"{module}.{fn.name}" for module, tree in trees.items() for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name not in used
            and not _is_click_command(fn)
            and (module, fn.name) not in hooked | CALLER_ALLOWLIST]
    assert dead == []
