"""Names that only the benchmark's tracer and the tests call.

No function in ``src/fedsim`` calls them, apart from their own definitions,
so deleting them with their tracer entries leaves no caller in the package
to mend.
"""

import ast
import pathlib

import fedsim

UNCALLED = ("probabilities_at", "sample_active_set", "integrate_weighted_product",
            "gradient_fleet", "batch_for", "gradient", "train_loss", "global_gradient")


def _calls(node, caller="<module>"):
    """``(enclosing function name, call)`` for every call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield caller, child
        is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _calls(child, child.name if is_def else caller)


def test_no_fedsim_function_calls_the_names_only_the_tracer_keeps():
    found = []
    for path in sorted(pathlib.Path(fedsim.__file__).parent.glob("*.py")):
        for caller, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in UNCALLED and caller not in UNCALLED:
                found.append(f"{path.name}:{call.lineno}: {caller} calls {name}")
    assert not found
