"""Every genusforge name the benchmark under bench/ uses still resolves.

The benchmark's tracer wraps a fixed list of public callables, and its
workloads call the library through module aliases.  A removal that breaks
either shows up here, in the tier-1 suite, and not only in a benchmark run.
"""

import ast
import importlib
import importlib.util
import pathlib

import genusforge
import genusforge.catalog  # noqa: F401  (the tracer wraps catalog and cli too)
import genusforge.cli  # noqa: F401

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _chain(node):
    """['E', 'ExactSeries', 'eval'] for the attribute chain E.ExactSeries.eval, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    names.append(node.id)
    return names[::-1]


def _scope_names(scope):
    """(module, dotted attribute path) for every genusforge name a scope uses.

    A scope's imports bind aliases to genusforge modules or to names in them;
    every attribute chain rooted at such an alias is one use.
    """
    aliases = {}
    for node in ast.walk(scope):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name.startswith("genusforge.") and item.asname:
                    aliases[item.asname] = (item.name, ())
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("genusforge"):
            for item in node.names:
                aliases[item.asname or item.name] = (node.module, (item.name,))
    uses = set(aliases.values())
    for node in ast.walk(scope):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in aliases:
            module, path = aliases[chain[0]]
            uses.add((module, path + tuple(chain[1:])))
    return uses


def _bench_uses():
    uses = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                uses |= {(path.name,) + use for use in _scope_names(scope)}
    return sorted(uses)


def _resolve(module, path):
    obj = importlib.import_module(module)
    for name in path:
        try:
            obj = getattr(obj, name)
        except AttributeError:
            obj = importlib.import_module(f"{obj.__name__}.{name}")
    return obj


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    targets = tracer._targets(genusforge)
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, names, *_ in targets for name in names
               if not callable(getattr(owner, name, None))]
    assert missing == []


def test_bench_names_resolve():
    uses = _bench_uses()
    # the scan must see the calls of the three in-process workloads
    found = {(module, ".".join(path)) for _, module, path in uses}
    for want in (("genusforge.ktheory", "KClass.bundle"),
                 ("genusforge.ktheory", "witten_element"),
                 ("genusforge.genus", "subdirac_index"),
                 ("genusforge.equivariant", "evaluator"),
                 ("genusforge.equivariant", "jacobi_residual"),
                 ("genusforge.theta", "verify_transform"),
                 ("genusforge.theta", "theta_qseries")):
        assert want in found
    missing = []
    for source, module, path in uses:
        try:
            _resolve(module, path)
        except (AttributeError, ImportError):
            missing.append(f"{source}: {module}.{'.'.join(path)}")
    assert missing == []
