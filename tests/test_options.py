"""No dead options in the library: every defaulted parameter of a
module-level function in mkdvlab is set by at least one call in src/,
tests/ or perfbench/.  A default that no call overrides is a constant
under a parameter's name, and a reader has to look for the caller that
never comes; this source check fails on one.

Calls are matched by the function's bare name (`f(...)` or `mod.f(...)`),
so a call of another function of the same name also counts: the check can
miss a dead option, but never reports a live one."""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "mkdvlab"
_CALLERS = ("src", "tests", "perfbench")


def _trees(paths):
    return [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in paths]


def _defaulted(fn):
    """{parameter name: its position, or None if keyword-only} for each
    parameter of fn that has a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = {a.arg: i for i, a in enumerate(positional) if i >= first}
    out.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None})
    return out


def _options(trees):
    """(module, function, parameter, position) for each defaulted parameter
    of a module-level function."""
    return [(tree_name, fn.name, name, pos)
            for tree_name, tree in trees
            for fn in tree.body if isinstance(fn, ast.FunctionDef)
            for name, pos in _defaulted(fn).items()]


def _passes(call, name, pos):
    if any(k.arg in (name, None) for k in call.keywords):  # None: **kwargs
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return pos is not None
    return pos is not None and len(call.args) > pos


def _called_name(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def dead_options(modules, callers):
    """The defaulted parameters of the modules' (name, tree) pairs that no
    call in the caller trees passes, as "module.function(parameter)"."""
    calls = {}
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_called_name(node), []).append(node)
    return [f"{mod}.{fn}({name})" for mod, fn, name, pos in _options(modules)
            if not any(_passes(c, name, pos) for c in calls.get(fn, ()))]


def test_every_library_default_is_set_by_some_call():
    paths = sorted(_SRC.glob("*.py"))
    modules = list(zip((p.stem for p in paths), _trees(paths)))
    callers = _trees(path for top in _CALLERS
                     for path in sorted((_ROOT / top).rglob("*.py")))
    assert dead_options(modules, callers) == []


def test_the_check_sees_the_options_it_forbids():
    lib = ast.parse("def f(a, b=1, *, c=2, d=3):\n    pass\n"
                    "def g(x=0):\n    pass\n"
                    "def h(y=0):\n    pass\n"
                    "class K:\n    def m(self, z=0):\n        pass\n")
    use = ast.parse("f(0, 5)\nmod.f(0, d=4)\nh(*ys)\n")
    assert dead_options([("lib", lib)], [use]) == ["lib.f(c)", "lib.g(x)"]
