"""cli._records owns the making of a record: it merges a suite's tag with
each row's params, builds the id, sets the pass flag and fails every row of
a run that stopped at a failed step.  A suite body that built its own
record, or wrote its own blow-up params, would carry its own copy of those
rules, so this source check fails on one: anywhere in cli.py outside
_records, a dict with a "pass" key, or a write of "t_blowup".

What _records reads is the suite's budget table and a run's returned
result, so two more checks hold cli.py to that: the budget of every row a
suite body hands to _records reads a tol[...] entry and holds no number of
its own, and no except clause names an exception of the evolution module
(a stopped run is part of what evolution.evolve returns)."""

import ast
from pathlib import Path

_CLI = Path(__file__).resolve().parents[1] / "src" / "mkdvlab" / "cli.py"
_RECORD_KEYS = ("pass", "t_blowup")


def _is_record_key(node) -> bool:
    return isinstance(node, ast.Constant) and node.value in _RECORD_KEYS


def _writes_record_key(node) -> bool:
    """A dict display with a record key, a keyword argument named one (as
    in params.update(t_blowup=...)), or a store to one by subscript."""
    if isinstance(node, ast.Dict):
        return any(_is_record_key(k) for k in node.keys)
    if isinstance(node, ast.keyword):
        return node.arg in _RECORD_KEYS
    return (isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store) and _is_record_key(node.slice))


def _writers(source: str) -> set:
    """The top-level functions and classes of source that write a record
    key; "<module>" for a statement outside them."""
    return {getattr(top, "name", "<module>")
            for top in ast.parse(source).body
            if any(_writes_record_key(node) for node in ast.walk(top))}


def test_only_records_makes_records():
    assert _writers(_CLI.read_text(encoding="utf-8")) == {"_records"}


def test_the_check_sees_the_writes_it_forbids():
    for line in ('rec = {"id": rid, "pass": True}',
                 'params = {**tag, "t_blowup": err.t}',
                 'params.update(t_blowup=err.t)',
                 'rec["pass"] = False'):
        assert _writers(f"def body(rec, params, err):\n    {line}\n") == {
            "body"}
    assert _writers('OK = {"pass": True}\n') == {"<module>"}
    # reading a record's flag is not making one
    assert _writers('def read(rec):\n    return rec["pass"]\n') == set()


# --------------------------------------------------------------------------
# budgets come from the suite's table


def _calls(node, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def _items(node) -> list:
    """The rows a list, tuple or comprehension display holds; any other
    expression stands for itself, and fails the check as no row tuple."""
    if isinstance(node, (ast.List, ast.Tuple)):
        return node.elts
    if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
        return [node.elt]
    return [node]


def _rows(body) -> list:
    """Every row that reaches _records in the function body: the items of a
    display handed to it, and for a name handed to it, the items assigned or
    added to that name, appended to it or extended by."""
    names, rows = set(), []
    for node in ast.walk(body):
        if _calls(node, "_records"):
            arg = node.args[1]
            if isinstance(arg, ast.Name):
                names.add(arg.id)
            else:
                rows.extend(_items(arg))
    for node in ast.walk(body):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in names
                for t in node.targets):
            rows.extend(_items(node.value))
        elif (isinstance(node, ast.AugAssign)
              and isinstance(node.target, ast.Name)
              and node.target.id in names):
            rows.extend(_items(node.value))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id in names):
            if node.func.attr == "append":
                rows.append(node.args[0])
            elif node.func.attr == "extend":
                rows.extend(_items(node.args[0]))
    return rows


def _from_table(budget) -> bool:
    """The budget reads a tol[...] entry and holds no numeric literal; a
    conditional budget is checked branch by branch."""
    if isinstance(budget, ast.IfExp):
        return _from_table(budget.body) and _from_table(budget.orelse)
    nodes = list(ast.walk(budget))
    return (any(isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)
                and n.value.id == "tol" for n in nodes)
            and not any(isinstance(n, ast.Constant)
                        and type(n.value) in (int, float, complex)
                        for n in nodes))


def _budgets(source: str) -> dict:
    """Suite body name -> (its row count, the rows, as source, that are not
    (record id, measured, budget[, params]) tuples with a budget from the
    table).  A suite body is a top-level function that calls _records."""
    out = {}
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and any(
                _calls(node, "_records") for node in ast.walk(top)):
            rows = _rows(top)
            out[top.name] = (len(rows), [
                ast.unparse(row) for row in rows
                if not (isinstance(row, ast.Tuple) and len(row.elts) in (3, 4)
                        and _from_table(row.elts[2]))])
    return out


def test_every_budget_comes_from_the_suite_table():
    budgets = _budgets(_CLI.read_text(encoding="utf-8"))
    assert set(budgets) == {"_verify_point", "_adjudication_records",
                            "_spectrum_point", "_evolve_point",
                            "_stability_point"}
    for name, (count, bad) in budgets.items():
        assert count >= 1 and bad == [], name


def test_the_check_sees_budgets_off_the_table():
    for line in ('rows.append(("x", m, 1e-3))',
                 'rows = [("x", m, tol["a"] * 2)]',
                 'rows.extend((f"x{k}", m, 0.5) for k in ks)',
                 'rows += [("x", m, budget)]',
                 'rows.append(("x", m, tol["a"] if k else 1e-5))',
                 'rows.append(row)'):
        source = f"def body(m, tol, ks, k, budget, row):\n    {line}\n" \
                 f"    return _records({{}}, rows)\n"
        assert _budgets(source) == {"body": (1, [ast.unparse(
            _rows(ast.parse(source).body[0])[0])])}, line
    # a literal handed to _records directly, and one in a comparison only
    assert _budgets('def body(m):\n    return _records({}, [("x", m, 0)])\n'
                    ) == {"body": (1, ["('x', m, 0)"])}
    assert _budgets('def body(m, tol, eta):\n    return _records({}, [('
                    '"x", m, tol["a"] * eta if eta > 0 else tol["b"])])\n'
                    ) == {"body": (1, [])}


# --------------------------------------------------------------------------
# a stopped run is a returned result, not an exception


def _dotted(node) -> list:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[::-1]


def _evolution_excepts(source: str) -> list:
    """The exception names, as source, of except clauses that name an
    exception of the evolution module: an attribute of the module under any
    name it is imported as, or a name imported from it."""
    tree = ast.parse(source)
    modules, names = {"evolution"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "evolution":
                names.update(a.asname or a.name for a in node.names)
            else:
                modules.update(a.asname or a.name for a in node.names
                               if a.name == "evolution")
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.asname
                           and a.name.split(".")[-1] == "evolution")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for kind in _items(node.type):
                parts = _dotted(kind)
                if (parts == [parts[0]] and parts[0] in names
                        or len(parts) > 1 and parts[-2] in modules):
                    found.append(ast.unparse(kind))
    return found


def test_no_except_names_an_evolution_exception():
    assert _evolution_excepts(_CLI.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_evolution_exception_caught():
    for imports, caught in (("from . import evolution as ev", "ev.BlowUpError"),
                            ("from .evolution import FitError", "FitError"),
                            ("import mkdvlab.evolution",
                             "mkdvlab.evolution.FitError"),
                            ("import mkdvlab.evolution as evo",
                             "evo.FitError")):
        source = (f"{imports}\ndef body():\n    try:\n        pass\n"
                  f"    except (ValueError, {caught}):\n        pass\n")
        assert _evolution_excepts(source) == [caught], imports
    # a builtin exception raised through the module is not one of its own
    assert _evolution_excepts(
        "from . import evolution as ev\ntry:\n    ev.step_count(1, 3)\n"
        "except ValueError:\n    pass\n") == []
