"""No coefficient table of the hierarchy is typed into the package:
closed_forms derives every flux and density from u, so a term list written
out in the source would be a second, unchecked copy.  This source check
fails on a term-list literal of more than two terms, (coefficient, factor
orders) pairs with a number and a tuple of ints, anywhere in src/mkdvlab.
The tables once transcribed are the test oracle in paper_tables.py."""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "mkdvlab"


def _is_number(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _is_orders(node):
    """(0, 0, 2), (0,) * 6, (0,) * 6 + (1, 1)."""
    if isinstance(node, ast.Tuple):
        return all(isinstance(e, ast.Constant) and type(e.value) is int
                   for e in node.elts)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _is_orders(node.left) and isinstance(node.right, ast.Constant)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _is_orders(node.left) and _is_orders(node.right)
    return False


def _is_term(node):
    return (isinstance(node, ast.Tuple) and len(node.elts) == 2
            and _is_number(node.elts[0]) and _is_orders(node.elts[1]))


def term_list_literals(source):
    """Line numbers of the term-list literals of more than two terms."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Tuple, ast.List)) and len(node.elts) > 2
            and all(map(_is_term, node.elts))]


def test_no_term_list_table_in_the_package():
    found = [f"{path.name}:{line}"
             for path in sorted(_SRC.rglob("*.py"))
             for line in term_list_literals(path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_check_sees_the_tables_it_forbids():
    for source in (
            'D = {"E5": ((0.5, (2, 2)), (-5.0, (0, 0, 1, 1)), (1.0, (0,) * 6))}',
            "F = [(22.0, (0, 0, 8)), (924.0, (0,) * 6 + (4,)), (252, (0,) * 11)]",
            "def f():\n    return ((1.0, (4,)), (-2.0, (0, 2)), (3.0, (0, 0, 0)))"):
        assert term_list_literals(source)
    for source in ("E = ((0.5, (1, 1)), (-0.5, (0, 0, 0, 0)))",
                   "T = ((1.0, (2,)), (-c, (0,)), (2.0, (0, 0, 0)))",
                   "V = ((1.0, 2, 0), (-3.0, 0, 2), (5.0, 1, 1))"):
        assert not term_list_literals(source)
