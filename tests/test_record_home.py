"""cli._records owns the making of a record: it merges a suite's tag with
each row's params, builds the id, sets the pass flag and fails every row of
a run that blew up.  A suite body that built its own record, or wrote its
own blow-up params, would carry its own copy of those rules, so this source
check fails on one: anywhere in cli.py outside _records, a dict with a
"pass" key, or a write of "t_blowup"."""

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
