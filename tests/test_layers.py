"""identities is a leaf layer: it checks the closed forms, and only the
command line reads its reports.  A module that imports it couples its own
checks to the identity report type, so this source check fails on one
(spectral once returned an identities report from its Wronskian check)."""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "mkdvlab"


def _imports_identities(source: str) -> bool:
    """Whether the module source imports mkdvlab's identities module, in
    any spelling, anywhere in the module (function bodies too)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name == "mkdvlab.identities" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level <= 1:
            # the absolute name of the module imported from
            parts = ["mkdvlab"] * node.level + [node.module or ""]
            origin = ".".join(p for p in parts if p)
            if origin == "mkdvlab.identities" or origin == "mkdvlab" and any(
                    a.name == "identities" for a in node.names):
                return True
    return False


def test_only_cli_imports_identities():
    users = sorted(path.name for path in _SRC.rglob("*.py")
                   if _imports_identities(path.read_text(encoding="utf-8")))
    assert users == ["cli.py"]


def test_the_check_sees_every_spelling():
    for source in ("from . import identities as ide",
                   "from . import closed_forms, identities",
                   "from .identities import ResidualReport",
                   "from mkdvlab import identities",
                   "from mkdvlab.identities import breather_samples",
                   "import mkdvlab.identities",
                   "def f():\n    from .identities import ResidualReport\n"):
        assert _imports_identities(source), source
    for source in ("from . import closed_forms as cf",
                   "from .functionals import Window",
                   "identities = None",
                   "from ..identities import x"):
        assert not _imports_identities(source), source
