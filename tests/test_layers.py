"""Source checks of the layering.  identities is a leaf layer: it checks
the closed forms, and only the command line reads its reports.  A module
that imports it couples its own checks to the identity report type, so a
check fails on one (spectral once returned an identities report from its
Wronskian check).  evolution does not import spectral, so that stability
loads evolution alone and never builds an operator."""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "mkdvlab"


def _imports(source: str, module: str) -> bool:
    """Whether the module source imports mkdvlab's `module`, in any
    spelling, anywhere in the module (function bodies too)."""
    full = f"mkdvlab.{module}"
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name == full for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level <= 1:
            # the absolute name of the module imported from
            parts = ["mkdvlab"] * node.level + [node.module or ""]
            origin = ".".join(p for p in parts if p)
            if origin == full or origin == "mkdvlab" and any(
                    a.name == module for a in node.names):
                return True
    return False


def test_only_cli_imports_identities():
    users = sorted(path.name for path in _SRC.rglob("*.py")
                   if _imports(path.read_text(encoding="utf-8"), "identities"))
    assert users == ["cli.py"]


def test_evolution_does_not_import_spectral():
    # the perturbation shapes B1 and LambdaBeta are complex steps of
    # closed_forms.breather_derivative, not spectral.directions
    source = (_SRC / "evolution.py").read_text(encoding="utf-8")
    assert not _imports(source, "spectral")
    assert _imports("def f():\n    from .spectral import directions\n",
                    "spectral")


def test_the_check_sees_every_spelling():
    for source in ("from . import identities as ide",
                   "from . import closed_forms, identities",
                   "from .identities import ResidualReport",
                   "from mkdvlab import identities",
                   "from mkdvlab.identities import breather_samples",
                   "import mkdvlab.identities",
                   "def f():\n    from .identities import ResidualReport\n"):
        assert _imports(source, "identities"), source
    for source in ("from . import closed_forms as cf",
                   "from .functionals import Window",
                   "identities = None",
                   "from ..identities import x"):
        assert not _imports(source, "identities"), source
