"""functionals.Window owns the window's Fourier calculus: the wavenumber
grid, the derivative multipliers with their Nyquist rule, and the H^s
weight.  A wavenumber grid built anywhere else in the package would carry
its own copy of those conventions, so this source check fails on one."""

from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "mkdvlab"


def test_only_functionals_builds_wavenumber_grids():
    # "fftfreq" also matches "rfftfreq"
    users = sorted(path.relative_to(_SRC.parent).as_posix()
                   for path in _SRC.rglob("*.py")
                   if "fftfreq" in path.read_text(encoding="utf-8"))
    assert users == ["mkdvlab/functionals.py"]
