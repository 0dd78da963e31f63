"""functionals.Window owns the window's Fourier calculus: the wavenumber
grid, the derivative multipliers with their Nyquist rule, and the H^s
weight.  A wavenumber grid built anywhere else in the package would carry
its own copy of those conventions, so this source check fails on one:
a call of fftfreq, or pi divided by a window's length."""

import re
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "mkdvlab"

# "np.pi / w.length", "2.0 * np.pi / self.window.length", "np.pi / (w.length)"
_PI_OVER_LENGTH = re.compile(r"np\.pi\s*/\s*\(?\s*[\w.]*\.length\b")


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_only_functionals_builds_wavenumber_grids():
    # "fftfreq" also matches "rfftfreq"
    users = sorted(path.relative_to(_SRC.parent).as_posix()
                   for path in _SRC.rglob("*.py")
                   if "fftfreq" in path.read_text(encoding="utf-8"))
    assert users == ["mkdvlab/functionals.py"]


def test_no_private_wavenumber_grid_from_the_window_length():
    found = [f"{path.name}:{i}: {line.strip()}"
             for path in sorted(_SRC.rglob("*.py"))
             if path.name != "functionals.py"
             for i, line in enumerate(_lines(path), start=1)
             if _PI_OVER_LENGTH.search(line)]
    assert found == []


def test_the_pattern_sees_the_grids_it_forbids():
    for line in ("k1 = 2.0 * np.pi / w.length",
                 "waves = np.arange(1, 9) * (2.0 * np.pi / w.length)",
                 "k = np.pi / self.window.length"):
        assert _PI_OVER_LENGTH.search(line)
    assert not _PI_OVER_LENGTH.search("k_nyq = np.pi / w.spacing")
