"""functionals sizes every window of the package: resolved_window for the
operator and the runs, default_window for the quadrature of the
functionals, both from one half-width rule.  A window constructed anywhere
else would carry its own hand-set size, so this source check fails on one:
a call of Window( outside functionals.py.  A window derived from a sized
one (dataclasses.replace, as the coercivity half grid and the moving frame
are) is not a construction."""

import re
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "mkdvlab"

# "Window(0.0, 26.0, n)", "fn.Window(", "functionals.Window (", not
# "SampledField(" or "class Window:"
_CONSTRUCTION = re.compile(r"(?<![\w])Window\s*\(")


def test_only_functionals_constructs_windows():
    found = [f"{path.name}:{i}: {line.strip()}"
             for path in sorted(_SRC.rglob("*.py"))
             if path.name != "functionals.py"
             for i, line in enumerate(path.read_text(
                 encoding="utf-8").splitlines(), start=1)
             if _CONSTRUCTION.search(line)]
    assert found == []


def test_the_pattern_sees_the_constructions_it_forbids():
    for line in ("window=Window(0.0, 30.0 / beta, n_points),",
                 "return Window(p.core(t), half, n_points)",
                 "w = fn.Window(0.0, 26.0, 1024)",
                 "w = functionals.Window (0.0, 10.0, 256)"):
        assert _CONSTRUCTION.search(line), line
    for line in ("def window_at(self, t: float) -> Window:",
                 "from .functionals import SampledField, Window",
                 "w2 = replace(w, n_points=w.n_points // 2)",
                 "class Window:",
                 "f = SampledField(w, values)",
                 "Window.derivative_multiplier(k)"):
        assert not _CONSTRUCTION.search(line), line
