"""The benchmark harness in perfbench/ reaches into mkdvlab by name: its
tracer wraps the functions listed in tracer.LAYERS, and child.py rebinds
evolution.soliton_speed_run(order, n_points).  A rename or deletion of one
of them breaks a traced benchmark run with an AttributeError, so each name
is checked here."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from mkdvlab import cli, evolution

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_LAYERS = _tracer().LAYERS


@pytest.mark.parametrize("layer", sorted(_LAYERS))
def test_traced_functions_resolve(layer):
    mod = importlib.import_module(f"mkdvlab.{layer}")
    missing = [fn for fn in _LAYERS[layer]
               if not callable(getattr(mod, fn, None))]
    assert not missing, f"{layer} lacks {missing}"


def test_traced_jets_take_x():
    tracer = _tracer()
    for name in tracer.JETS:
        layer, fn = name.split(".")
        fn = getattr(importlib.import_module(f"mkdvlab.{layer}"), fn)
        assert "x" in inspect.signature(fn).parameters


def test_soliton_speed_run_signature():
    params = list(inspect.signature(evolution.soliton_speed_run).parameters)
    assert params[:2] == ["order", "n_points"]
    assert callable(cli.parse_config_file) and callable(cli.build_config)
