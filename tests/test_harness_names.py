"""The benchmark harness in perfbench/ reaches into mkdvlab by name: its
tracer wraps the functions listed in tracer.LAYERS, and child.py rebinds
evolution.soliton_speed_run(order, n_points).  A rename or deletion of one
of them breaks a traced benchmark run with an AttributeError, so each name
is checked here, as are the config keys the workloads write and the run
config fields that child.py and the tracer read."""

import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from mkdvlab import cli, evolution

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  _PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is being built
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


def _tracer():
    return _load("tracer")


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


_WORKLOADS = _load("workloads")


@pytest.mark.parametrize("name", sorted(_WORKLOADS.WORKLOADS))
def test_workload_configs_build(tmp_path, name):
    # every key a workload writes, seed included, is one its suite reads
    wl = _WORKLOADS.make(name, 1)
    path = tmp_path / "c.cfg"
    path.write_text(wl.config_text(), encoding="utf-8")
    cfg = cli.build_config(wl.command, cli.parse_config_file(str(path)),
                           str(tmp_path))
    assert cfg.values["seed"] == 1


def test_soliton_run_config_has_the_fields_the_harness_reads():
    # child.py shortens the run with dataclasses.replace(cfg, t_end=...) and
    # the tracer counts round(t_end / dt) steps per evolve call; evolve
    # raises unless the shortened horizon is a whole number of steps
    sp, cfg = evolution.soliton_speed_run(5, 256)
    short = dataclasses.replace(cfg, t_end=_WORKLOADS.EVOLVE_SOLITON_T_END)
    assert (short.t_end, short.dt) == (0.01, cfg.dt)
    assert evolution.step_count(short.t_end, short.dt) > 0


def test_verify_run_calls_run_variants_twice(tmp_path):
    # the per-layer metric identities.run_variants.calls counts verify's two
    # adjudications; one that bypassed the function would go uncounted
    path = tmp_path / "c.cfg"
    path.write_text("orders = 3\nalpha = 1.0\nbeta = 1.0\nc = 1.0\nt = 0.0\n",
                    encoding="utf-8")
    cfg = cli.build_config("verify", cli.parse_config_file(str(path)),
                           str(tmp_path))
    with _tracer().Tracer() as tracer:
        cli.run_suite(cfg)
    assert tracer.metrics()["identities.run_variants.calls"] == 2
