"""One mkdvlab suite call in a fresh interpreter, timed from the inside.

    python3 perfbench/child.py SPEC_JSON SPAWN_TIME

SPAWN_TIME is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is system-wide, so setup_s runs from the spawn to
the moment `mkdvlab.cli` is imported and the config is built.  With
"mode": "setup" the process stops there.  Otherwise it makes one call of
`mkdvlab.cli.main`, optionally under the tracer, and writes its
measurements as JSON to spec["result"].

The host-speed sampler of calibrate.py runs through the setup and through
the suite call.  setup_s and run_s are the times at the nominal host
speed; setup_s_raw and run_s_raw are the wall times as measured.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time

from calibrate import Sampler, at_nominal


def _output_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _shorten_soliton_run(t_end: float, calls: list) -> list:
    """Rebind evolution.soliton_speed_run everywhere so the speed-law run
    stops at t_end; returns the undo list."""
    import dataclasses

    from mkdvlab import evolution
    from tracer import package_modules, rebind

    original = evolution.soliton_speed_run

    def shortened(order, n_points=1024):
        calls.append(order)
        sp, cfg = original(order, n_points)
        return sp, dataclasses.replace(cfg, t_end=t_end)

    return rebind(original, shortened, package_modules())


def main(spec_path: str, spawn_time: float) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sampler = Sampler()
    sampler.start()
    from mkdvlab import cli

    raw = cli.parse_config_file(spec["config"])
    cli.build_config(spec["command"], raw, spec["out"])
    setup_s = time.monotonic() - spawn_time
    window = sampler.stop()
    result = {"setup_s": at_nominal(setup_s, window), "setup_s_raw": setup_s,
              "setup_speed": window}

    if spec["mode"] == "run":
        import resource

        import numpy
        import scipy

        from tracer import Tracer, unbind

        hook_calls, tracer = [], None
        argv = [spec["command"], "--config", spec["config"],
                "--out", spec["out"]]
        with contextlib.ExitStack() as stack:
            if spec.get("soliton_t_end") is not None:
                stack.callback(unbind, _shorten_soliton_run(
                    spec["soliton_t_end"], hook_calls))
            if spec["trace"]:
                tracer = stack.enter_context(Tracer())
            sampler.start()
            start = time.monotonic()
            code = cli.main(argv)
            run_s = time.monotonic() - start
            window = sampler.stop()
        result.update(run_s=at_nominal(run_s, window, spec["speed_exponent"]),
                      run_speed=window)
        if spec.get("soliton_t_end") is not None and not hook_calls:
            result["error"] = "reduced-horizon hook was not reached"
        result.update({
            "exit_code": code,
            "run_s_raw": run_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "output_bytes": _output_bytes(spec["out"]),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        })
        if tracer is not None:
            result["layers"] = tracer.metrics(spec["spectrum_points"])

    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
