"""Config-driven command line front end with deterministic reports.

Four subcommands cover the laboratory's standing experiments:

    verify     closed-form identity and energy suite over an (order, alpha,
               beta) sweep, plus the two transcription adjudications
    spectrum   linearized-operator suite per (alpha, beta): eigenvalue
               counts, continuum edge, scaling-direction forms, B0
               relations, Wronskian, constrained coercivity
    evolve     reference propagation runs: breather fidelity in H^2,
               soliton speed law, conservation drifts
    stability  perturbed-breather experiments with modulation tracking

Each subcommand reads only the config keys listed in its table (SUITES),
each set by one name in the config file: a key it does not read, a value
outside its domain, an empty or repeating sweep list, or a run whose t_end
is not a whole number of its steps is a config error.  A suite loads its
library, the modules its tasks run (identities, spectral, evolution, as
SUITES names them), when its config is built, and loads no other suite's.
One driver (run_suite) expands the sweep into an ordered task list,
dispatches the tasks (sequentially by default; set MKDVLAB_WORKERS > 1 for
a process pool; a value that is not an integer >= 1 is a config error),
and assembles report.json, which echoes each key read under the name that
sets it, plus per-run artifacts: JSON summaries, and the snapshot fields
of each evolve run as one .npy array.
A stability task is one (order, shape), so the pool splits the shapes.
A check is one row, (record id, measured, budget[, params]), in its suite's
task body; _records makes its record, failed if its run stopped at a failed
step.  Each budget is a program constant in the suite's table (Suite.tol),
and every record carries its budget; no config key changes one.
Reports carry no timestamps, keys are sorted, and floats are printed at 17
significant digits, so rerunning a config reproduces the bytes exactly.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
config error, 3 internal failure.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import io
import itertools
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from . import closed_forms as cf
from .functionals import (REDUCTION_FACTORS, SampledField, closed_form_energy,
                          energy_reduction, functional,
                          higher_energy_conjecture, resolved_window,
                          sample_breather, sample_soliton, sobolev_norm,
                          term_scale)

class ConfigError(ValueError):
    """Bad config file, bad key, unusable output directory, or bad
    MKDVLAB_WORKERS."""


# --------------------------------------------------------------------------
# deterministic serialization
#
# json.dumps almost works, but its float repr is the shortest roundtrip
# form, which couples report bytes to the exact repr algorithm.  Pinning
# 17 significant digits keeps reports byte-identical across runs and
# platforms, so the writer is spelled out here.

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(float(x), ".17g")


def _dump(obj, indent: int = 0) -> str:
    # the exact built-in types of nearly every value first; numpy scalars,
    # bools, None and subclasses take the isinstance chain
    kind = type(obj)
    if kind is float:
        return format(obj, ".17g") if math.isfinite(obj) else "null"
    if kind is str:
        return _quote(obj)
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_dump(obj[k], indent + 1)}'
                 for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_dump(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return _quote(str(obj))


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def dump_json(obj) -> str:
    return _dump(obj) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v))
    return str(v)


def dump_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# configuration
#
# Each suite's table (SUITES, below the suite bodies) lists the config keys
# the suite reads.  build_config parses and checks the values against it,
# RunConfig.echo writes them back into report.json, and run_suite expands
# them into tasks; any key outside the table is a ConfigError.

def _real(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"{text!r} is not finite")
    return v


@dataclass(frozen=True)
class Key:
    """One config key a suite reads.

    A tuple default marks a comma-separated list, which must hold at least
    one value and no value twice.  rule is (predicate, what it asks), or a
    function that returns it where it reads a table of the suite's library,
    and applies to each value.  A list with `each` set gives the suite one
    task per value, under that name; the others reach every task whole.
    """

    cast: object
    default: object
    rule: object = None
    each: str | None = None


def _one_of(options: tuple) -> tuple:
    return (lambda v: v in options), f"be one of {', '.join(map(str, options))}"


def _one_of_evolution(table: str) -> object:
    """Rule: one of evolution's `table`.  It is built when a value is
    checked, once build_config has loaded evolution, and not at import."""
    def rule():
        from . import evolution as ev
        return _one_of(getattr(ev, table))
    return rule


_POSITIVE = (lambda v: v > 0, "be positive")
_NONNEGATIVE = (lambda v: v >= 0, "be nonnegative")


@dataclass(frozen=True)
class RunConfig:
    command: str
    values: dict       # config key -> value, for every key the suite reads
    out_dir: str
    workers: int       # MKDVLAB_WORKERS; reports do not depend on it

    def echo(self) -> dict:
        out = {k: list(v) if isinstance(v, tuple) else v
               for k, v in self.values.items()}
        out["command"] = self.command
        return out


def parse_config_file(path: str) -> dict:
    """Flat key = value lines; # comments; comma-separated lists."""
    raw = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = body.partition("=")
        key, val = key.strip(), val.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = val
    return raw


def _convert(command: str, name: str, key: Key, text: str):
    many = isinstance(key.default, tuple)
    try:
        vals = tuple(key.cast(s.strip()) for s in text.split(",")
                     if s.strip()) if many else (key.cast(text),)
    except ValueError as e:
        raise ConfigError(f"{command}: bad value for {name!r}: {e}") from None
    if not vals:
        raise ConfigError(f"{command}: {name} must list at least one value")
    if len(set(vals)) < len(vals):
        raise ConfigError(f"{command}: {name} repeats a value: {text}")
    if key.rule is not None:
        ok, asks = key.rule() if callable(key.rule) else key.rule
        bad = [v for v in vals if not ok(v)]
        if bad:
            raise ConfigError(f"{command}: {name} must {asks}, "
                              f"got {', '.join(map(str, bad))}")
    return vals if many else vals[0]


def build_config(command: str, raw: dict, out_dir: str) -> RunConfig:
    if command not in SUITES:
        raise ConfigError(f"unknown command {command!r}")
    suite = SUITES[command]
    for name in suite.library:
        importlib.import_module(f".{name}", __package__)
    values = {k: key.default for k, key in suite.keys.items()}
    for k, text in raw.items():
        if k == "command":
            if text != command:
                raise ConfigError(
                    f"config says command = {text!r}, invoked {command!r}")
        elif k in suite.keys:
            values[k] = _convert(command, k, suite.keys[k], text)
        else:
            raise ConfigError(f"{command} does not read config key {k!r}; "
                              f"it reads {', '.join(['command', *suite.keys])}")
    suite.check(values)
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output directory does not exist: {out_dir}")
    return RunConfig(command, values, out_dir, _workers())


def _workers() -> int:
    """The task pool size MKDVLAB_WORKERS sets; unset is 1, sequential."""
    text = os.environ.get("MKDVLAB_WORKERS", "1")
    if text.strip().isdecimal() and int(text) >= 1:
        return int(text)
    raise ConfigError(f"MKDVLAB_WORKERS must be an integer >= 1, got {text!r}")


# --------------------------------------------------------------------------
# report assembly

# solver counts a record may carry in its params; the summary totals them
_WORK_KEYS = ("krylov_solves", "gmres_iterations")


@dataclass(frozen=True)
class SuiteReport:
    command: str
    records: tuple
    config_echo: dict

    def __post_init__(self):
        for rec in self.records:
            if rec["pass"] != (rec["measured"] <= rec["budget"]):
                raise ValueError("pass flag inconsistent with budget")

    @property
    def summary(self) -> dict:
        """Record counts, and the total of each solver count that records
        carry in their params: one record per evolve or stability run."""
        passed = sum(1 for r in self.records if r["pass"])
        out = {"total": len(self.records), "passed": passed,
               "failed": len(self.records) - passed}
        for key in _WORK_KEYS:
            counts = [r["params"][key] for r in self.records
                      if key in r["params"]]
            if counts:
                out[key] = sum(counts)
        return out

    @property
    def all_passed(self) -> bool:
        return all(r["pass"] for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "tool_version": __version__,
            "config": self.config_echo,
            "summary": self.summary,
            "records": list(self.records),
        }


_SLUG_KEYS = ("order", "alpha", "beta", "c", "t", "shape", "eta", "dt")


def _short(x: float) -> str:
    """x at %g where that reads back as x, else its repr, so that close
    float values keep distinct record ids and artifact names."""
    return f"{x:g}" if float(f"{x:g}") == x else repr(float(x))


def _slug(key: str, value) -> str:
    return f"{key}={_short(value) if isinstance(value, float) else value}"


def _records(tag: dict, rows, stop=None) -> list:
    """One record per (record id, measured, budget[, params]) row, its params
    the tag's and the row's.  The sweep coordinates among them join the id,
    so every record line is unique.  Given stop, the (t, residual) of the
    failed step that stopped the run (evolution.Run.stop), every row fails
    and says when and how."""
    stopped = {} if stop is None else {"t_blowup": stop[0],
                                       "newton_residual": stop[1]}
    recs = []
    for rid, measured, budget, *extra in rows:
        params = {**tag, **dict(*extra), **stopped}
        coords = ",".join(_slug(k, params[k]) for k in _SLUG_KEYS
                          if k in params)
        measured = math.inf if stopped else float(measured)
        recs.append({"id": f"{rid}[{coords}]" if coords else rid,
                     "params": params, "measured": measured,
                     "budget": float(budget),
                     "pass": bool(measured <= budget)})
    return recs


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


# --------------------------------------------------------------------------
# verify
#
# Three of a point's checks do not depend on all of its coordinates, so each
# is computed once per run_suite call (the suite's memos are cleared when it
# returns).  They hold numbers only: a field would outlive its task.

@functools.lru_cache(maxsize=None)
def _breather_ode_at_rest(alpha: float, beta: float) -> float:
    """The t = 0 breather ODE residual.  The stationary equation is the same
    at every order and the velocities enter the jet only as velocity * t, so
    at t = 0 the samples and the jet, and so the residual, are bitwise those
    of every order."""
    from . import identities as ide
    p = cf.BreatherParams(cf.ORDERS[0], alpha, beta)
    return ide.breather_ode_residual(p, 0.0).normalized


@functools.lru_cache(maxsize=None)
def _energies_at_rest(alpha: float, beta: float) -> dict:
    """M, E, E5, E7 and E9 of the t = 0 breather, each with its term_scale,
    whose samples are bitwise those of every order (see
    _breather_ode_at_rest): one sample per (alpha, beta) serves every
    order's energy checks."""
    p = cf.BreatherParams(cf.ORDERS[0], alpha, beta)
    f = sample_breather(p, 0.0)
    return {kind: (functional(f, kind), term_scale(f, kind))
            for kind in ("M", "E", "E5", "E7", "E9")}


@functools.lru_cache(maxsize=None)
def _soliton_ode(order: int, c: float, level: str) -> float:
    """The soliton ODE residual, which no breather parameter enters."""
    from . import identities as ide
    return ide.soliton_ode_residual(cf.SolitonParams(order, c),
                                    level).normalized


def _verify_point(task: dict) -> tuple:
    from . import identities as ide
    order, a, b = task["order"], task["alpha"], task["beta"]
    tol = task["tol"]
    p = cf.BreatherParams(order, a, b)
    # one sample of the breather at CHECK_T serves every check there; it
    # lives for this task only
    at_check = ide.check_sample(p)
    rows = []
    for t in task["t"]:
        if t == 0.0:
            measured = _breather_ode_at_rest(a, b)
        else:
            sample = at_check if t == ide.CHECK_T else None
            measured = ide.breather_ode_residual(p, t,
                                                 sample=sample).normalized
        rows.append(("breather_ode", measured, tol["breather_ode"], {"t": t}))
    rep = ide.evolution_identity_residual(p, sample=at_check)
    rows.append(("evolution_identity", rep.normalized, tol["identity"]))
    for orders, residual in ((ide.LEMMA21_ORDERS, ide.lemma21_residual),
                             (ide.LEMMA23_ORDERS, ide.lemma23_residual),
                             (ide.COROLLARY_ORDERS, ide.corollary_residual)):
        if order in orders:
            rep = residual(p, sample=at_check)
            rows.append((rep.identity_id, rep.normalized, tol["identity"]))
    reduced = order in REDUCTION_FACTORS
    kinds = ["M", "E"] + ([cf.energy_kind(order)] if reduced else [])
    at_rest = _energies_at_rest(a, b)
    for kind in kinds:
        value, scale = at_rest[kind]
        rows.append((f"energy_{kind}",
                     abs(value - closed_form_energy(kind, a, b)) / scale,
                     tol["energy"]))
    if reduced:
        e, red = energy_reduction(order, a, b, t=0.2)
        rows.append((f"reduction_E{order}", _rel(e, red), tol["reduction"]))
        conj, lemma, scale = higher_energy_conjecture(order, a, b)
        # the two columns anti-align; their sum is the reconciled check
        rows.append((f"conjecture_sign_E{order}", abs(conj + lemma) / scale,
                     tol["energy"]))
    if order != 11:
        rows.extend((f"soliton_ode_{level}", _soliton_ode(order, c, level),
                     tol["soliton_ode"], {"c": c})
                    for c in task["c"] for level in ("2nd", "high"))
    return _records({"order": order, "alpha": a, "beta": b}, rows), ()


def _adjudication_records(tol: dict) -> list:
    """One record per contested transcription: measured is the distance of
    the passing-variant count from one, variant residuals ride in params."""
    from . import identities as ide
    rows = []
    for label, reports in (("delta9", ide.adjudicate_delta9()),
                           ("firstmkdv", ide.adjudicate_firstmkdv())):
        residuals = {rep.variant: rep.normalized for rep in reports}
        passing = sum(1 for r in residuals.values() if r <= tol["identity"])
        rows.append((f"adjudicate_{label}", abs(passing - 1), tol["unique"],
                     residuals))
    return _records({}, rows)


# --------------------------------------------------------------------------
# spectrum

def _spectrum_point(task: dict) -> tuple:
    from . import spectral as spc
    a, b = task["alpha"], task["beta"]
    tol = task["tol"]
    p = cf.BreatherParams(5, a, b)
    w = resolved_window(p, 0.0, task["window_n"] or 1024)
    opr = spc.build_operator(p, 0.0, w)
    summary = spc.spectrum(opr)
    dirs = spc.directions(p, 0.0, w)
    edge = spc.continuum_edge(a, b)
    target = 16.0 * a**2 * b
    qa = w.quad(dirs.lambda_alpha * opr.apply(dirs.lambda_alpha))
    qb = w.quad(dirs.lambda_beta * opr.apply(dirs.lambda_beta))
    lhs1, lhs2, b0_resid = spc.b0_relations(p, 0.0, opr, dirs)
    b0_want = 1.0 / (4.0 * b * (a**2 + b**2))
    # sampled around the envelope centre at the time of the check
    t_w = 0.37
    rng = np.random.default_rng(task["seed"])
    xs = p.core(t_w) + rng.uniform(-6.0 / b, 6.0 / b, size=200)
    nu0 = spc.coercivity(opr, dirs, summary.lowest_vector)
    w2 = replace(w, n_points=w.n_points // 2)
    opr2 = spc.build_operator(p, 0.0, w2)
    nu0_2 = spc.coercivity(opr2, spc.directions(p, 0.0, w2),
                           spc.lowest_vector(opr2))
    rows = [
        ("negative_count", abs(len(summary.negative_eigenvalues) - 1),
         tol["counts"]),
        ("kernel_dimension", abs(summary.kernel_dimension - 2), tol["counts"]),
        ("continuum_edge", abs(summary.continuum_edge_estimate - edge) / edge,
         tol["edge"]),
        ("form_lambda_alpha", abs(qa - target) / target, tol["form"]),
        ("form_lambda_beta", abs(qb + target) / target, tol["form"]),
        ("b0_mass", abs(lhs1 - b0_want) / b0_want, tol["b0"]),
        ("b0_quadratic", abs(lhs2 + 0.5 * b0_want) / b0_want, tol["b0"]),
        ("b0_inversion", b0_resid, tol["b0"]),
        ("wronskian", spc.wronskian_check(p, t_w, xs), tol["wronskian"]),
        ("coercivity_positive", max(0.0, -nu0), tol["coercivity"],
         {"nu0": nu0}),
        ("coercivity_spread", abs(nu0 - nu0_2), tol["spread"],
         {"nu0_half": nu0_2}),
    ]
    name = f"spectrum_a{_short(a)}_b{_short(b)}.json"
    return (_records({"alpha": a, "beta": b, "n": w.n_points}, rows),
            ((name, dump_json(summary.to_json_dict())),))


# --------------------------------------------------------------------------
# evolve

def _trajectory_artifacts(prefix: str, traj) -> list:
    """fields.npy, the snapshots' values as the rows of one float64 array
    (exact, and byte-deterministic), and manifest.json, each snapshot's
    row, time, window, functionals, solver work and spectral tail."""
    fields = io.BytesIO()
    np.save(fields, np.stack([snap.field.values for snap in traj]),
            allow_pickle=False)
    manifest = {
        "values_file": "fields.npy",
        "snapshots": [
            {"t": snap.t, "row": i, "tail": snap.tail,
             "window": {"center": snap.field.window.center,
                        "half_width": snap.field.window.half_width,
                        "n_points": snap.field.window.n_points},
             "functionals": dict(snap.functionals),
             "krylov_solves": snap.krylov_solves,
             "gmres_iterations": snap.gmres_iterations}
            for i, snap in enumerate(traj)
        ],
    }
    return [(f"{prefix}/fields.npy", fields.getvalue()),
            (f"{prefix}/manifest.json", dump_json(manifest))]


def measure_soliton_speed(sp_: cf.SolitonParams, scfg) -> tuple:
    """(error in cells, params: v_measured, v_law, the run's work and
    step_error, the run's stop) of a soliton run.  A run that stopped has no
    final field: its params hold only its work and step_error, and its error
    is None.

    Speed comes from the circular cross-correlation of the final field
    against the initial one, with parabolic sub-cell refinement of the
    correlation peak.
    """
    from . import evolution as ev
    s0 = sample_soliton(sp_, 0.0, scfg.window, m=0)
    run = ev.evolve(s0, scfg, monitors=(),
                    snapshot_every=ev.step_count(scfg.t_end, scfg.dt))
    work = {**dict(zip(_WORK_KEYS, run.work)), "step_error": run.step_error}
    if run.stop is not None:
        return None, work, run.stop
    a0, aT = run.snapshots[0].field.values, run.snapshots[-1].field.values
    corr = np.fft.irfft(np.fft.rfft(aT) * np.conj(np.fft.rfft(a0)),
                        n=len(a0))
    i = int(np.argmax(corr))
    ym, y0, yp = corr[i - 1], corr[i], corr[(i + 1) % len(corr)]
    shift = i + 0.5 * (ym - yp) / (ym - 2.0 * y0 + yp)
    if shift > len(corr) / 2:
        shift -= len(corr)
    v_meas = scfg.frame_speed + shift * scfg.window.spacing / scfg.t_end
    v_law = cf.soliton_speed(sp_.order, sp_.c)
    cells = abs(v_meas - v_law) * scfg.t_end / scfg.window.spacing
    return cells, {"v_measured": v_meas, "v_law": v_law, **work}, None


def _at_dt(cfg_run, dt):
    """The run at the configured time step; None keeps the shipped one."""
    return cfg_run if dt is None else replace(cfg_run, dt=dt)


def _require_whole_steps(command: str, what: str, cfg_run) -> None:
    """ConfigError unless the run's t_end is a whole number of its steps."""
    from . import evolution as ev
    try:
        ev.step_count(cfg_run.t_end, cfg_run.dt)
    except ValueError as e:
        raise ConfigError(f"{command}: the {what} run's {e}") from None


def _check_evolve_steps(values: dict) -> None:
    from . import evolution as ev
    # the shipped runs' time steps divide their horizons
    if values["dt"] is None:
        return
    for order in values["orders"]:
        runs = (("breather fidelity", ev.breather_fidelity_config(order)),
                ("soliton speed", ev.soliton_speed_run(order)[1]))
        for what, cfg_run in runs:
            _require_whole_steps("evolve", what,
                                 replace(cfg_run, dt=values["dt"]))


def _evolve_point(task: dict) -> tuple:
    from . import evolution as ev
    order = task["order"]
    tol = task["tol"]
    tag = {"order": order}

    p = cf.BreatherParams(order, *ev.RUN_ALPHA_BETA)
    cfg_run = _at_dt(ev.breather_fidelity_config(order), task["dt"])
    monitors = ("M", "E", cf.energy_kind(order))
    run = ev.evolve(sample_breather(p, 0.0, cfg_run.window, m=0), cfg_run,
                    monitors=monitors)
    # a run that stopped is measured up to its last snapshot; _records fails
    # its rows
    traj = run.snapshots
    last = traj[-1]
    ref = sample_breather(p, last.t, last.field.window, m=0)
    err = SampledField(last.field.window, last.field.values - ref.values)
    rows = [("breather_h2", sobolev_norm(err, 2), tol["h2"],
             {"t_end": cfg_run.t_end, "dt": cfg_run.dt,
              "frame_speed": cfg_run.frame_speed,
              **dict(zip(_WORK_KEYS, run.work)),
              "step_error": run.step_error})]
    rows.extend((f"drift_{kind}", drift, tol["drift"])
                for kind, drift in sorted(ev.functional_drifts(traj).items()))
    recs = _records(tag, rows, run.stop)

    sp_, scfg = ev.soliton_speed_run(order)
    scfg = _at_dt(scfg, task["dt"])
    cells, speed, stop = measure_soliton_speed(sp_, scfg)
    recs += _records(tag, [("soliton_speed", cells, tol["speed_cells"],
                            {"c": sp_.c, "dt": scfg.dt, **speed})], stop)
    return recs, _trajectory_artifacts(f"evolve_order{order}", traj)


# --------------------------------------------------------------------------
# stability

def _check_stability_steps(values: dict) -> None:
    from . import evolution as ev
    for order in values["orders"]:
        cfg_run = ev.stability_run_config(order, t_end=values["t_end"])
        _require_whole_steps("stability", f"order-{order}",
                             _at_dt(cfg_run, values["dt"]))


def _stability_point(task: dict) -> tuple:
    from . import evolution as ev
    order, shape, eta = task["order"], task["shape"], task["eta"]
    tol = task["tol"]
    p = cf.BreatherParams(order, *ev.RUN_ALPHA_BETA)
    cfg_run = _at_dt(ev.stability_run_config(order, t_end=task["t_end"]),
                     task["dt"])
    report = ev.stability_experiment(p, eta, shape, cfg_run,
                                     seed=task["seed"])
    tag = {"order": order, "shape": shape, "eta": eta,
           "t_end": cfg_run.t_end, "dt": cfg_run.dt}
    # the run's solver work and step_error go on its one sup_distance
    # record, so the summary counts each run once
    rows = [("sup_distance", report.sup_distance,
             tol["sup_factor"] * eta if eta > 0 else tol["floor"],
             {key: getattr(report, key)
              for key in _WORK_KEYS + ("step_error",)})]
    if eta > 0:
        rows.append(("max_phase_speed", report.max_phase_speed,
                     tol["quotient_factor"] * eta))
    name = f"stability_order{order}_{shape}_eta{_short(eta)}.json"
    return (_records(tag, rows, report.stop),
            ((name, dump_json(report.to_json_dict())),))


# --------------------------------------------------------------------------
# the suites: the keys each one reads, its budgets, and its task body

@dataclass(frozen=True)
class Suite:
    point: object        # task dict -> (records, artifacts)
    keys: dict           # config key -> Key, for every key the suite reads
    tol: dict            # budget name -> budget, a program constant that no
                         # config sets; each record carries its own
    library: tuple       # the modules the tasks run, loaded by build_config
    tail: object = None  # tol -> records that follow the tasks'
    check: object = lambda values: None  # values -> None or ConfigError
    memos: tuple = ()    # lru_cache'd helpers, cleared when run_suite returns


def _orders(default: tuple, rule) -> Key:
    return Key(int, default, rule, each="order")


_ALPHA = Key(_real, (0.5, 1.0, 2.0), _POSITIVE, each="alpha")
_BETA = Key(_real, (0.5, 1.0, 2.0), _POSITIVE, each="beta")
_DT = Key(_real, None, _POSITIVE)  # None: the shipped run's time step
_SEED = Key(int, 0, _NONNEGATIVE)

SUITES = {
    "verify": Suite(_verify_point, {
        "orders": _orders((3, 5, 7, 9, 11), _one_of(cf.ORDERS)),
        "alpha": _ALPHA,
        "beta": _BETA,
        "c": Key(_real, (0.25, 1.0, 4.0), _POSITIVE),
        "t": Key(_real, (0.0, 0.37, 1.1)),
        "seed": _SEED,
    }, {"breather_ode": 1e-8, "soliton_ode": 1e-9, "identity": 1e-7,
        # 64 ulps of the summed size of the terms (functionals.term_scale,
        # the scale of higher_energy_conjecture): room for the rounding of
        # products of up to 10 jet factors and of a 2048-point sum, which
        # measured at most 2.6 ulps on the 0.25-step grid of [0.5, 2]^2
        "energy": 64 * 2.0**-52, "reduction": 1e-7, "unique": 0.5},
        library=("identities",), tail=_adjudication_records,
        memos=(_breather_ode_at_rest, _energies_at_rest, _soliton_ode)),
    "spectrum": Suite(_spectrum_point, {
        "alpha": _ALPHA,
        "beta": _BETA,
        # the coercivity spread check runs the half grid, which must itself
        # satisfy the sampling floor of 256 points
        "window_n": Key(int, None, (lambda n: n >= 512 and (n & (n - 1)) == 0,
                                    "be a power of two >= 512")),
        "seed": _SEED,
    }, {"counts": 0.5, "edge": 0.02, "form": 1e-4, "b0": 1e-4,
        "wronskian": 1e-8, "coercivity": 1e-12, "spread": 1e-5},
        library=("spectral",)),
    "evolve": Suite(_evolve_point, {
        "orders": _orders((5, 7, 9), _one_of_evolution("EVOLVE_ORDERS")),
        "dt": _DT,
        "seed": _SEED,
    }, {"h2": 1e-5, "drift": 1e-7, "speed_cells": 1.0},
        library=("evolution",), check=_check_evolve_steps),
    "stability": Suite(_stability_point, {
        "orders": _orders((5,), _one_of_evolution("STABILITY_ORDERS")),
        "shapes": Key(str, ("gaussian", "B1", "LambdaBeta"),
                      _one_of_evolution("PERTURBATION_SHAPES"), each="shape"),
        "eta": Key(_real, 1e-2, (lambda v: 0.0 <= v <= 0.1,
                                   "lie in [0, 0.1]")),
        # t_end = 0 takes no step, and its checks would pass vacuously
        "t_end": Key(_real, 5.0, _POSITIVE),
        "dt": _DT,
        "seed": _SEED,
    }, {"sup_factor": 10.0, "quotient_factor": 10.0, "floor": 1e-5},
        library=("evolution",), check=_check_stability_steps),
}


def run_suite(cfg: RunConfig) -> SuiteReport:
    """Run one task per combination of the swept lists' values, in table
    order, write the tasks' artifacts and report their records.  Each
    finished task prints a progress line to stderr: the suite, i/N, the
    swept values and the task's wall time."""
    suite = SUITES[cfg.command]
    swept = [k for k, key in suite.keys.items() if key.each]
    names = [suite.keys[k].each for k in swept]
    whole = {k: v for k, v in cfg.values.items() if k not in swept}
    tasks = [{**whole, **dict(zip(names, vals)), "tol": suite.tol}
             for vals in itertools.product(*(cfg.values[k] for k in swept))]
    records, artifacts = [], []
    try:
        for i, (task, (recs, arts), secs) in enumerate(
                _dispatch(suite.point, tasks, cfg.workers), start=1):
            coords = " ".join(_slug(k, task[k]) for k in names)
            print(f"{cfg.command} {i}/{len(tasks)} {coords} {secs:.3f} s",
                  file=sys.stderr)
            records.extend(recs)
            artifacts.extend(arts)
    finally:
        for memo in suite.memos:
            memo.cache_clear()
    if suite.tail is not None:
        records.extend(suite.tail(suite.tol))
    _write_artifacts(cfg.out_dir, artifacts)
    return SuiteReport(cfg.command, tuple(records), cfg.echo())


# --------------------------------------------------------------------------
# dispatch and output

def _timed(fn, task: dict) -> tuple:
    start = time.perf_counter()
    out = fn(task)
    return out, time.perf_counter() - start


def _dispatch(fn, tasks: list, workers: int):
    """Yield (task, fn(task), seconds) in task order as the tasks finish."""
    timed = functools.partial(_timed, fn)
    if workers > 1 and len(tasks) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(workers, len(tasks))) as pool:
            for task, (out, secs) in zip(tasks, pool.imap(timed, tasks)):
                yield task, out, secs
        return
    for task in tasks:
        yield task, *timed(task)


def _write_artifacts(out_dir: str, artifacts) -> None:
    """Write each (relative path, str or bytes) artifact; str as UTF-8."""
    for relpath, data in artifacts:
        path = os.path.join(out_dir, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)


def write_report(report: SuiteReport, out_dir: str) -> None:
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8",
              newline="") as fh:
        fh.write(dump_json(report.to_json_dict()))
    rows = [(r["id"], r["measured"], r["budget"], r["pass"])
            for r in report.records]
    with open(os.path.join(out_dir, "records.csv"), "w", encoding="utf-8",
              newline="") as fh:
        fh.write(dump_csv(("id", "measured", "budget", "pass"), rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mkdvlab",
        description="identity, spectral, evolution and stability suites "
                    "with deterministic reports")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUITES:
        q = sub.add_parser(name)
        q.add_argument("--config", default=None,
                       help="flat key = value file; defaults used if omitted")
        q.add_argument("--out", required=True,
                       help="existing output directory")
    args = parser.parse_args(argv)

    try:
        raw = parse_config_file(args.config) if args.config else {}
        cfg = build_config(args.command, raw, args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        report = run_suite(cfg)
        write_report(report, cfg.out_dir)
    except Exception as e:  # noqa: BLE001  - exit-code contract wants 3
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3

    s = report.summary
    print(f"{args.command}: {s['passed']}/{s['total']} checks passed")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
