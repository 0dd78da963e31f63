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

Each subcommand expands its sweep into an ordered task list, dispatches the
tasks (sequentially by default; set MKDVLAB_WORKERS > 1 for a process pool),
and assembles report.json plus per-run CSV dumps in the output directory.
A stability task is one order, whose shapes are stepped as one batch, so the
pool gives stability one task per order, not one per shape.
Reports carry no timestamps, keys are sorted, and floats are printed at 17
significant digits, so rerunning a config reproduces the bytes exactly.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
config error, 3 internal failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from . import closed_forms as cf
from . import identities as ide
from . import spectral as spc
from .evolution import (BlowUpError, breather_fidelity_config, evolve,
                        functional_drifts, soliton_speed_run,
                        stability_experiment, stability_run_config)
from .functionals import (SampledField, Window, closed_form_energy,
                          energy_reduction, functional,
                          higher_energy_conjecture, sample_breather,
                          sample_soliton, sobolev_norm)

COMMANDS = ("verify", "spectrum", "evolve", "stability")


class ConfigError(ValueError):
    """Bad config file, bad key, or unusable output directory."""


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
    escaped = str(obj).replace("\\", "\\\\").replace('"', '\\"')
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

_LIST_KEYS = {
    "orders": int,
    "alpha": float,
    "beta": float,
    "c": float,
    "t": float,
    "shapes": str,
}
_SCALAR_KEYS = {
    "command": str,
    "window_center": float,
    "window_half_width": float,
    "window_n": int,
    "eta": float,
    "t_end": float,
    "dt": float,
    "seed": int,
}

_DEFAULTS = {
    "verify": {
        "orders": (3, 5, 7, 9, 11),
        "alpha": (0.5, 1.0, 2.0),
        "beta": (0.5, 1.0, 2.0),
        "c": (0.25, 1.0, 4.0),
        "t": (0.0, 0.37, 1.1),
        "tol": {
            "breather_ode": 1e-8,
            "soliton_ode": 1e-9,
            "identity": 1e-7,
            "energy": 1e-8,
            "reduction": 1e-7,
            "unique": 0.5,
        },
    },
    "spectrum": {
        "orders": (5,),
        "alpha": (0.5, 1.0, 2.0),
        "beta": (0.5, 1.0, 2.0),
        "tol": {
            "counts": 0.5,
            "edge": 0.02,
            "form": 1e-4,
            "b0": 1e-4,
            "wronskian": 1e-8,
            "coercivity": 1e-12,
            "spread": 1e-5,
        },
    },
    "evolve": {
        "orders": (5, 7, 9),
        "alpha": (1.0,),
        "beta": (1.0,),
        "tol": {
            "h2": 1e-5,
            "drift": 1e-7,
            "speed_cells": 1.0,
        },
    },
    "stability": {
        "orders": (5,),
        "alpha": (1.0,),
        "beta": (1.0,),
        "shapes": ("gaussian", "B1", "LambdaBeta"),
        "eta": 1e-2,
        "t_end": 5.0,
        "tol": {
            "sup_factor": 10.0,
            "quotient_factor": 10.0,
            "floor": 1e-5,
        },
    },
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    orders: tuple
    alphas: tuple
    betas: tuple
    cs: tuple
    times: tuple
    shapes: tuple
    window_center: float | None
    window_half_width: float | None
    window_n: int | None
    eta: float
    t_end: float | None
    dt: float | None
    seed: int
    out_dir: str
    tolerances: dict

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        for name in ("orders", "alphas", "betas"):
            if not getattr(self, name):
                raise ConfigError(f"sweep list {name} must be non-empty")
        bad = [o for o in self.orders if o not in cf.ORDERS]
        if bad:
            raise ConfigError(f"orders must lie in {cf.ORDERS}, got {bad}")
        for key, val in self.tolerances.items():
            # zero is allowed: an impossible budget is the documented way
            # to force every check to fail (exercises the exit-1 path)
            if not (math.isfinite(val) and val >= 0):
                raise ConfigError(f"tolerance {key} must be nonnegative")
        if not 0.0 <= self.eta <= 0.1:
            raise ConfigError("eta must lie in [0, 0.1]")
        if self.dt is not None and not self.dt > 0:
            raise ConfigError("dt must be positive")
        if self.t_end is not None and not self.t_end >= 0:
            raise ConfigError("t_end must be nonnegative")
        if self.command == "spectrum" and self.window_n is not None \
                and self.window_n < 512:
            # the coercivity spread check runs the half grid, which must
            # itself satisfy the sampling floor of 256 points
            raise ConfigError("spectrum needs window_n >= 512")

    def echo(self) -> dict:
        out = {}
        for f in fields(self):
            if f.name == "out_dir":
                continue  # reports must not depend on where they land
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        out["tolerances"] = dict(self.tolerances)
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


def _convert(key: str, val: str):
    try:
        if key in _LIST_KEYS:
            cast = _LIST_KEYS[key]
            return tuple(cast(s.strip()) for s in val.split(",") if s.strip())
        if key in _SCALAR_KEYS:
            return _SCALAR_KEYS[key](val)
        if key.startswith("tol_"):
            return float(val)
    except ValueError as e:
        raise ConfigError(f"bad value for {key!r}: {e}") from None
    raise ConfigError(f"unknown config key {key!r}")


def build_config(command: str, raw: dict, out_dir: str,
                 seed_override: int | None = None) -> RunConfig:
    typed = {k: _convert(k, v) for k, v in raw.items()}
    if "command" in typed and typed["command"] != command:
        raise ConfigError(
            f"config says command = {typed['command']!r}, invoked {command!r}")
    defaults = _DEFAULTS[command]
    tol = dict(defaults["tol"])
    for k, v in typed.items():
        if k.startswith("tol_"):
            name = k[4:]
            if name not in tol:
                raise ConfigError(f"unknown tolerance {k!r} for {command}")
            tol[name] = v
    seed = typed.get("seed", 0)
    if seed_override is not None:
        seed = seed_override
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output directory does not exist: {out_dir}")
    return RunConfig(
        command=command,
        orders=typed.get("orders", defaults["orders"]),
        alphas=typed.get("alpha", defaults["alpha"]),
        betas=typed.get("beta", defaults["beta"]),
        cs=typed.get("c", defaults.get("c", ())),
        times=typed.get("t", defaults.get("t", (0.0,))),
        shapes=typed.get("shapes", defaults.get("shapes", ())),
        window_center=typed.get("window_center"),
        window_half_width=typed.get("window_half_width"),
        window_n=typed.get("window_n"),
        eta=typed.get("eta", defaults.get("eta", 0.0)),
        t_end=typed.get("t_end", defaults.get("t_end")),
        dt=typed.get("dt"),
        seed=seed,
        out_dir=out_dir,
        tolerances=tol,
    )


# --------------------------------------------------------------------------
# report assembly

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
        passed = sum(1 for r in self.records if r["pass"])
        return {"total": len(self.records), "passed": passed,
                "failed": len(self.records) - passed}

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


_SLUG_KEYS = ("order", "alpha", "beta", "c", "t", "kind", "shape", "eta",
              "dt")


def _record(rid: str, params: dict, measured: float, budget: float) -> dict:
    # sweep coordinates join the id so every record line is unique
    parts = [f"{k}={params[k]:g}" if isinstance(params[k], float)
             else f"{k}={params[k]}"
             for k in _SLUG_KEYS if k in params]
    if parts:
        rid = rid + "[" + ",".join(parts) + "]"
    measured = float(measured)
    return {"id": rid, "params": params, "measured": measured,
            "budget": float(budget), "pass": bool(measured <= budget)}


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


# --------------------------------------------------------------------------
# verify

def _verify_point(task: dict) -> tuple:
    order, a, b = task["order"], task["alpha"], task["beta"]
    tol = task["tol"]
    recs = []
    tag = {"order": order, "alpha": a, "beta": b}
    p = cf.BreatherParams(order, a, b)
    for t in task["times"]:
        rep = ide.breather_ode_residual(p, t)
        recs.append(_record("breather_ode", {**tag, "t": t}, rep.normalized,
                            tol["breather_ode"]))
    rep = ide.evolution_identity_residual(p)
    recs.append(_record("evolution_identity", tag, rep.normalized,
                        tol["identity"]))
    if order in (5, 7, 9):
        rep = ide.lemma21_residual(p, f"{order}th")
        recs.append(_record(f"lemma21_{order}th", tag, rep.normalized,
                            tol["identity"]))
    if order == 5:
        rep = ide.lemma23_residual(p, 0.37)
        recs.append(_record("lemma23", tag, rep.normalized, tol["identity"]))
    if order in (7, 9):
        rep = ide.corollary_residual(p, f"{order}th")
        recs.append(_record(f"corollary_{order}th", tag, rep.normalized,
                            tol["identity"]))
    kinds = ["M", "E"] + ([f"E{order}"] if order in (5, 7, 9) else [])
    f = sample_breather(p, 0.0)
    for kind in kinds:
        got = functional(f, kind).value
        want = closed_form_energy(kind, a, b)
        recs.append(_record(f"energy_{kind}", tag, _rel(got, want),
                            tol["energy"]))
    if order in (5, 7, 9):
        e, red = energy_reduction(order, a, b, t=0.2)
        recs.append(_record(f"reduction_E{order}", tag, _rel(e, red),
                            tol["reduction"]))
        conj, lemma = higher_energy_conjecture(order, a, b)
        # the two columns anti-align; their sum is the reconciled check
        recs.append(_record(f"conjecture_sign_E{order}", tag,
                            abs(conj + lemma) / max(1.0, abs(lemma)),
                            tol["energy"]))
    if order != 11:
        for c in task["cs"]:
            sp_ = cf.SolitonParams(order, c)
            for level in ("2nd", "high"):
                rep = ide.soliton_ode_residual(sp_, level)
                recs.append(_record(f"soliton_ode_{level}", {**tag, "c": c},
                                    rep.normalized, tol["soliton_ode"]))
    return tuple(recs), ()


def _adjudication_records(tol: dict) -> list:
    """One record per contested transcription: measured is the distance of
    the passing-variant count from one, variant residuals ride in params."""
    recs = []
    for label, reports in (("delta9", ide.adjudicate_delta9()),
                           ("firstmkdv", ide.adjudicate_firstmkdv())):
        residuals = {rep.variant: rep.normalized for rep in reports}
        passing = sum(1 for r in residuals.values() if r <= tol["identity"])
        recs.append(_record(f"adjudicate_{label}", residuals,
                            float(abs(passing - 1)), tol["unique"]))
    return recs


def cmd_verify(cfg: RunConfig) -> SuiteReport:
    tasks = [{"order": o, "alpha": a, "beta": b, "times": cfg.times,
              "cs": cfg.cs, "tol": cfg.tolerances}
             for o in cfg.orders for a in cfg.alphas for b in cfg.betas]
    results = _dispatch(_verify_point, tasks)
    records = []
    for recs, _ in results:
        records.extend(recs)
    records.extend(_adjudication_records(cfg.tolerances))
    return SuiteReport("verify", tuple(records), cfg.echo())


def verify_record_count(cfg: RunConfig) -> int:
    """Records cmd_verify will emit, for counting checks against reports."""
    total = 2  # adjudications
    for order in cfg.orders:
        n = len(cfg.times) + 1 + 2  # breather_ode sweep, evolution, M+E
        if order in (5, 7, 9):
            n += 4  # lemma21, E{order}, reduction, conjecture sign
        if order == 5:
            n += 1  # lemma23
        if order in (7, 9):
            n += 1  # corollary
        if order != 11:
            n += 2 * len(cfg.cs)
        total += n * len(cfg.alphas) * len(cfg.betas)
    return total


# --------------------------------------------------------------------------
# spectrum

def _spectrum_point(task: dict) -> tuple:
    a, b = task["alpha"], task["beta"]
    tol = task["tol"]
    n = task["n"] or 1024
    tag = {"alpha": a, "beta": b, "n": n}
    p = cf.BreatherParams(5, a, b)
    w = spc.spectral_window(p, 0.0, n_points=n)
    if task["center"] is not None or task["half_width"] is not None:
        w = Window(task["center"] if task["center"] is not None
                   else w.center,
                   task["half_width"] if task["half_width"] is not None
                   else w.half_width, n)
    opr = spc.build_operator(p, 0.0, w)
    summary = spc.spectrum(opr)
    dirs = spc.directions(p, 0.0, w)
    recs = [
        _record("negative_count", tag,
                float(abs(len(summary.negative_eigenvalues) - 1)),
                tol["counts"]),
        _record("kernel_dimension", tag,
                float(abs(summary.kernel_dimension - 2)), tol["counts"]),
    ]
    edge_want = spc.continuum_edge(a, b)
    recs.append(_record("continuum_edge", tag,
                        abs(summary.continuum_edge_estimate - edge_want)
                        / edge_want, tol["edge"]))
    target = 16.0 * a**2 * b
    qa = w.quad(dirs.lambda_alpha.values * opr.apply(dirs.lambda_alpha.values))
    qb = w.quad(dirs.lambda_beta.values * opr.apply(dirs.lambda_beta.values))
    recs.append(_record("form_lambda_alpha", tag, abs(qa - target) / target,
                        tol["form"]))
    recs.append(_record("form_lambda_beta", tag, abs(qb + target) / target,
                        tol["form"]))
    lhs1, lhs2, b0_resid = spc.b0_relations(p, 0.0, opr, dirs)
    b0_want = 1.0 / (4.0 * b * (a**2 + b**2))
    recs.append(_record("b0_mass", tag, abs(lhs1 - b0_want) / b0_want,
                        tol["b0"]))
    recs.append(_record("b0_quadratic", tag,
                        abs(lhs2 + 0.5 * b0_want) / b0_want, tol["b0"]))
    recs.append(_record("b0_inversion", tag, b0_resid, tol["b0"]))
    rng = np.random.default_rng(task["seed"])
    xs = rng.uniform(-6.0 / b, 6.0 / b, size=200)
    recs.append(_record("wronskian", tag,
                        spc.wronskian_check(p, 0.37, xs).normalized,
                        tol["wronskian"]))
    nu0 = spc.coercivity(opr, dirs, summary.lowest_vector)
    recs.append(_record("coercivity_positive", {**tag, "nu0": nu0},
                        max(0.0, -nu0), tol["coercivity"]))
    w2 = replace(w, n_points=n // 2)
    opr2 = spc.build_operator(p, 0.0, w2)
    nu0_2 = spc.coercivity(opr2, spc.directions(p, 0.0, w2),
                           spc.spectrum(opr2).lowest_vector)
    recs.append(_record("coercivity_spread", {**tag, "nu0_half": nu0_2},
                        abs(nu0 - nu0_2), tol["spread"]))
    artifact = (f"spectrum_a{a:g}_b{b:g}.json",
                dump_json(summary.to_json_dict()))
    return tuple(recs), (artifact,)


def cmd_spectrum(cfg: RunConfig) -> SuiteReport:
    tasks = [{"alpha": a, "beta": b, "n": cfg.window_n,
              "center": cfg.window_center,
              "half_width": cfg.window_half_width,
              "seed": cfg.seed, "tol": cfg.tolerances}
             for a in cfg.alphas for b in cfg.betas]
    results = _dispatch(_spectrum_point, tasks)
    records, artifacts = [], []
    for recs, arts in results:
        records.extend(recs)
        artifacts.extend(arts)
    _write_artifacts(cfg.out_dir, artifacts)
    return SuiteReport("spectrum", tuple(records), cfg.echo())


# --------------------------------------------------------------------------
# evolve

def _value_csv(values: np.ndarray) -> str:
    """dump_csv(("value",), [(v,) for v in values]), formatted in one pass."""
    vals = values.tolist()
    if np.isfinite(values).all():
        return "value\n" + ("%.17g\n" * len(vals)) % tuple(vals)
    return "value\n" + "".join(_fmt_float(v) + "\n" for v in vals)


def _trajectory_artifacts(prefix: str, traj) -> list:
    arts = []
    rows = []
    for i, snap in enumerate(traj):
        w = snap.field.window
        arts.append((f"{prefix}/snap_{i:04d}.csv",
                     _value_csv(snap.field.values)))
        rows.append((i, snap.t, w.center, w.half_width, w.n_points,
                     f"snap_{i:04d}.csv"))
    arts.append((f"{prefix}/snapshots.csv",
                 dump_csv(("index", "t", "center", "half_width", "n_points",
                           "values_file"), rows)))
    manifest = {
        "snapshots": [
            {"t": snap.t, "values_file": f"snap_{i:04d}.csv",
             "window": {"center": snap.field.window.center,
                        "half_width": snap.field.window.half_width,
                        "n_points": snap.field.window.n_points},
             "functionals": dict(snap.functionals)}
            for i, snap in enumerate(traj)
        ],
    }
    arts.append((f"{prefix}/manifest.json", dump_json(manifest)))
    return arts


def measure_soliton_speed(sp_: cf.SolitonParams, scfg) -> tuple:
    """(v_measured, v_law, error in grid cells) for a soliton run.

    Speed comes from the circular cross-correlation of the final field
    against the initial one, with parabolic sub-cell refinement of the
    correlation peak.
    """
    s0 = sample_soliton(sp_, 0.0, scfg.window, m=0)
    traj = evolve(s0, scfg, monitors=(), snapshot_every=10**9)
    a0, aT = traj[0].field.values, traj[-1].field.values
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
    return v_meas, v_law, cells


def _blown_up(rid: str, params: dict, budget: float, err: BlowUpError) -> dict:
    """The failed record of a check whose run stopped at a blow-up."""
    return _record(rid, {**params, "t_blowup": err.t, "k_blowup": err.k},
                   math.inf, budget)


def _evolve_point(task: dict) -> tuple:
    order = task["order"]
    tol = task["tol"]
    tag = {"order": order}
    recs, arts = [], []

    p = cf.BreatherParams(order, 1.0, 1.0)
    cfg_run = breather_fidelity_config(order)
    if task["dt"] is not None:
        cfg_run = replace(cfg_run, dt=task["dt"])
    h2_tag = {**tag, "t_end": cfg_run.t_end, "dt": cfg_run.dt,
              "frame_speed": cfg_run.frame_speed}
    monitors = ("M", "E", f"E{order}")
    u0 = sample_breather(p, 0.0, cfg_run.window, m=0)
    try:
        traj = evolve(u0, cfg_run, monitors=monitors)
    except BlowUpError as e:
        traj = e.trajectory
        recs.append(_blown_up("breather_h2", h2_tag, tol["h2"], e))
        recs.extend(_blown_up(f"drift_{kind}", tag, tol["drift"], e)
                    for kind in sorted(monitors))
    else:
        last = traj[-1]
        ref = sample_breather(p, last.t, last.field.window, m=0)
        err = SampledField(last.field.window, last.field.values - ref.values)
        recs.append(_record("breather_h2", h2_tag, sobolev_norm(err, 2),
                            tol["h2"]))
        for kind, drift in sorted(functional_drifts(traj).items()):
            recs.append(_record(f"drift_{kind}", tag, drift, tol["drift"]))
    arts.extend(_trajectory_artifacts(f"evolve_order{order}", traj))

    sp_, scfg = soliton_speed_run(order)
    if task["dt"] is not None:
        scfg = replace(scfg, dt=task["dt"])
    speed_tag = {**tag, "c": sp_.c, "dt": scfg.dt}
    try:
        v_meas, v_law, cells = measure_soliton_speed(sp_, scfg)
    except BlowUpError as e:
        recs.append(_blown_up("soliton_speed", speed_tag, tol["speed_cells"],
                              e))
    else:
        recs.append(_record("soliton_speed",
                            {**speed_tag, "v_measured": v_meas,
                             "v_law": v_law},
                            cells, tol["speed_cells"]))
    return tuple(recs), tuple(arts)


def cmd_evolve(cfg: RunConfig) -> SuiteReport:
    tasks = [{"order": o, "dt": cfg.dt, "tol": cfg.tolerances}
             for o in cfg.orders]
    results = _dispatch(_evolve_point, tasks)
    records, artifacts = [], []
    for recs, arts in results:
        records.extend(recs)
        artifacts.extend(arts)
    _write_artifacts(cfg.out_dir, artifacts)
    return SuiteReport("evolve", tuple(records), cfg.echo())


# --------------------------------------------------------------------------
# stability

def _stability_point(task: dict) -> tuple:
    """All shapes of one order, stepped as one batch."""
    order, eta = task["order"], task["eta"]
    tol = task["tol"]
    p = cf.BreatherParams(order, 1.0, 1.0)
    cfg_run = stability_run_config(order, t_end=task["t_end"])
    if task["dt"] is not None:
        cfg_run = replace(cfg_run, dt=task["dt"])
    checks = [("sup_distance",
               tol["sup_factor"] * eta if eta > 0 else tol["floor"])]
    if eta > 0:
        checks.append(("max_phase_speed", tol["quotient_factor"] * eta))
    reports = stability_experiment(p, eta, task["shapes"], cfg_run,
                                   seed=task["seed"])
    recs, arts = [], []
    for shape, report in zip(task["shapes"], reports):
        tag = {"order": order, "shape": shape, "eta": eta,
               "t_end": cfg_run.t_end, "dt": cfg_run.dt}
        if report.blow_up is not None:
            recs.extend(_blown_up(rid, tag, budget, report.blow_up)
                        for rid, budget in checks)
        else:
            recs.extend(_record(rid, tag, getattr(report, rid), budget)
                        for rid, budget in checks)
        name = f"stability_order{order}_{shape}_eta{eta:g}"
        arts.append((f"{name}.json", dump_json(report.to_json_dict())))
        arts.append((f"{name}.csv", dump_csv(
            ("t", "distance", "x1", "x2"),
            zip(report.times, report.distances, report.phases_x1,
                report.phases_x2))))
    return tuple(recs), tuple(arts)


def cmd_stability(cfg: RunConfig) -> SuiteReport:
    shapes = cfg.shapes or _DEFAULTS["stability"]["shapes"]
    tasks = [{"order": o, "shapes": shapes, "eta": cfg.eta,
              "t_end": cfg.t_end, "dt": cfg.dt, "seed": cfg.seed,
              "tol": cfg.tolerances}
             for o in cfg.orders]
    results = _dispatch(_stability_point, tasks)
    records, artifacts = [], []
    for recs, arts in results:
        records.extend(recs)
        artifacts.extend(arts)
    _write_artifacts(cfg.out_dir, artifacts)
    return SuiteReport("stability", tuple(records), cfg.echo())


# --------------------------------------------------------------------------
# dispatch and output

def _dispatch(fn, tasks: list) -> list:
    workers = int(os.environ.get("MKDVLAB_WORKERS", "1"))
    if workers > 1 and len(tasks) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(workers, len(tasks))) as pool:
            return pool.map(fn, tasks)
    return [fn(t) for t in tasks]


def _write_artifacts(out_dir: str, artifacts) -> None:
    for relpath, text in artifacts:
        path = os.path.join(out_dir, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


_COMMANDS = {
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "stability": cmd_stability,
}


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
    for name in COMMANDS:
        q = sub.add_parser(name)
        q.add_argument("--config", default=None,
                       help="flat key = value file; defaults used if omitted")
        q.add_argument("--out", required=True,
                       help="existing output directory")
        q.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    args = parser.parse_args(argv)

    try:
        raw = parse_config_file(args.config) if args.config else {}
        cfg = build_config(args.command, raw, args.out, args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        report = _COMMANDS[args.command](cfg)
        write_report(report, cfg.out_dir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001  - exit-code contract wants 3
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3

    s = report.summary
    print(f"{args.command}: {s['passed']}/{s['total']} checks passed")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
