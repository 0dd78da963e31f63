"""Benchmark workloads: the config each one writes, and what its report must hold.

A workload is one mkdvlab suite call on a config file that the harness
writes from the seed.  Next to the config it carries the record ids the
report must contain, the ids allowed to fail (defects of today's code that
the benchmark keeps visible), and the hooks the run subprocess needs.

(alpha, beta) points are drawn from the 0.25-step grid inside the suites'
default range [0.5, 2].  Every point of that grid was run through `verify`
(all orders) and `spectrum` (n = 1024): the only failures are the
`lemma21_7th` records, one per order-7 point, so any seed gives a workload
on which the gate below can hold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GRID = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)

# verify sweep lists that the harness writes explicitly (today's defaults),
# so a change of the suite defaults does not change the workload
VERIFY_ORDERS = (3, 5, 7, 9, 11)
VERIFY_CS = (0.25, 1.0, 4.0)
VERIFY_TIMES = (0.0, 0.37, 1.1)

SPECTRUM_N = 1024
SPECTRUM_CHECKS = ("negative_count", "kernel_dimension", "continuum_edge",
                   "form_lambda_alpha", "form_lambda_beta", "b0_mass",
                   "b0_quadratic", "b0_inversion", "wronskian",
                   "coercivity_positive", "coercivity_spread")
# Measured slope of log(run_s_raw) on log(kernel time) over 60 calls of
# ten seeds: LAPACK and the n x n FFTs slow down about half as much as
# Python when the host does (verify, evolve and stability: 1.05-1.08).
SPECTRUM_SPEED_EXPONENT = 0.45

# Suite calls are kept to a few seconds so that a run holds several of them
# and run_s, their median, is steady.  The full evolve-o5 suite runs 62,500
# steps (48-56 s).  Here the breather fidelity run keeps its full horizon
# (t_end = 0.05, 2,500 steps) and the soliton speed run is cut from
# t_end = 0.3 to this value (2,000 steps).
EVOLVE_SOLITON_T_END = 0.01
# full t_end = 5 blows up at t ~ 1.01; the gaussian max_phase_speed failure
# shows at every horizon from 0.01 to 0.1 and stays in the workload
STABILITY_T_END = 0.03
STABILITY_SHAPES = ("gaussian", "B1", "LambdaBeta")
STABILITY_ETA = 0.01

# Sweep coordinates that the suite itself chooses (the shipped time steps)
# are dropped from ids before comparing, so that a new stepper configuration
# does not read as a missing record.
PROGRAM_CHOSEN_KEYS = ("dt",)

_SLUG_KEYS = ("order", "alpha", "beta", "c", "t", "kind", "shape", "eta",
              "dt")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict          # config key -> value, written as `key = value`
    expected: tuple       # record ids, after strip_id
    may_fail: frozenset   # expected ids that today's code fails
    spectrum_points: int = 0
    soliton_t_end: float | None = None
    # how strongly run_s follows the host's speed (calibrate.at_nominal)
    speed_exponent: float = 1.0

    def config_text(self) -> str:
        lines = []
        for key, val in self.config.items():
            if isinstance(val, tuple):
                val = ", ".join(str(v) for v in val)
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"


def record_id(name: str, **params) -> str:
    """The id mkdvlab gives a record: name[k=v,...] in slug-key order."""
    parts = [f"{k}={params[k]:g}" if isinstance(params[k], float)
             else f"{k}={params[k]}"
             for k in _SLUG_KEYS if k in params]
    return name + ("[" + ",".join(parts) + "]" if parts else "")


def strip_id(rid: str) -> str:
    name, sep, body = rid.partition("[")
    if not sep:
        return rid
    kept = [p for p in body.rstrip("]").split(",")
            if p.split("=", 1)[0] not in PROGRAM_CHOSEN_KEYS]
    return name + ("[" + ",".join(kept) + "]" if kept else "")


def _verify_sweep(seed: int) -> Workload:
    rng = random.Random(seed)
    alphas = tuple(sorted(rng.sample(GRID, 3)))
    betas = tuple(sorted(rng.sample(GRID, 3)))
    expected, may_fail = [], set()
    for o in VERIFY_ORDERS:
        for a in alphas:
            for b in betas:
                tag = {"order": o, "alpha": a, "beta": b}
                ids = [record_id("breather_ode", **tag, t=t)
                       for t in VERIFY_TIMES]
                ids.append(record_id("evolution_identity", **tag))
                if o in (5, 7, 9):
                    ids.append(record_id(f"lemma21_{o}th", **tag))
                if o == 7:
                    may_fail.add(ids[-1])
                if o == 5:
                    ids.append(record_id("lemma23", **tag))
                if o in (7, 9):
                    ids.append(record_id(f"corollary_{o}th", **tag))
                kinds = ["M", "E"] + ([f"E{o}"] if o in (5, 7, 9) else [])
                ids.extend(record_id(f"energy_{k}", **tag) for k in kinds)
                if o in (5, 7, 9):
                    ids.append(record_id(f"reduction_E{o}", **tag))
                    ids.append(record_id(f"conjecture_sign_E{o}", **tag))
                if o != 11:
                    ids.extend(record_id(f"soliton_ode_{lvl}", **tag, c=c)
                               for c in VERIFY_CS for lvl in ("2nd", "high"))
                expected.extend(ids)
    expected += ["adjudicate_delta9", "adjudicate_firstmkdv"]
    config = {"orders": VERIFY_ORDERS, "alpha": alphas, "beta": betas,
              "c": VERIFY_CS, "t": VERIFY_TIMES, "seed": seed}
    return Workload("verify-sweep", "verify", config, tuple(expected),
                    frozenset(may_fail))


def _spectrum(seed: int) -> Workload:
    # one point on each branch of the continuum edge: beta >= alpha and
    # alpha > beta
    rng = random.Random(seed)
    alpha = rng.choice(GRID[1:-1])
    beta_lo = rng.choice([b for b in GRID if b < alpha])
    beta_hi = rng.choice([b for b in GRID if b >= alpha])
    betas = (beta_lo, beta_hi)
    expected = tuple(record_id(check, alpha=alpha, beta=b)
                     for b in betas for check in SPECTRUM_CHECKS)
    config = {"alpha": alpha, "beta": betas, "window_n": SPECTRUM_N,
              "seed": seed}
    return Workload("spectrum-n1024", "spectrum", config, expected,
                    frozenset(), spectrum_points=len(betas),
                    speed_exponent=SPECTRUM_SPEED_EXPONENT)


def _evolve(seed: int) -> Workload:
    # evolve ignores the seed; it is written so every workload config has one
    tag = {"order": 5}
    expected = (record_id("breather_h2", **tag),
                *(record_id(f"drift_{k}", **tag) for k in ("E", "E5", "M")),
                record_id("soliton_speed", **tag, c=2.0))
    return Workload("evolve-o5", "evolve", {"orders": (5,), "seed": seed},
                    expected, frozenset(),
                    soliton_t_end=EVOLVE_SOLITON_T_END)


def _stability(seed: int) -> Workload:
    expected, may_fail = [], set()
    for shape in STABILITY_SHAPES:
        tag = {"order": 5, "shape": shape, "eta": STABILITY_ETA}
        expected.append(record_id("sup_distance", **tag))
        expected.append(record_id("max_phase_speed", **tag))
        if shape == "gaussian":
            may_fail.add(expected[-1])
    config = {"orders": (5,), "shapes": STABILITY_SHAPES,
              "eta": STABILITY_ETA, "t_end": STABILITY_T_END, "seed": seed}
    return Workload("stability-o5", "stability", config, tuple(expected),
                    frozenset(may_fail))


WORKLOADS = {
    "verify-sweep": _verify_sweep,
    "spectrum-n1024": _spectrum,
    "evolve-o5": _evolve,
    "stability-o5": _stability,
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
