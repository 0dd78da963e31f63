"""mkdvlab benchmark: checked suite calls per workload, per-layer spans when traced.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout whose src/ holds mkdvlab; it needs
nothing but the checkout and the installed numpy and scipy.  Each suite
call is one `mkdvlab.cli.main` call in a fresh single-process interpreter
with BLAS pinned to one thread (perfbench/child.py).  Every call's report
passes through the correctness gate in `Run.check`.

--trace 0 prints the end-to-end metrics: setup_s, run_s,
checks_passed_frac and peak_rss_mb.  --trace 1 alternates untraced and
traced calls and prints the per-layer metrics of perfbench/tracer.py, plus
setup.import_s, cli.output.bytes and trace.overhead_frac.  Before the
result, one JSON line records the environment and every raw sample.  Work
files go to .bench_build/perfbench/ in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import METRIC_UNITS
from workloads import WORKLOADS, make, strip_id

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3       # setup-only interpreters per untraced run
IMPORTTIME_SAMPLES = 3  # -X importtime interpreters per traced run
HARD_LIMIT_S = 165.0    # calls still running then are killed: exit by 180 s
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s",
                    "checks_passed_frac": "frac", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {**METRIC_UNITS, "cli.output.bytes": "bytes",
                   "setup.import_s": "s", "trace.overhead_frac": "frac"}


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MKDVLAB_WORKERS"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def git_commit() -> str | None:
    git_dir = ROOT / ".git"
    if not git_dir.is_dir():
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse",
                               "HEAD"], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


class Run:
    """The subprocesses of one benchmark run and the checks on their output."""

    def __init__(self, workload, work: Path, seconds: float):
        self.workload = workload
        self.work = work
        self.env = pinned_env()
        start = time.monotonic()
        self.measure_until = start + seconds
        self.kill_at = start + HARD_LIMIT_S
        self.config = work / "workload.cfg"
        self.config.write_text(workload.config_text(), encoding="utf-8")
        self.expected = sorted(workload.expected)
        self.reference = None   # bytes of the first report.json
        self.problems = []
        self.n = 0

    def child(self, mode: str, trace: bool = False) -> dict | None:
        """Start child.py, wait for it; its result dict, or None on failure."""
        self.n += 1
        tag = f"{mode}{self.n:03d}{'t' if trace else ''}"
        out = self.work / tag
        out.mkdir()
        spec = {"mode": mode, "trace": trace,
                "command": self.workload.command, "config": str(self.config),
                "out": str(out), "result": str(self.work / f"{tag}.json"),
                "spectrum_points": self.workload.spectrum_points,
                "soliton_t_end": self.workload.soliton_t_end,
                "speed_exponent": self.workload.speed_exponent}
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = self.kill_at - time.monotonic()
        if timeout <= 0:
            self.problems.append(f"{tag}: no time left before the hard limit")
            return None
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path),
                 repr(spawn)], env=self.env, cwd=ROOT,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            self.problems.append(f"{tag}: killed after {timeout:.0f} s")
            return None
        wall = time.monotonic() - spawn
        if proc.returncode != 0 or not Path(spec["result"]).is_file():
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            self.problems.append(f"{tag}: exit {proc.returncode}: {tail}")
            return None
        res = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        res.update(wall_s=wall, out=out, trace=trace)
        return res

    def check(self, res: dict) -> int:
        """Correctness gate for one suite call; returns the expected records
        that passed.  Problems are collected in self.problems."""
        tag = res["out"].name
        problems = [res["error"]] if "error" in res else []
        try:
            data = (res["out"] / "report.json").read_bytes()
            records = json.loads(data)["records"]
            ids = sorted(strip_id(r["id"]) for r in records)
            wrong_flags = [r["id"] for r in records
                           if r["pass"] != (r["measured"] is not None
                                            and r["measured"] <= r["budget"])]
        except (OSError, ValueError, KeyError, TypeError) as e:
            self.problems.append(f"{tag}: exit {res['exit_code']}, "
                                 f"no usable report.json ({e})")
            res["gated"] = False
            return 0
        if ids != self.expected:
            missing = set(self.expected) - set(ids)
            extra = set(ids) - set(self.expected)
            problems.append(f"record ids differ: {len(missing)} missing, "
                            f"{len(extra)} unexpected")
        if wrong_flags:
            problems.append(f"pass flag != (measured <= budget) for "
                            f"{wrong_flags[:3]}")
        failing = {strip_id(r["id"]) for r in records if not r["pass"]}
        new_failures = sorted(failing - self.workload.may_fail)
        if new_failures:
            problems.append(f"records that pass today fail: "
                            f"{new_failures[:3]}")
        if res["exit_code"] != (1 if failing else 0):
            problems.append(f"exit code {res['exit_code']} with "
                            f"{len(failing)} failed records")
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            problems.append("report.json differs from the first call's")
        self.problems.extend(f"{tag}: {p}" for p in problems)
        res["gated"] = not problems
        expected = set(self.expected)
        return sum(1 for r in records
                   if r["pass"] and strip_id(r["id"]) in expected)

    def calls(self, traced_every_other: bool) -> tuple[list, int, int]:
        """Suite calls until the measuring window closes (at least two).
        Returns (results, calls attempted, expected records passed)."""
        results, walls, attempted, passed = [], [], 0, 0
        while True:
            now = time.monotonic()
            if now >= self.kill_at:
                break
            if attempted >= 2 and (
                    not walls or now + statistics.median(walls)
                    > self.measure_until):
                break
            trace = traced_every_other and attempted % 2 == 1
            attempted += 1
            res = self.child("run", trace=trace)
            if res is None:
                continue
            walls.append(res["wall_s"])
            passed += self.check(res)
            results.append(res)
            shutil.rmtree(res["out"])
        return results, attempted, passed


def _median(values):
    return statistics.median(values) if values else 0.0


def _import_seconds(env: dict) -> float | None:
    """Import time of mkdvlab.cli and its package from -X importtime."""
    try:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mkdvlab.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    total = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if (line.startswith("import time:") and len(parts) == 3
                and parts[2].strip() in ("mkdvlab", "mkdvlab.cli")):
            total += int(parts[1])
    return total / 1e6 if total else None


def untraced(run: Run) -> tuple[dict, dict, list, int]:
    run.child("setup")  # warm-up: byte-compiles and fills the page cache
    setups = [res for res in (run.child("setup")
                              for _ in range(SETUP_SAMPLES))
              if res is not None]
    results, attempted, passed = run.calls(traced_every_other=False)
    setups += results
    gated = [r for r in results if r["gated"]] or results
    samples = {"setup_s": [r["setup_s"] for r in setups],
               "setup_s_raw": [r["setup_s_raw"] for r in setups],
               "run_s": [r["run_s"] for r in gated],
               "run_s_raw": [r["run_s_raw"] for r in gated],
               "peak_rss_mb": [r["peak_rss_mb"] for r in results],
               "run_speed": [r["run_speed"] for r in gated]}
    metrics = {"setup_s": _median(samples["setup_s"]),
               "run_s": _median(samples["run_s"]),
               "checks_passed_frac":
                   passed / (attempted * len(run.expected)),
               "peak_rss_mb": _median(samples["peak_rss_mb"])}
    return metrics, samples, results, attempted


def traced(run: Run) -> tuple[dict, dict, list, int]:
    imports = [s for s in (_import_seconds(run.env)
                           for _ in range(IMPORTTIME_SAMPLES))
               if s is not None]
    if not imports:
        run.problems.append("-X importtime run of mkdvlab.cli failed")
    results, attempted, _ = run.calls(traced_every_other=True)
    plain = [r["run_s"] for r in results if not r["trace"]]
    with_trace = [r for r in results if r["trace"]]
    # per-layer figures come from the traced call with the lowest run_s
    fastest = min(with_trace, key=lambda r: r["run_s"], default=None)
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    if fastest is not None:
        metrics.update(fastest["layers"])
        metrics["cli.output.bytes"] = fastest["output_bytes"]
        if plain:
            metrics["trace.overhead_frac"] = (
                _median([r["run_s"] for r in with_trace]) / _median(plain) - 1)
    metrics["setup.import_s"] = _median(imports)
    samples = {"setup.import_s": imports, "untraced_run_s": plain,
               "traced_run_s": [r["run_s"] for r in with_trace]}
    return metrics, samples, results, attempted


def bench(name: str, seed: int, seconds: float, trace: bool):
    """One benchmark run of one workload; returns (env, result) dicts."""
    workload = make(name, seed)
    work = ROOT / ".bench_build" / "perfbench" / (
        f"{workload.name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(workload, work, seconds)
        measure = traced if trace else untraced
        metrics, samples, results, attempted = measure(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    env = {"workload": workload.name, "seed": seed,
           "config": workload.config_text(),
           "python": platform.python_version(),
           "numpy": results[0]["numpy"] if results else None,
           "scipy": results[0]["scipy"] if results else None,
           "nproc": len(os.sched_getaffinity(0)), "threads": THREAD_ENV,
           "MKDVLAB_WORKERS": None, "git_commit": git_commit(),
           "src_lines": src_lines(), "samples": samples,
           "problems": run.problems}
    result = {
        "correct": not run.problems and attempted > 0,
        "attempted": attempted,
        "failed": attempted - sum(1 for r in results if r["gated"]),
        "metrics": {m: {"value": metrics[m], "unit": unit}
                    for m, unit in units.items()},
    }
    return env, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mkdvlab" / "cli.py").is_file():
        print(f"perfbench: no mkdvlab sources under {ROOT / 'src'}; run it "
              "from a checkout of the repository", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        env, result = bench(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"env": env}))
        for p in env["problems"]:
            print(f"perfbench: {name}: {p}", file=sys.stderr)
        results[name] = result
    if args.workload != "all":
        print(json.dumps(result))
        return 0
    # one line per workload, then all of them with workload-prefixed names
    for name, result in results.items():
        print(json.dumps({"workload": name, **result}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": v for name, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
