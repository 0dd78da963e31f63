"""Tests of the benchmark's own code: tracer, ids and correctness gate.

    PYTHONPATH=src python3 -m pytest -q perfbench/check_tracer.py

The file name keeps these tests out of the repository's default pytest
collection on purpose: they pin the call counts of today's spectrum code
(3 operator builds and 5 eigh calls per point), which a later change that
removes that waste is meant to move.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mkdvlab import cli, evolution, functionals, spectral  # noqa: E402
from run import Run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SPECTRUM_CHECKS, make, record_id, strip_id  # noqa: E402


def _tiny_spectrum(tmp_path, name, trace):
    out = tmp_path / name
    out.mkdir()
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("alpha = 1.0\nbeta = 1.0\nwindow_n = 512\nseed = 4\n")
    argv = ["spectrum", "--config", str(cfg), "--out", str(out)]
    if not trace:
        return cli.main(argv), out, None
    with Tracer() as tracer:
        code = cli.main(argv)
    return code, out, tracer.metrics(spectrum_points=1)


def test_tiny_spectrum_counts_and_tracing_keeps_report_bytes(tmp_path):
    code_plain, out_plain, _ = _tiny_spectrum(tmp_path, "plain", False)
    code_traced, out_traced, m = _tiny_spectrum(tmp_path, "traced", True)
    # n = 512 under-resolves b0_inversion and coercivity_spread (exit 1);
    # only the counts and the report bytes matter here
    assert code_plain == code_traced in (0, 1)
    assert m["spectral.build_operator.calls"] == 3
    assert m["spectral.eigh.calls"] == 5
    assert m["spectral.build_operator.per_point"] == 3.0
    assert m["spectral.eigh.per_point"] == 5.0
    assert m["cli.write_report.calls"] == 1
    assert m["evolution.steps"] == 0
    plain = (out_plain / "report.json").read_bytes()
    assert plain == (out_traced / "report.json").read_bytes()
    ids = sorted(strip_id(r["id"]) for r in json.loads(plain)["records"])
    assert ids == sorted(record_id(c, alpha=1.0, beta=1.0)
                         for c in SPECTRUM_CHECKS)


def test_tracer_replaces_every_binding_and_restores_it():
    originals = {
        (evolution, "functional"): functionals.functional,
        (cli, "functional"): functionals.functional,
        (functionals, "functional"): functionals.functional,
        (evolution, "directions"): spectral.directions,
        (spectral, "sample_breather"): functionals.sample_breather,
        (scipy.linalg, "eigh"): scipy.linalg.eigh,
        (np.fft, "rfft"): np.fft.rfft,
    }
    with Tracer() as tracer:
        for (mod, attr), fn in originals.items():
            assert getattr(mod, attr) is not fn, (mod.__name__, attr)
        assert evolution.functional is cli.functional
        w = functionals.Window(0.0, 10.0, 256)
        evolution.functional(functionals.zero_field(w), "M")
    assert [s[0] for s in tracer.spans] == ["functionals.functional"]
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn, (mod.__name__, attr)


def test_self_time_and_per_step_ratios():
    tracer = Tracer()
    tracer.steps = 4
    # evolve [0, 10] with 8 FFTs of its own; a flux evaluation [1, 4] with 4
    # more; a fit [10, 12] outside it, holding one jet [10.5, 11]
    tracer.spans = [["evolution.evolve", 0.0, 10.0, -1, 8],
                    ["closed_forms.eval_flux_terms", 1.0, 4.0, 0, 4],
                    ["evolution.fit_modulation", 10.0, 12.0, -1, 3],
                    ["closed_forms.breather_jet_raw", 10.5, 11.0, 2, 0]]
    m = tracer.metrics()
    assert m["evolution.evolve.self_s"] == 7.0
    assert m["closed_forms.eval_flux_terms.self_s"] == 3.0
    assert m["evolution.fit_modulation.self_s"] == 1.5
    assert m["evolution.step_ms"] == 1750.0
    assert m["evolution.fft_per_step"] == 3.0
    assert m["evolution.fit_modulation.jet_calls_per_fit"] == 1.0
    assert m["spectral.eigh.per_point"] == 0.0


def _fake_call(run, tag, records, exit_code):
    out = run.work / tag
    out.mkdir()
    if records is not None:
        (out / "report.json").write_text(json.dumps({"records": records}))
    return {"out": out, "exit_code": exit_code}


def test_gate_scores_and_rejects(tmp_path):
    run = Run(make("stability-o5", 0), tmp_path, seconds=1.0)
    good = [{"id": i + "[dt=2e-05]" if "[" not in i else i[:-1] + ",dt=2e-05]",
             "measured": 1.0 if i in run.workload.may_fail else 0.0,
             "budget": 0.1,
             "pass": i not in run.workload.may_fail}
            for i in run.workload.expected]
    res = _fake_call(run, "a", good, 1)
    assert run.check(res) == 5 and res["gated"] and not run.problems

    flipped = [dict(r, measured=0.5) if r["id"].startswith("sup") else r
               for r in good]
    res = _fake_call(run, "b", flipped, 1)
    assert run.check(res) == 5 and not res["gated"]
    assert any("pass flag" in p for p in run.problems)
    assert any("differs from the first" in p for p in run.problems)

    res = _fake_call(run, "c", good[1:], 1)
    assert run.check(res) == 4 and not res["gated"]

    res = _fake_call(run, "d", None, 3)
    assert run.check(res) == 0 and not res["gated"]
