import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from mkdvlab import cli


def write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


SMALL_VERIFY = """
# one sweep point, two sample times
command = verify
orders = 5
alpha = 1.1
beta = 0.9
c = 1.0
t = 0.0, 0.37
"""


def run_main(args):
    return cli.main(list(args))


# --------------------------------------------------------------------------
# config file handling

def test_parse_flat_file(tmp_path):
    p = write_cfg(tmp_path / "c.txt", SMALL_VERIFY)
    raw = cli.parse_config_file(p)
    assert raw["orders"] == "5"
    assert raw["t"] == "0.0, 0.37"
    cfg = cli.build_config("verify", raw, str(tmp_path))
    assert cfg.values["orders"] == (5,)
    assert cfg.values["alpha"] == (1.1,)
    assert cfg.values["t"] == (0.0, 0.37)
    # the budgets are the suite's table, which no config reaches
    assert not hasattr(cfg, "tolerances")
    assert cli.SUITES["verify"].tol["breather_ode"] == 1e-8


def test_parse_errors(tmp_path):
    p = write_cfg(tmp_path / "dup.txt", "orders = 5\norders = 7\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config_file(p)
    p = write_cfg(tmp_path / "noeq.txt", "orders 5\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config_file(p)


def test_build_config_rejections(tmp_path):
    out = str(tmp_path)
    good = {"orders": "5"}
    with pytest.raises(cli.ConfigError):  # unknown key
        cli.build_config("verify", {"ordrs": "5"}, out)
    with pytest.raises(cli.ConfigError):  # order outside the hierarchy
        cli.build_config("verify", {"orders": "4"}, out)
    with pytest.raises(cli.ConfigError):  # empty sweep list
        cli.build_config("verify", {"orders": ""}, out)
    with pytest.raises(cli.ConfigError):  # command mismatch inside the file
        cli.build_config("verify", {"command": "spectrum"}, out)
    with pytest.raises(cli.ConfigError):  # eta is capped
        cli.build_config("stability", {"eta": "0.5"}, out)
    with pytest.raises(cli.ConfigError):  # spread check halves the window
        cli.build_config("spectrum", {"window_n": "256"}, out)
    with pytest.raises(cli.ConfigError):  # output directory must exist
        cli.build_config("verify", good, str(tmp_path / "missing"))


# the config keys each suite reads; any other key is a config error
READS = {
    "verify": {"command", "seed", "orders", "alpha", "beta", "c", "t"},
    "spectrum": {"command", "seed", "alpha", "beta", "window_n"},
    "evolve": {"command", "seed", "orders", "dt"},
    "stability": {"command", "seed", "orders", "shapes", "eta", "t_end",
                  "dt"},
}


# keys that a suite once read and no suite reads now: the window keys, and
# the tol_<name> keys that once reset each budget of each suite
REMOVED = {"window_center", "window_half_width"} | {
    f"tol_{name}" for name in (
        "breather_ode", "soliton_ode", "identity", "energy", "reduction",
        "unique",                                               # verify
        "counts", "edge", "form", "b0", "wronskian", "coercivity",
        "spread",                                               # spectrum
        "h2", "drift", "speed_cells",                           # evolve
        "sup_factor", "quotient_factor", "floor")}              # stability


def test_each_suite_reads_its_table():
    assert {name: {"command", *s.keys} for name, s in cli.SUITES.items()} \
        == READS


@pytest.mark.parametrize("suite", sorted(READS))
def test_report_echoes_each_key_under_the_name_that_sets_it(tmp_path, suite):
    cfg = cli.build_config(suite, {}, str(tmp_path))
    assert set(cfg.echo()) == READS[suite]


@pytest.mark.parametrize("suite,key", [
    (suite, key) for suite in sorted(READS)
    for key in sorted(set().union(*READS.values(), REMOVED) - READS[suite])])
def test_unread_key_is_rejected(tmp_path, suite, key):
    with pytest.raises(cli.ConfigError, match=f"{suite} .*'{key}'"):
        cli.build_config(suite, {key: "1"}, str(tmp_path))


@pytest.mark.parametrize("suite,text,key", [
    ("evolve", "alpha = 1.5", "alpha"),
    ("evolve", "t_end = 0.01", "t_end"),
    ("spectrum", "orders = 9", "orders"),
    ("verify", "eta = 0.01", "eta"),
    ("evolve", "orders = 3", "orders"),
    ("stability", "orders = 7", "orders"),
    ("stability", "shapes = foo", "shapes"),
    ("stability", "shapes =", "shapes"),
    ("verify", "orders = 3, 3", "orders"),
    ("verify", "c = 1, 0.5, 1.0", "c"),
    ("spectrum", "alpha = 0", "alpha"),
    ("spectrum", "window_n = 768", "window_n"),
    # removed keys: the window is resolved_window's, so they are unread
    ("spectrum", "alpha = 1\nbeta = 1\nwindow_n = 512\nwindow_center = 60",
     "window_center"),
    ("spectrum", "alpha = 1\nbeta = 1\nwindow_n = 512\nwindow_half_width = 3",
     "window_half_width"),
    # a run that takes no step
    ("stability", "t_end = 0", "t_end"),
    # runs whose t_end is not a whole number of steps
    ("stability", "t_end = 0.0055", "t_end"),
    ("stability", "t_end = 0.01\ndt = 3e-3", "dt"),
    ("evolve", "dt = 7e-4", "dt"),
])
def test_unread_or_out_of_domain_config_exits_2(tmp_path, capsys, suite,
                                                 text, key):
    cfgp = write_cfg(tmp_path / "c.txt", text + "\n")
    assert run_main([suite, "--config", cfgp, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert suite in err and key in err


@pytest.mark.parametrize("suite,text", [
    ("stability", "t_end = 0.0055\n"),  # dt 1e-3: it once ran to t = 0.006
    ("evolve", "orders = 5\ndt = 7e-4\n"),  # divides neither 0.05 nor 0.3
])
def test_run_that_is_not_a_whole_number_of_steps_exits_2(tmp_path, capsys,
                                                         suite, text):
    cfgp = write_cfg(tmp_path / "c.txt", text)
    out = tmp_path / "o"
    out.mkdir()
    assert run_main([suite, "--config", cfgp, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "t_end" in err and "dt" in err
    assert list(out.iterdir()) == []  # rejected before any task ran


def test_seed_is_set_only_by_its_config_key(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_main(["verify", "--out", str(tmp_path), "--seed", "1"])
    assert exc.value.code == 2


# --------------------------------------------------------------------------
# deterministic serialization

def test_float_formatting():
    assert cli.dump_json({"x": 0.1}) == '{\n  "x": 0.10000000000000001\n}\n'
    assert cli.dump_json({"b": True, "i": 3}) == \
        '{\n  "b": true,\n  "i": 3\n}\n'
    assert cli.dump_json({"v": float("nan")}) == '{\n  "v": null\n}\n'
    assert cli.dump_json({"v": float("inf")}) == '{\n  "v": null\n}\n'
    assert cli.dump_json(["a", 2.5]) == '[\n  "a",\n  2.5\n]\n'
    # keys come out sorted regardless of insertion order
    assert cli.dump_json({"z": 1, "a": 2}) == '{\n  "a": 2,\n  "z": 1\n}\n'


def test_json_writer_golden_string():
    # every branch of the writer: exact built-in types, numpy scalars,
    # non-finite floats, empty containers, tuples, unsorted keys, escapes
    obj = {"z": [1.5, np.float64(0.1), np.int64(-3), np.bool_(True), False,
                 None],
           "a": {"nan": float("nan"), "inf": -math.inf,
                 "npinf": np.float64("inf")},
           "m": {"empty_list": [], "empty_dict": {}, "empty_tuple": (),
                 "tuple": (2, 1.0 / 3.0), "int": 7},
           "s": 'say "hi" \\ back\\slash'}
    assert cli.dump_json(obj) == (
        '{\n'
        '  "a": {\n'
        '    "inf": null,\n'
        '    "nan": null,\n'
        '    "npinf": null\n'
        '  },\n'
        '  "m": {\n'
        '    "empty_dict": {},\n'
        '    "empty_list": [],\n'
        '    "empty_tuple": [],\n'
        '    "int": 7,\n'
        '    "tuple": [\n'
        '      2,\n'
        '      0.33333333333333331\n'
        '    ]\n'
        '  },\n'
        '  "s": "say \\"hi\\" \\\\ back\\\\slash",\n'
        '  "z": [\n'
        '    1.5,\n'
        '    0.10000000000000001,\n'
        '    -3,\n'
        '    true,\n'
        '    false,\n'
        '    null\n'
        '  ]\n'
        '}\n')


def test_csv_writer():
    text = cli.dump_csv(("id", "x"), [("r1", 1.5), ("r2", float("nan"))])
    lines = text.strip().split("\n")
    assert lines[0] == "id,x"
    assert lines[1] == "r1,1.5"
    assert lines[2] == "r2,null"


def test_write_artifacts_writes_bytes_and_text_as_given(tmp_path):
    text = "a,b\r\n\u03b1\n"
    data = bytes(range(256))
    cli._write_artifacts(str(tmp_path), [("d/t.csv", text),
                                         ("d/e/b.npy", data)])
    assert (tmp_path / "d" / "t.csv").read_bytes() == text.encode("utf-8")
    assert (tmp_path / "d" / "e" / "b.npy").read_bytes() == data


def test_report_invariant():
    rec = {"id": "r", "params": {}, "measured": 2.0, "budget": 1.0,
           "pass": True}
    with pytest.raises(ValueError):
        cli.SuiteReport(command="verify", config_echo={}, records=(rec,))


# --------------------------------------------------------------------------
# end-to-end runs (kept to one cheap sweep point)

def test_verify_run_and_determinism(tmp_path):
    cfgp = write_cfg(tmp_path / "c.txt", SMALL_VERIFY)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    out1.mkdir()
    out2.mkdir()
    assert run_main(["verify", "--config", cfgp, "--out", str(out1)]) == 0
    assert run_main(["verify", "--config", cfgp, "--out", str(out2)]) == 0
    b1 = (out1 / "report.json").read_bytes()
    assert b1 == (out2 / "report.json").read_bytes()
    assert (out1 / "records.csv").read_bytes() == \
        (out2 / "records.csv").read_bytes()

    report = json.loads(b1)
    tag = "order=5,alpha=1.1,beta=0.9"
    assert [r["id"] for r in report["records"]] == [
        f"breather_ode[{tag},t=0]", f"breather_ode[{tag},t=0.37]",
        f"evolution_identity[{tag}]", f"lemma21_5th[{tag}]",
        f"lemma23[{tag}]", f"energy_M[{tag}]", f"energy_E[{tag}]",
        f"energy_E5[{tag}]", f"reduction_E5[{tag}]",
        f"conjecture_sign_E5[{tag}]", f"soliton_ode_2nd[{tag},c=1]",
        f"soliton_ode_high[{tag},c=1]", "adjudicate_delta9",
        "adjudicate_firstmkdv"]
    assert all(r["pass"] for r in report["records"])
    for r in report["records"]:
        assert math.isfinite(r["measured"])


def test_zero_budget_run_fails(tmp_path, monkeypatch):
    # the exit-1 path: with every budget of the suite's table at zero, only
    # a check whose measured error is exactly 0 passes (energy_M here: the
    # trapezoid sum of B^2 rounds to 2 beta)
    for name in list(cli.SUITES["verify"].tol):
        monkeypatch.setitem(cli.SUITES["verify"].tol, name, 0.0)
    cfgp = write_cfg(tmp_path / "c.txt", SMALL_VERIFY)
    out = tmp_path / "o"
    out.mkdir()
    assert run_main(["verify", "--config", cfgp, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert [r["pass"] for r in report["records"]] == [
        r["measured"] == 0.0 for r in report["records"]]
    assert {r["budget"] for r in report["records"]} == {0.0}


def test_worker_pool_matches_sequential(tmp_path, monkeypatch):
    text = SMALL_VERIFY.replace("orders = 5", "orders = 3, 5")
    cfgp = write_cfg(tmp_path / "c.txt", text)
    out1 = tmp_path / "seq"
    out2 = tmp_path / "pool"
    out1.mkdir()
    out2.mkdir()
    assert run_main(["verify", "--config", cfgp, "--out", str(out1)]) == 0
    monkeypatch.setenv("MKDVLAB_WORKERS", "2")
    assert run_main(["verify", "--config", cfgp, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()
    # a stability task is one (order, shape), so the pool splits the shapes
    stab = write_cfg(tmp_path / "s.txt", "orders = 5\nshapes = B1, "
                     "LambdaBeta\neta = 0.01\nt_end = 0.002\n")
    outs, codes = {}, []
    for workers in ("1", "2"):
        outs[workers] = out = tmp_path / f"stability{workers}"
        out.mkdir()
        monkeypatch.setenv("MKDVLAB_WORKERS", workers)
        codes.append(run_main(["stability", "--config", stab,
                               "--out", str(out)]))
    assert codes[0] == codes[1]
    names = ["report.json"] + [f"stability_order5_{shape}_eta0.01.json"
                               for shape in ("B1", "LambdaBeta")]
    for name in names:
        assert ((outs["1"] / name).read_bytes()
                == (outs["2"] / name).read_bytes())
    # an evolve task is one order; its report and arrays are the same bytes
    evolve = write_cfg(tmp_path / "e.txt", "orders = 5, 7\ndt = 0.01\n")
    outs, codes = {}, []
    for workers in ("1", "2"):
        outs[workers] = out = tmp_path / f"evolve{workers}"
        out.mkdir()
        monkeypatch.setenv("MKDVLAB_WORKERS", workers)
        codes.append(run_main(["evolve", "--config", evolve,
                               "--out", str(out)]))
    assert codes[0] == codes[1]
    names = ["report.json"] + [f"evolve_order{order}/{name}"
                               for order in (5, 7)
                               for name in ("fields.npy", "manifest.json")]
    for name in names:
        assert ((outs["1"] / name).read_bytes()
                == (outs["2"] / name).read_bytes())


def test_worker_count_must_be_an_integer_of_at_least_one(tmp_path, monkeypatch,
                                                        capsys):
    cfgp = write_cfg(tmp_path / "c.txt", SMALL_VERIFY)
    for workers in ("abc", "0", "-3"):
        monkeypatch.setenv("MKDVLAB_WORKERS", workers)
        assert run_main(["verify", "--config", cfgp,
                         "--out", str(tmp_path)]) == 2
        # one line naming the variable and its value, and no task ran
        assert capsys.readouterr().err == (
            f"config error: MKDVLAB_WORKERS must be an integer >= 1, "
            f"got {workers!r}\n")
        assert not (tmp_path / "report.json").exists()
    raw = cli.parse_config_file(cfgp)
    for workers, want in (("2", 2), ("1", 1), (None, 1)):
        if workers is None:
            monkeypatch.delenv("MKDVLAB_WORKERS")
        else:
            monkeypatch.setenv("MKDVLAB_WORKERS", workers)
        assert cli.build_config("verify", raw, str(tmp_path)).workers == want


# orders 5 and 7, a 2 x 2 (alpha, beta) grid and two soliton parameters
MEMO_VERIFY = """
orders = 5, 7
alpha = 0.75, 1.5
beta = 1.0, 1.25
c = 0.5, 2.0
t = 0.0, 0.37
"""


def _counting_residuals(monkeypatch):
    """Count identities' breather and soliton ODE calls by their args."""
    from mkdvlab import identities as ide

    calls = {"breather": [], "soliton": []}
    breather, soliton = ide.breather_ode_residual, ide.soliton_ode_residual

    def counting_breather(p, t, *args, **kwargs):
        calls["breather"].append((p.order, p.alpha, p.beta, t))
        return breather(p, t, *args, **kwargs)

    def counting_soliton(p, level="2nd", *args, **kwargs):
        calls["soliton"].append((p.order, p.c, level))
        return soliton(p, level, *args, **kwargs)

    monkeypatch.setattr(ide, "breather_ode_residual", counting_breather)
    monkeypatch.setattr(ide, "soliton_ode_residual", counting_soliton)
    return calls


def test_verify_computes_order_free_and_breather_free_checks_once(
        tmp_path, monkeypatch):
    calls = _counting_residuals(monkeypatch)
    cfg = cli.build_config("verify", cli.parse_config_file(
        write_cfg(tmp_path / "c.txt", MEMO_VERIFY)), str(tmp_path))
    report = cli.run_suite(cfg)
    # the soliton checks once per (order, c, level), not per (alpha, beta)
    assert sorted(calls["soliton"]) == [
        (o, c, level) for o in (5, 7) for c in (0.5, 2.0)
        for level in ("2nd", "high")]
    # the t = 0 breather equation once per (alpha, beta), not per order;
    # t = 0.37 still once per task
    at_rest = [(a, b) for _, a, b, t in calls["breather"] if t == 0.0]
    assert sorted(at_rest) == [(a, b) for a in (0.75, 1.5)
                               for b in (1.0, 1.25)]
    assert sum(1 for *_, t in calls["breather"] if t == 0.37) == 8
    # no state survives the call
    for memo in cli.SUITES["verify"].memos:
        assert memo.cache_info().currsize == 0

    # every memoized record equals a direct call at its own coordinates
    from mkdvlab import closed_forms as cf
    from mkdvlab import identities as ide

    checked = 0
    for r in report.records:
        q = r["params"]
        name = r["id"].split("[")[0]
        if name.startswith("soliton_ode_"):
            want = ide.soliton_ode_residual(
                cf.SolitonParams(q["order"], q["c"]),
                name.removeprefix("soliton_ode_"))
        elif name == "breather_ode" and q["t"] == 0.0:
            want = ide.breather_ode_residual(
                cf.BreatherParams(q["order"], q["alpha"], q["beta"]), 0.0)
        else:
            continue
        assert r["measured"] == want.normalized, r["id"]
        checked += 1
    assert checked == 8 * 4 + 8


def test_verify_energy_records_pass_off_the_default_grid(tmp_path):
    # at (6, 0.25) the sampling window needs 8192 points for the trapezoid
    # to resolve the carrier; with 2048 the E and E9 records miss the
    # 64-ulp budget (E9 by 6e5 ulps)
    text = "orders = 9\nalpha = 6.0\nbeta = 0.25\nc = 1.0\nt = 0.0\n"
    cfg = cli.build_config("verify", cli.parse_config_file(
        write_cfg(tmp_path / "c.txt", text)), str(tmp_path))
    energy = [r for r in cli.run_suite(cfg).records
              if r["id"].startswith(("energy_", "conjecture_sign_"))]
    assert len(energy) == 4
    assert all(r["pass"] for r in energy), energy


def test_verify_computes_rest_energies_once_per_alpha_beta(tmp_path,
                                                           monkeypatch):
    from mkdvlab import closed_forms as cf
    from mkdvlab import functionals as fn

    kinds, rest_samples = [], []

    def counting(f, kind):
        kinds.append(kind)
        return fn.functional(f, kind)

    def sampling(p, t, *args, **kwargs):
        if t == 0.0:
            rest_samples.append((p.alpha, p.beta))
        return fn.sample_breather(p, t, *args, **kwargs)

    monkeypatch.setattr(cli, "functional", counting)
    monkeypatch.setattr(cli, "sample_breather", sampling)
    text = MEMO_VERIFY.replace("orders = 5, 7", "orders = 3, 5, 7, 11")
    cfg = cli.build_config("verify", cli.parse_config_file(
        write_cfg(tmp_path / "c.txt", text)), str(tmp_path))
    report = cli.run_suite(cfg)
    # one t = 0 sample per (alpha, beta) for four orders, and from it every
    # kind that an order's energy checks read
    assert len(rest_samples) == len(set(rest_samples)) == 4
    assert sorted(kinds) == sorted(["M", "E", "E5", "E7", "E9"] * 4)
    for memo in cli.SUITES["verify"].memos:
        assert memo.cache_info().currsize == 0
    # every energy record equals a direct evaluation at its own order
    checked = 0
    for r in report.records:
        name, q = r["id"].split("[")[0], r["params"]
        if not name.startswith("energy_"):
            continue
        kind = name.removeprefix("energy_")
        p = cf.BreatherParams(q["order"], q["alpha"], q["beta"])
        f = fn.sample_breather(p, 0.0)
        want = fn.closed_form_energy(kind, q["alpha"], q["beta"])
        assert r["measured"] == (abs(fn.functional(f, kind) - want)
                                 / fn.term_scale(f, kind)), r["id"]
        checked += 1
    assert checked == 4 * (2 * 4 + 2)


SHARED_VERIFY = """
orders = 3, 5, 9, 11
alpha = 0.75
beta = 1.25
c = 1.0
t = 0.0, 0.37, 1.1
"""


def test_verify_samples_each_breather_once_per_time(tmp_path, monkeypatch):
    from mkdvlab import closed_forms as cf
    from mkdvlab import identities as ide

    jets = []
    raw = cf.breather_jet_raw

    def counting(order, alpha, beta, x1, x2, t, x, m, vel=None, mass=False):
        jets.append((order, alpha, beta, x1, x2, t))
        return raw(order, alpha, beta, x1, x2, t, x, m, vel=vel, mass=mass)

    monkeypatch.setattr(cf, "breather_jet_raw", counting)
    cfg = cli.build_config("verify", cli.parse_config_file(
        write_cfg(tmp_path / "c.txt", SHARED_VERIFY)), str(tmp_path))
    report = cli.run_suite(cfg)
    monkeypatch.undo()

    # one jet per task and time t != 0; the others are the rest samples
    # (t = 0), the energy reductions' (t = 0.2) and the two adjudicated
    # breathers'
    adjudicated = {(q.order, q.alpha, q.beta, q.x1, q.x2)
                   for q in (ide.DELTA9_BREATHER, ide.FIRSTMKDV_BREATHER)}
    per_time = [j for j in jets
                if j[:5] not in adjudicated and j[5] not in (0.0, 0.2)]
    assert sorted(per_time) == [(o, 0.75, 1.25, 0.0, 0.0, t)
                                for o in (3, 5, 9, 11) for t in (0.37, 1.1)]

    # each CHECK_T record is its residual on the shared sample, bitwise, and
    # within rounding of the residual on a jet of the check's own; the
    # bound is test_identities' SHARED_SAMPLE_ROUNDING
    residuals = {"breather_ode": lambda p, **kw: ide.breather_ode_residual(
                     p, ide.CHECK_T, **kw),
                 "evolution_identity": ide.evolution_identity_residual,
                 "lemma21": ide.lemma21_residual,
                 "lemma23": ide.lemma23_residual,
                 "corollary": ide.corollary_residual}
    checked = []
    for r in report.records:
        name, q = r["id"].split("[")[0], r["params"]
        residual = residuals.get(name) or residuals.get(name.split("_")[0])
        if residual is None or q.get("t", ide.CHECK_T) != ide.CHECK_T:
            continue
        p = cf.BreatherParams(q["order"], q["alpha"], q["beta"])
        assert r["measured"] == residual(
            p, sample=ide.check_sample(p)).normalized, r["id"]
        assert abs(r["measured"] - residual(p).normalized) \
            <= 16 * np.finfo(float).eps, r["id"]
        checked.append(name)
    assert sorted(checked) == sorted(
        ["breather_ode", "evolution_identity"] * 4
        + ["lemma21_5th", "lemma23", "lemma21_9th", "corollary_9th"])


def test_verify_derives_each_corollary_order_once(tmp_path, monkeypatch):
    # lemma23 and the corollaries of every (alpha, beta) read one
    # elimination per order, derived on first use
    from mkdvlab import closed_forms as cf

    eliminated = []
    eliminate = cf.eliminate

    def counting(terms, equation):
        eliminated.append(cf.max_order(terms) + 1)
        return eliminate(terms, equation)

    cf.reduced_evolution_terms.cache_clear()
    monkeypatch.setattr(cf, "eliminate", counting)
    text = MEMO_VERIFY.replace("orders = 5, 7", "orders = 5, 7, 9")
    cfg = cli.build_config("verify", cli.parse_config_file(
        write_cfg(tmp_path / "c.txt", text)), str(tmp_path))
    report = cli.run_suite(cfg)
    assert sorted(eliminated) == [5, 7, 9]
    reduced = [r for r in report.records
               if r["id"].startswith(("lemma23", "corollary_"))]
    assert len(reduced) == 3 * 4 and all(r["pass"] for r in reduced)


def test_each_finished_task_prints_one_progress_line(tmp_path, monkeypatch,
                                                     capsys):
    cfgp = write_cfg(tmp_path / "c.txt", MEMO_VERIFY)
    reports, coords = [], []
    for workers in ("1", "2"):
        monkeypatch.setenv("MKDVLAB_WORKERS", workers)
        out = tmp_path / f"w{workers}"
        out.mkdir()
        assert run_main(["verify", "--config", cfgp, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 8
        for i, line in enumerate(lines, start=1):
            words = line.split()
            assert words[:2] == ["verify", f"{i}/8"]
            assert words[-1] == "s" and float(words[-2]) >= 0.0
        coords.append([line.split()[2:5] for line in lines])
        # stdout keeps its one summary line; the report holds no progress
        assert captured.out.startswith("verify: ")
        assert captured.out.count("\n") == 1
        reports.append((out / "report.json").read_bytes())
    # tasks in table order: order, then alpha, then beta
    assert coords[0] == coords[1] == [
        [f"order={o}", f"alpha={a:g}", f"beta={b:g}"]
        for o in (5, 7) for a in (0.75, 1.5) for b in (1.0, 1.25)]
    assert reports[0] == reports[1]


def test_exit_code_config_error(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    bad = write_cfg(tmp_path / "bad.txt", "nonsense_key = 1\n")
    assert run_main(["verify", "--config", bad, "--out", str(out)]) == 2
    good = write_cfg(tmp_path / "good.txt", SMALL_VERIFY)
    missing = str(tmp_path / "nowhere")
    assert run_main(["verify", "--config", good, "--out", missing]) == 2


def test_report_structure(tmp_path):
    cfgp = write_cfg(tmp_path / "c.txt", SMALL_VERIFY)
    out = tmp_path / "o"
    out.mkdir()
    run_main(["verify", "--config", cfgp, "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "verify"
    assert report["config"]["orders"] == [5]
    assert "tool_version" in report
    ids = [r["id"] for r in report["records"]]
    assert len(ids) == len(set(ids))  # record ids are unique
    assert os.path.getsize(out / "records.csv") > 0


# two alphas that print alike at %g, which keeps six significant digits
CLOSE_ALPHAS = "alpha = 1.0000001, 1.0000002\nbeta = 1.0\n"


def test_close_float_sweep_values_keep_distinct_record_ids(tmp_path, capsys):
    cfgp = write_cfg(tmp_path / "c.txt",
                     "orders = 3\n" + CLOSE_ALPHAS + "c = 1.0\nt = 0.0\n")
    out = tmp_path / "o"
    out.mkdir()
    run_main(["verify", "--config", cfgp, "--out", str(out)])
    ids = [r["id"] for r in
           json.loads((out / "report.json").read_text())["records"]]
    assert len(ids) == 14 and len(set(ids)) == 14
    assert sum("alpha=1.0000001," in i for i in ids) == 6
    assert sum("alpha=1.0000002," in i for i in ids) == 6
    progress = capsys.readouterr().err.splitlines()
    assert [line.split()[3] for line in progress] == ["alpha=1.0000001",
                                                      "alpha=1.0000002"]


def test_close_float_sweep_values_keep_distinct_artifacts(tmp_path):
    # two points a rounding apart; only the names count
    cfgp = write_cfg(tmp_path / "s.txt", CLOSE_ALPHAS + "window_n = 512\n")
    out = tmp_path / "o"
    out.mkdir()
    run_main(["spectrum", "--config", cfgp, "--out", str(out)])
    names = sorted(path.name for path in out.glob("spectrum_*.json"))
    assert names == ["spectrum_a1.0000001_b1.json",
                     "spectrum_a1.0000002_b1.json"]
    records = json.loads((out / "report.json").read_text())["records"]
    assert len(records) == len({r["id"] for r in records}) == 22


_IMPORT_PROBE = """
import json, sys
suite = sys.argv[1]
def loaded(prefix):
    return sorted(m for m in sys.modules if m.split(".")[0] == prefix)
from mkdvlab import cli
imported = loaded("mkdvlab")
cli.build_config(suite, cli.parse_config_file(suite + ".txt"), suite)
built = loaded("mkdvlab")
code = cli.main([suite, "--config", suite + ".txt", "--out", suite])
print(json.dumps({"imported": imported, "built": built, "code": code,
                  "ran": loaded("mkdvlab"), "scipy": loaded("scipy")}))
"""

# what the cli itself imports, before any suite loads its library
_CLI_MODULES = ["mkdvlab", "mkdvlab.cli", "mkdvlab.closed_forms",
                "mkdvlab.functionals"]


def _import_probe(tmp_path, suite: str, config: str) -> dict:
    """Run one suite in a fresh interpreter; the mkdvlab modules loaded once
    cli is imported, once the config is built and once the suite has run,
    the scipy modules loaded by then, and the exit code."""
    write_cfg(tmp_path / f"{suite}.txt", config)
    (tmp_path / suite).mkdir()
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))),
        MKDVLAB_WORKERS="1")
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, suite],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((tmp_path / suite / "report.json").read_text())
    assert report["command"] == suite and report["records"]
    assert got["code"] in (0, 1)
    # a suite compiles its own library only, and nothing once it runs
    assert got["imported"] == _CLI_MODULES
    assert got["ran"] == got["built"]
    return got


def test_verify_evolve_and_stability_run_without_scipy(tmp_path):
    # only spectrum runs dense LAPACK; the other suites must not pay for
    # importing scipy.linalg at start-up, nor for another suite's library
    configs = {"verify": (SMALL_VERIFY, ["identities"]),
               "evolve": ("orders = 5\ndt = 0.01\n", ["evolution"]),
               "stability": ("t_end = 0.004\n", ["evolution"])}
    for suite, (text, library) in configs.items():
        got = _import_probe(tmp_path, suite, text)
        assert got["scipy"] == []
        assert got["built"] == sorted(
            _CLI_MODULES + [f"mkdvlab.{name}" for name in library])


def test_spectrum_loads_spectral_alone(tmp_path):
    got = _import_probe(tmp_path, "spectrum",
                        "alpha = 1.0\nbeta = 1.0\nwindow_n = 512\n")
    assert got["built"] == sorted(_CLI_MODULES + ["mkdvlab.spectral"])


def _count_spectrum_work(tmp_path, monkeypatch, config):
    """Run one spectrum point; (build_operator calls, eigh calls, dpotrf
    calls, report)."""
    import scipy.linalg

    from mkdvlab import spectral as spc

    counts = {"build": 0, "eigh": 0, "dpotrf": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(spc, "build_operator",
                        counting("build", spc.build_operator))
    monkeypatch.setattr(scipy.linalg, "eigh",
                        counting("eigh", scipy.linalg.eigh))
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf",
                        counting("dpotrf", scipy.linalg.lapack.dpotrf))
    cfgp = write_cfg(tmp_path / "s.txt", config)
    out = tmp_path / "o"
    out.mkdir()
    run_main(["spectrum", "--config", cfgp, "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    return counts["build"], counts["eigh"], counts["dpotrf"], report


def test_spectrum_point_solves_five_blocks_and_certifies_three(tmp_path,
                                                               monkeypatch):
    # one operator at n and one at n/2.  The breather is centred, so each
    # operator is a cos and a sin block.  At n the bottom-k spectrum solves
    # both blocks; coercivity at n and at n/2, and the lowest vector at
    # n/2, solve the cos block, which holds the minimum, and prove the sin
    # block above it with one Cholesky factorization.  window_n = 512 is a
    # floor, which the resolved window doubles at (1, 1).
    builds, eighs, potrfs, report = _count_spectrum_work(
        tmp_path, monkeypatch, "alpha = 1.0\nbeta = 1.0\nwindow_n = 512\n")
    assert len(report["records"]) == 11
    assert (builds, eighs, potrfs) == (2, 5, 3)


def test_half_grid_coercivity_uses_the_configured_window(tmp_path,
                                                          monkeypatch):
    # the half grid is the configured window at half its points, not
    # resolved again: at (1, 1) window_n = 512 gives 1024 points, so 512
    from mkdvlab import closed_forms as cf
    from mkdvlab import spectral as spc
    from mkdvlab.functionals import resolved_window

    *_, report = _count_spectrum_work(
        tmp_path, monkeypatch, "alpha = 1.0\nbeta = 1.0\nwindow_n = 512\n")
    spread, = [r for r in report["records"]
               if r["id"].startswith("coercivity_spread")]
    p = cf.BreatherParams(5, 1.0, 1.0)
    w = resolved_window(p, 0.0, 512)
    assert spread["params"]["n"] == w.n_points == 1024
    w2 = replace(w, n_points=512)
    opr2 = spc.build_operator(p, 0.0, w2)
    want = spc.coercivity(opr2, spc.directions(p, 0.0, w2),
                          spc.lowest_vector(opr2))
    assert spread["params"]["nu0_half"] == want


def test_window_n_is_a_floor(tmp_path):
    # taken as they are, window_n = 512 at (1, 1) and the default 1024 at
    # (4, 0.5) under-resolve the breather (b0_inversion 6.3e-3 and 3.6e-3,
    # against 1e-4); the resolved window doubles them, every check passes,
    # and the config echoes the key as given
    for config, n, echo in (("alpha = 1\nbeta = 1\nwindow_n = 512\n", 1024,
                             512), ("alpha = 4\nbeta = 0.5\n", 2048, None)):
        cfgp = write_cfg(tmp_path / f"{n}.txt", config)
        out = tmp_path / str(n)
        out.mkdir()
        assert run_main(["spectrum", "--config", cfgp, "--out",
                         str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["window_n"] == echo
        assert len(report["records"]) == 11
        assert {r["params"]["n"] for r in report["records"]} == {n}


def test_verify_order7_point_passes(tmp_path):
    # the 7th-order product identity in its derived reading
    cfgp = write_cfg(tmp_path / "c.txt",
                     SMALL_VERIFY.replace("orders = 5", "orders = 7"))
    out = tmp_path / "o"
    out.mkdir()
    assert run_main(["verify", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert any(r["id"].startswith("lemma21_7th") for r in report["records"])


def test_wronskian_samples_surround_the_breather_at_its_time(tmp_path,
                                                             monkeypatch):
    # at (2, 0.5) the envelope centre sits at +25.9 by t = 0.37, far from
    # x = 0; samples drawn around 0 would test only the far tail
    from mkdvlab import closed_forms as cf
    from mkdvlab import spectral as spc

    seen = []
    original = spc.wronskian_check

    def capturing(p, t, xs):
        seen.append((p, t, np.array(xs)))
        return original(p, t, xs)

    monkeypatch.setattr(spc, "wronskian_check", capturing)
    cfgp = write_cfg(tmp_path / "s.txt",
                     "alpha = 2.0\nbeta = 0.5\nwindow_n = 512\n")
    out = tmp_path / "o"
    out.mkdir()
    run_main(["spectrum", "--config", cfgp, "--out", str(out)])
    (p, t, xs), = seen
    core = cf.BreatherParams(5, 2.0, 0.5).core(t)
    assert p == cf.BreatherParams(5, 2.0, 0.5)
    assert abs(core) > 20.0
    assert np.all(np.abs(xs - core) <= 6.0 / 0.5)
    report = json.loads((out / "report.json").read_text())
    wronskian, = [r for r in report["records"]
                  if r["id"].startswith("wronskian")]
    assert wronskian["pass"]


def test_spectrum_at_alpha_beta_3_exits_0(tmp_path):
    # the Wronskian samples once sat 120 units from the core at t = 0.37,
    # where cosh 2 beta y2 overflows: the suite crashed with exit 3
    cfgp = write_cfg(tmp_path / "s.txt", "alpha = 3\nbeta = 3\n")
    out = tmp_path / "o"
    out.mkdir()
    assert run_main(["spectrum", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["records"]) == 11


@pytest.mark.slow
def test_spectrum_passes_on_the_7x7_grid_at_n_1024(tmp_path):
    # every point of the 0.25-step grid inside the default (alpha, beta)
    # range, at the default n: all 11 checks at each of the 49 points
    grid = ", ".join(str(0.5 + 0.25 * i) for i in range(7))
    cfgp = write_cfg(tmp_path / "s.txt",
                     f"alpha = {grid}\nbeta = {grid}\nwindow_n = 1024\n")
    out = tmp_path / "o"
    out.mkdir()
    assert run_main(["spectrum", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["summary"] == {"total": 539, "passed": 539, "failed": 0}
