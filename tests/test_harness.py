"""End-to-end checks of the command line interface via cli.main()."""

import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import splitgrad
from splitgrad import algorithms, cli, verify
from splitgrad.algorithms import StoppingRule, make_stepper, run
from splitgrad.analysis import energy_series
from splitgrad.cases import all_cases
from splitgrad.objectives import f2


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def test_run_trajectory_and_energy_column(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["run", "--s", "0.1", "--record-energy", "--out", str(out)])
    assert rc == 0
    rep = _report(out)
    assert rep["objective"] == "f2" and rep["algorithm"] == "agm2"
    assert rep["termination"] == "tolerance_met" and rep["stop"] == "known_min_f"
    header, rows = _read_csv(out / "trajectory.csv")
    assert header == ["n", "x0", "x1", "f", "fgap", "gradnorm", "v0", "v1", "E"]
    assert len(rows) == rep["n_final"] + 1
    assert rows[0][0] == "0" and rows[0][-1] == "nan"
    # t_1 = 0, so E_1 is |x0 - x*|^2 / (2s) = 5 / 0.2
    assert float(rows[1][-1]) == 25.0
    assert float(rows[0][4]) == 3.6502815398728847 - 2.0   # f(x0) - f_min


def test_run_energy_column_uses_the_method_lambda(tmp_path):
    # igahd steps with lambda_n = beta sqrt(s); the E column must use it too
    out = tmp_path / "o"
    rc = cli.main(["run", "--algorithm", "igahd", "--beta", "1", "--s", "0.05",
                   "--max-iter", "300", "--record-energy", "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out / "trajectory.csv")
    traj, _ = run(make_stepper("igahd", 0.05, beta=1.0), f2(), [1.0, -2.0], 0.05,
                  StoppingRule("known_min_f", 1e-10), max_iter=300)
    assert len(rows) == traj.n_final + 1

    def lam(value):
        return lambda n: (None, np.full(np.shape(n), value), None, None)

    want = energy_series(traj, 0.05, 3.0, lam(np.sqrt(0.05)), x_star=np.zeros(2)).e_seq
    assert [float(r[-1]) for r in rows[1:]] == list(want)
    without = energy_series(traj, 0.05, 3.0, lam(0.0), x_star=np.zeros(2)).e_seq
    assert not np.array_equal(want, without)


def test_run_rerun_is_byte_identical(tmp_path):
    args = ["run", "--algorithm", "igahd", "--beta", "1.0", "--s", "0.05",
            "--max-iter", "400"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    for name in ("trajectory.csv", "report.json", "report.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algorithm": "pim", "gamma": 1.0, "s": 0.05}))
    out = tmp_path / "o"
    rc = cli.main(["run", "--config", str(cfg), "--objective", "f1",
                   "--s", "0.02", "--out", str(out)])
    assert rc == 0
    rep = _report(out)
    assert rep["algorithm"] == "pim"
    assert rep["objective"] == "f1"
    assert rep["s"] == 0.02            # flag beats config
    assert rep["fgap_final"] <= 1e-9


def test_run_schedule_reports_admissibility(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["run", "--algorithm", "lt_s_igahd", "--schedule", "e25",
                   "--schedule-params", '{"beta": 0.1, "b": 2.0, "mu": 0.1}',
                   "--s", "0.1", "--out", str(out)])
    assert rc == 0
    rep = _report(out)
    for key in ("n1", "n2", "n_prime", "n_threshold",
                "assumption_i_holds_from", "assumption_ii_exact"):
        assert key in rep
    assert rep["assumption_ii_exact"] is True
    assert rep["n_threshold"] >= rep["n1"]


def test_run_rejects_bad_stepsize(tmp_path, capsys):
    rc = cli.main(["run", "--objective", "f1", "--s", "0.3",
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_run_rejects_bad_beta(tmp_path, capsys):
    rc = cli.main(["run", "--algorithm", "lt_s_igahd", "--schedule", "e25",
                   "--schedule-params", '{"beta": 0.8, "b": 1.0, "mu": 0.0}',
                   "--s", "0.04", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "beta" in capsys.readouterr().err


def test_run_schedule_stepper_needs_schedule(tmp_path, capsys):
    rc = cli.main(["run", "--algorithm", "lt_s_igahd", "--s", "0.1",
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_verify_suite_exit_codes(capsys):
    assert cli.main(["verify", "fixed-points"]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("suite", ["all", "lemmas"])
def test_verify_negative_seed_exits_2_before_any_suite(capsys, monkeypatch, suite):
    ran = []
    monkeypatch.setattr(verify, "SUITES", {name: lambda seed, name=name: ran.append(name) or []
                                           for name in verify.SUITES})
    _exit_2_one_line(capsys, ["verify", suite, "--seed", "-1"],
                     "seed must be a non-negative integer, got -1")
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -3$"):
        verify.run_suite(suite, seed=-3)
    assert ran == []


_NO_NUMPY_RANDOM = """
import contextlib, io, sys
import splitgrad.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = splitgrad.cli.main(["verify", "all"])
print(rc, "numpy.random" in sys.modules)
"""


def _fresh_python(code):
    """The standard output of `code` run in a fresh interpreter that imports this splitgrad."""
    src = str(Path(splitgrad.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_verify_all_loads_no_numpy_random():
    # the suites draw from the standard library's generator, which the
    # command line has loaded already; numpy.random costs some 5 MB resident
    assert _fresh_python(_NO_NUMPY_RANDOM).split() == ["0", "False"]


def _cpus(monkeypatch, count):
    """Make `verify` see `count` CPUs that this process may run on."""
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: count)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [verify.DEFAULT_SEED, 11])
def test_verify_all_in_a_pool_gives_the_in_process_checks(monkeypatch, seed):
    _cpus(monkeypatch, 1)
    alone = verify.run_suite("all", seed)
    _cpus(monkeypatch, 2)
    pooled = verify.run_suite("all", seed)
    _no_child_left()
    assert pooled == alone


def test_verify_all_runs_replaced_suites_in_this_process(monkeypatch):
    # a replacement may record into this process (a tracer's spans), so it runs here
    _cpus(monkeypatch, 2)
    suites = {name: lambda seed, name=name: [verify.CheckResult(name, True, str(os.getpid()))]
              for name in verify.SUITES}
    suites["lemmas"] = lambda seed: [verify.CheckResult("sentinel", False, str(seed))]
    monkeypatch.setattr(verify, "SUITES", suites)
    results = verify.run_suite("all", 5)
    assert [r.name for r in results] == [n if n != "lemmas" else "sentinel" for n in suites]
    assert results[list(suites).index("lemmas")] == verify.CheckResult("sentinel", False, "5")
    assert {r.detail for r in results if r.name != "sentinel"} == {str(os.getpid())}
    _no_child_left()


def test_verify_all_pool_raises_a_workers_error_and_leaves_no_child(monkeypatch, capsys):
    # the suites stay this module's own, so they run in the pool; the symplectic
    # suite's step raises in whichever worker runs it
    _cpus(monkeypatch, 2)

    def bad_step(*args):
        raise ValueError(f"bad step in pid {os.getpid()}")

    monkeypatch.setattr(verify, "symplectic_euler", bad_step)
    assert cli.main(["verify", "all", "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad step in pid ") and err.count("\n") == 1
    assert int(err.split()[-1]) != os.getpid()
    _no_child_left()


_NO_POOL_MODULES = """
import sys
import splitgrad.cli
print(sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules))
"""


def test_the_command_line_loads_no_pool_modules():
    # verify all imports them when it starts its pool; every other command never pays
    assert _fresh_python(_NO_POOL_MODULES).split() == ["[]"]


@pytest.mark.parametrize("size,shape", [(None, ()), (1, (1,)), (7, (7,)), ((3, 4), (3, 4)),
                                        ((2, 3, 5), (2, 3, 5))])
def test_seeded_draws_repeat_and_have_the_asked_shape(size, shape):
    def draw(seed):
        rng = verify._Draws(seed)
        return [rng.uniform(-2.0, 3.0, size), rng.normal(2.0, size or 1), rng.integer(2, 6)]

    first = draw(11)
    for a, b in zip(first, draw(11)):
        assert np.array_equal(a, b)
    assert not np.array_equal(first[0], draw(12)[0])
    assert np.shape(first[0]) == shape and np.shape(first[1]) == (shape or (1,))
    assert 2 <= first[2] < 6


def test_seeded_uniforms_lie_in_the_half_open_interval():
    rng = verify._Draws(0)
    u = rng.uniform(0.0, 1.0, 100_000)
    assert u.min() >= 0.0 and u.max() < 1.0 and u.dtype == np.float64
    hi = np.linspace(0.5, 4.0, 1000)
    v = rng.uniform(0.25, hi, 1000)   # a bound per sample, as suite_lemmas draws gamma
    assert np.all(v >= 0.25) and np.all(v < hi)
    assert 0.49 < u.mean() < 0.51 and abs(rng.normal(1.0, 100_000).std() - 1.0) < 0.01


def test_table_subset_and_rerun(tmp_path):
    args = ["table", "--table", "1"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    header, rows = _read_csv(a / "tables.csv")
    assert header[:6] == ["case", "table", "group", "objective", "schedule", "mu"]
    for col in ("below_print_precision", "match_nprime", "n2_at_stop",
                "nprime_alt", "ref_n2", "match_n"):
        assert col in header
    assert rows and all(r[header.index("table")] == "1" for r in rows)
    # at s = 0.1 every run stops well above float noise but below epsilon
    assert all(r[header.index("below_print_precision")] == "false" for r in rows)
    assert all(r[header.index("match_nprime")] == "true" for r in rows)
    rep = _report(a)
    assert rep["rows"] == len(rows) and rep["tolerance_met"] == len(rows)
    assert (a / "tables.csv").read_bytes() == (b / "tables.csv").read_bytes()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


# SHA-256 of the files `table --infer-s` writes for all 28 recorded rows,
# recorded from the runner that took each scanned stepsize as its own run
INFER_S_GOLDEN = {
    "tables.csv": "f600a131e22ccb87ab32e66f4673a86d0e95507edff5aa7f67234cbf860fb694",
    "report.json": "9d0323b40665e7b2467ce537f76caf83839e5c8f3474f047622a11a6666bb33f",
    "report.txt": "ec523752ab1c51c37803a90c64dd7561eee178fec0fd476862754c9e4f7ef9f3",
}


def test_table_infer_s_golden(tmp_path, capsys):
    out = tmp_path / "t"
    assert cli.main(["table", "--infer-s", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    header, rows = _read_csv(out / "tables.csv")
    assert len(rows) == 28 and header[-2:] == ["s_best", "n2_at_stop_best"]
    for name, want in INFER_S_GOLDEN.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name


def test_table_infer_s_scans_each_row_as_its_own_call(tmp_path, monkeypatch):
    # two rows on f1 at epsilon 1e-10 and one at 1e-6, and two rows on f2
    cases = list(all_cases())
    rows = [cases[0], cases[5], dataclasses.replace(cases[1], epsilon=1e-6),
            cases[8], cases[13]]
    batches = []
    run_methods = algorithms.run_methods

    def counted(obj, cells, *args, **kwargs):
        batches.append((obj.name, len(cells)))
        return run_methods(obj, cells, *args, **kwargs)

    monkeypatch.setattr(algorithms, "run_methods", counted)

    def scans(picked, out):
        argv = ["table", "--infer-s", "--cases",
                json.dumps([dataclasses.asdict(c) for c in picked]), "--out", str(out)]
        assert cli.main(argv) == 0
        _, got = _read_csv(out / "tables.csv")
        return [r[-2:] for r in got]

    together = scans(rows, tmp_path / "all")
    # the rows themselves, then one scan batch per (objective, epsilon)
    assert batches == [("f1", 2), ("f1", 1), ("f2", 2), ("f1", 120), ("f1", 60), ("f2", 120)]
    alone = [scans([case], tmp_path / f"row{k}")[0] for k, case in enumerate(rows)]
    assert together == alone
    assert all(s != "nan" for s, _ in together)


def test_sweep_isolates_failing_cells(tmp_path):
    args = ["sweep", "--schedule", "e25", "--s", "0.04", "--max-iter", "2000",
            "--grid", '{"beta": [0.05, 0.8], "b": [1.0]}']
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    header, rows = _read_csv(a / "sweep.csv")
    assert header[:2] == ["b", "beta"]           # grid keys, sorted
    assert len(rows) == 2
    status = {float(r[header.index("beta")]): r[header.index("status")]
              for r in rows}
    assert status == {0.05: "ok", 0.8: "error"}
    bad = next(r for r in rows if r[header.index("status")] == "error")
    assert bad[header.index("message")].startswith("ValueError")
    assert bad[header.index("n_final")] == "-1"
    rep = _report(a)
    assert rep["cells"] == 2 and rep["errors"] == 1
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


# SHA-256 of sweep.csv on a 100-cell e24 grid at s = 0.1, whose 20 cells with
# mu < 0 are error rows; recorded from the runner that ran each cell on its own
SWEEP_GRID = ('{"mu": [-1.0, 0.0, 0.01, 0.5, 1.0], "a": [0.5, 2.0, 4.0, 10.0], '
              '"b": [0.25, 1.0, 5.0, 10.0, 50.0]}')
SWEEP_GOLDEN = {
    "f1": "736de378d120778c1826d519c98387584df36f68e20fcd1247e11f81fbf0fb22",
    "f2": "732318102196edbfb81cf1296ebfca25cfdfcfbdddf5daf403f3f806f5999282",
}


@pytest.mark.parametrize("objective", ["f1", "f2"])
def test_sweep_golden(tmp_path, objective):
    out = tmp_path / objective
    assert cli.main(["sweep", "--objective", objective, "--schedule", "e24", "--s", "0.1",
                     "--grid", SWEEP_GRID, "--out", str(out)]) == 0
    rep = _report(out)
    assert rep["cells"] == 100 and rep["errors"] == 20 and "workers" not in rep
    digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
    assert digest == SWEEP_GOLDEN[objective]


def test_sweep_cell_errors_keep_their_messages(tmp_path):
    out = tmp_path / "o"
    assert cli.main(["sweep", "--schedule", "e25", "--s", "0.04", "--out", str(out), "--grid",
                     '{"beta": [0.05, 0.8], "b": [1.0, "x"], "mu": [-1, 0]}']) == 0
    header, rows = _read_csv(out / "sweep.csv")
    messages = {tuple(r[:3]): r[header.index("message")] for r in rows}
    assert messages[("1", "0.050000000000000003", "0")] == ""
    assert messages[("1", "0.050000000000000003", "-1")] == \
        "ValueError: mu must be nonnegative, got -1"
    assert messages[("1", "0.80000000000000004", "0")] == \
        "ValueError: beta must lie in (0, 2*sqrt(s)) = (0, 0.4), got 0.8"
    assert messages[("x", "0.050000000000000003", "0")] == \
        "TypeError: '<=' not supported between instances of 'str' and 'float'"
    assert cli.main(["sweep", "--schedule", "e24", "--s", "5", "--grid", '{"mu": [0.0]}',
                     "--out", str(out)]) == 0
    _, (row,) = _read_csv(out / "sweep.csv")
    assert row[1] == "error" and row[-1] == ("ValueError: stepsize s must lie strictly inside "
                                             "(0, 0.707107) for objective 'f2', got 5.0")


def test_sweep_coeffs_key_of_a_family_is_an_error_row(tmp_path):
    # a family schedule has no coefficient map to replace: each cell is an
    # error row with the message, not an ok row that ignored the key
    out = tmp_path / "o"
    assert cli.main(["sweep", "--schedule", "e25", "--grid",
                     '{"beta": [0.1], "coeffs": [1, 2]}', "--out", str(out)]) == 0
    header, rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 2
    for row in rows:
        assert row[header.index("status")] == "error"
        assert row[header.index("message")] == \
            "ValueError: schedule 'e25' takes no `coeffs`; only 'custom' does"


@pytest.mark.parametrize("key,option", [("s", "--s"), ("alpha", "--alpha"),
                                        ("label", "--schedule")])
def test_sweep_grid_key_of_a_command_option_exits_2(tmp_path, capsys, key, option):
    # s, alpha and the label are whole-command input that make_schedule also
    # takes by keyword: refused before any cell runs, not an error row per cell
    out = tmp_path / "o"
    assert cli.main(["sweep", "--schedule", "e24", "--grid", f'{{"{key}": [0.1, 0.2]}}',
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: grid key '{key}' cannot be swept: {option} sets it for every cell\n"
    assert not out.exists()


def test_sweep_nan_parameter_is_an_error_row(tmp_path):
    # a NaN shift fails the schedule's checks; it does not run as a number
    out = tmp_path / "o"
    assert cli.main(["sweep", "--schedule", "e26", "--grid", '{"b": [NaN, 1.0]}',
                     "--out", str(out)]) == 0
    header, rows = _read_csv(out / "sweep.csv")
    status = [(r[0], r[header.index("status")], r[header.index("message")]) for r in rows]
    assert status == [("nan", "error", "ValueError: shifts must be nonnegative, got a=0.0, "
                                       "b=nan"),
                      ("1", "ok", "")]
    assert _report(out)["errors"] == 1


def test_sweep_infinite_parameter_is_an_error_row(tmp_path):
    # JSON's 1e400 reads as inf, which no family takes for a, b or mu
    out = tmp_path / "o"
    assert cli.main(["sweep", "--schedule", "e25", "--grid", '{"beta": [0.1], "b": [1e400]}',
                     "--out", str(out)]) == 0
    header, rows = _read_csv(out / "sweep.csv")
    assert [(r[header.index("status")], r[header.index("message")]) for r in rows] == [
        ("error", "ValueError: b must be finite, got inf")]
    assert _report(out)["errors"] == 1


@pytest.mark.parametrize("extra,needle", [
    (["--objective", "bogus"], "unknown objective 'bogus'"),
    (["--x0", "1,2,3"], "dimension 2"),
    (["--x0", "inf,0"], "finite"),
    (["--epsilon", "0"], "epsilon must be positive"),
])
def test_sweep_whole_command_input_exits_2(tmp_path, capsys, extra, needle):
    _exit_2_one_line(capsys, ["sweep", "--schedule", "e24", "--grid", '{"mu": [0.0, -1.0]}',
                              "--out", str(tmp_path / "o")] + extra, needle)
    assert not (tmp_path / "o").exists()


def _sweep_row(out):
    header, (row,) = _read_csv(out / "sweep.csv")
    return dict(zip(header, row))


@pytest.mark.parametrize("argv,read", [
    (["sweep", "--schedule", "e24", "--grid", '{"mu": [0.0]}'], _sweep_row),
    (["run", "--algorithm", "lt_s_igahd", "--schedule", "e24", "--schedule-params",
      '{"mu": 0.0}'], lambda out: json.loads((out / "report.json").read_text())),
], ids=["sweep", "run"])
def test_alpha_above_1000_gets_its_admissibility_scan(tmp_path, argv, read):
    out = tmp_path / "o"
    with np.errstate(over="ignore"):   # a_n = (n - alpha)/n drives the run to diverge
        assert cli.main(argv + ["--alpha", "2000", "--out", str(out)]) == 0
    assert float(read(out)["n1"]) == 1999.0


def test_alpha_past_the_longest_scan_exits_2(tmp_path, capsys):
    with np.errstate(over="ignore"):
        _exit_2_one_line(capsys, ["sweep", "--schedule", "e24", "--grid", '{"mu": [0.0]}',
                                  "--alpha", "1e6", "--out", str(tmp_path / "o")],
                         "admissibility scan past n = 100000")


def test_ode_compare_outputs(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["ode-compare", "--dt", "0.05", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "ode_compare.csv")
    assert header == ["dt", "sup_gap", "order"]
    assert len(rows) == 3
    assert rows[0][2] == "nan"
    rep = _report(out)
    assert 3.5 <= rep["order_1"] <= 4.5
    assert 3.5 <= rep["order_2"] <= 4.5
    assert rep["sup_gap_dt"] > rep["sup_gap_dt2"] > rep["sup_gap_dt4"]
    t_header, t_rows = _read_csv(out / "trajectory.csv")
    assert t_header == ["t", "x0", "x1", "v0", "v1", "fgap"]
    assert float(t_rows[0][0]) == 1.0
    assert float(t_rows[-1][0]) == pytest.approx(10.0)


def test_sweep_long_inline_grid_is_parsed_as_json(tmp_path, capsys):
    # longer than the filename limit, so it must never reach the file system
    grid = json.dumps({"beta": [0.05] * 60, "b": 1.0})
    assert len(grid) > 255
    rc = cli.main(["sweep", "--schedule", "e25", "--s", "0.04", "--grid", grid,
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "grid entry 'b'" in capsys.readouterr().err


def test_sweep_missing_grid_file(tmp_path, capsys):
    rc = cli.main(["sweep", "--schedule", "e25", "--grid", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_run_schedule_missing_beta(tmp_path, capsys):
    rc = cli.main(["run", "--algorithm", "lt_s_igahd", "--schedule", "e25",
                   "--schedule-params", '{"b": 2.0}', "--s", "0.1",
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "beta" in capsys.readouterr().err


def test_run_quadratic_without_matrix(tmp_path, capsys):
    rc = cli.main(["run", "--objective", "quadratic", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "a_matrix" in capsys.readouterr().err


def test_run_nag_alpha_one_exits_2(tmp_path, capsys):
    # every method whose coefficients use alpha needs alpha > 1, as the
    # constructions do; nag steps as agm2
    for name in ("nag", "agm2", "lt_se1"):
        _exit_2_one_line(capsys, ["run", "--algorithm", name, "--alpha", "1",
                                  "--out", str(tmp_path / "o")], "--alpha")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("alpha", ["1", "0.5"])
def test_run_energy_with_alpha_at_most_one_exits_2(tmp_path, capsys, alpha):
    # pim's steps take any alpha, but the energy's clock needs alpha > 1:
    # the command fails before the run and writes nothing
    _exit_2_one_line(capsys, ["run", "--algorithm", "pim", "--alpha", alpha,
                              "--record-energy", "--out", str(tmp_path / "o")],
                     "--alpha must exceed 1 for the energy")
    assert not (tmp_path / "o").exists()


def _exit_2_one_line(capsys, argv, needle):
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("argv", [
    ["run", "--algorithm", "lt_s_igahd", "--schedule", "custom"],
    ["run", "--algorithm", "lt_s_igahd", "--schedule", "e99"],
    ["sweep", "--schedule", "custom", "--grid", '{"mu": [0.0]}'],
    ["sweep", "--schedule", "e99", "--grid", '{"mu": [0.0]}'],
], ids=["run-custom", "run-unknown", "sweep-custom", "sweep-unknown"])
def test_schedule_flag_outside_the_families_exits_2(tmp_path, capsys, argv):
    # a command line cannot pass the coefficient map a custom schedule needs
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv + ["--out", str(tmp_path / "o")])
    assert exit_info.value.code == 2
    assert "argument --schedule: invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("label", ["custom", "e99"])
def test_config_schedule_outside_the_families_exits_2(tmp_path, capsys, label):
    config = json.dumps({"algorithm": "lt_s_igahd", "schedule": label})
    _exit_2_one_line(capsys, ["run", "--config", config, "--out", str(tmp_path / "o")],
                     f"--schedule must be one of ('e24', 'e25', 'e26'), got '{label}'")
    assert not (tmp_path / "o").exists()


def test_run_config_objective_params_must_be_an_object(tmp_path, capsys):
    _exit_2_one_line(capsys, ["run", "--config", '{"objective_params": 5}',
                              "--out", str(tmp_path / "o")], "objective_params")


def test_run_rejects_nonpositive_max_iter(tmp_path, capsys):
    _exit_2_one_line(capsys, ["run", "--max-iter", "-5", "--out", str(tmp_path / "o")],
                     "max_iter")
    assert not (tmp_path / "o").exists()


def test_table_missing_cases_file(tmp_path, capsys):
    _exit_2_one_line(capsys, ["table", "--cases", str(tmp_path / "none.json"),
                              "--out", str(tmp_path / "o")], "none.json")


@pytest.mark.parametrize("change,needle", [
    ({"bogus": 1.0}, "bogus"),                  # unknown key
    ({"ref_n": None}, "ref_n"),                 # missing key (removed below)
    ({"mu": "small"}, "mu"),                    # wrong type
])
def test_table_cases_with_a_bad_row(tmp_path, capsys, change, needle):
    row = {"table": 1, "group": "A1", "objective": "f1", "schedule": "e24", "mu": 0.01,
           "a": 4.0, "b": 10.0, "epsilon": 1e-10, "ref_error": 1.22e-11, "ref_n2": 3.91,
           "ref_nprime": -3.56, "ref_n": 3.91}
    row.update(change)
    row = {k: v for k, v in row.items() if v is not None}
    path = tmp_path / "cases.json"
    path.write_text(json.dumps([row]))
    for cases in (str(path), json.dumps([row])):   # a file, or the JSON itself
        _exit_2_one_line(capsys, ["table", "--cases", cases, "--out", str(tmp_path / "o")],
                         needle)


@pytest.mark.parametrize("key,needle", [("mu", "mu must be nonnegative, got nan"),
                                        ("a", "got a=nan"), ("b", "b=nan")])
def test_table_cases_with_a_nan_parameter_exit_2(tmp_path, capsys, key, needle):
    row = {"table": 1, "group": "A1", "objective": "f1", "schedule": "e24", "mu": 0.01,
           "a": 4.0, "b": 10.0, "epsilon": 1e-10, "ref_error": 1.22e-11, "ref_n2": 3.91,
           "ref_nprime": -3.56, "ref_n": 3.91, key: float("nan")}
    # json writes the NaN as the bare token NaN, which the loader reads back
    _exit_2_one_line(capsys, ["table", "--cases", json.dumps([row]),
                              "--out", str(tmp_path / "o")], needle)


@pytest.mark.parametrize("extra", [[], ["--infer-s"]], ids=["table", "infer-s"])
def test_table_with_no_rows_exits_2(tmp_path, capsys, extra):
    _exit_2_one_line(capsys, ["table", "--cases", "[]", *extra, "--out", str(tmp_path / "o")],
                     "no table rows to run")
    assert not (tmp_path / "o").exists()


def test_run_with_f_not_finite_at_x0_exits_2(tmp_path, capsys):
    _exit_2_one_line(capsys, ["run", "--objective", "f1", "--x0=1e200,-2",
                              "--out", str(tmp_path / "o")], "not finite at x0")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra,n_rows", [(["--alpha", "2000", "--table", "1"], 8),
                                          (["--max-iter", "1"], 28)],
                         ids=["alpha-2000", "max-iter-1"])
def test_table_writes_rows_whose_n2_is_undefined(tmp_path, extra, n_rows):
    out = tmp_path / "o"
    assert cli.main(["table", "--out", str(out)] + extra) == 0
    header, rows = _read_csv(out / "tables.csv")
    assert len(rows) == n_rows and _report(out)["rows"] == n_rows
    undefined = [r for r in rows if r[header.index("n2_at_stop")] == "nan"]
    assert undefined and all(r[header.index("match_n2")] == "false" for r in undefined)


def test_diverging_runs_print_no_warnings(tmp_path):
    # a diverging run overflows on its way out; the engine reports it as
    # diverged, and numpy's overflow warnings stay quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["table", "--alpha", "2000", "--table", "1",
                         "--out", str(tmp_path / "t")]) == 0
        assert cli.main(["run", "--alpha", "2000", "--out", str(tmp_path / "r")]) == 0
    assert _report(tmp_path / "r")["termination"] == "diverged"


def test_table_cases_inline_json(tmp_path):
    row = {"table": 3, "group": "D1", "objective": "f1", "schedule": "e26", "mu": 0.0,
           "a": 0.25, "b": 3.5, "epsilon": 1e-10, "ref_error": 3.37e-11, "ref_n2": 3.18,
           "ref_nprime": 0.83, "ref_n": 3.18}
    out = tmp_path / "o"
    assert cli.main(["table", "--cases", json.dumps([row]), "--out", str(out)]) == 0
    _, rows = _read_csv(out / "tables.csv")
    assert [r[0] for r in rows] == ["t3-D1-mu0-a0.25-b3.5"]


@pytest.mark.parametrize("argv,needle", [
    (["--algorithm", "agm2", "--schedule", "e25", "--schedule-params",
      '{"beta": 0.1, "b": 2.0, "mu": 0.1}'], "--schedule applies only to lt_s_igahd"),
    (["--algorithm", "agm2", "--schedule-params", '{"beta": 0.1}'], "--schedule-params"),
    (["--algorithm", "lt_se1", "--beta", "0.5"], "--beta applies only to igahd"),
    (["--config", '{"beta": 0.5}'], "not to agm2"),
    (["--algorithm", "igahd", "--gamma", "0.5"], "--gamma applies only to pim"),
    (["--config", '{"algorithm": "nag", "gamma": 0.5}'], "--gamma"),
], ids=["schedule", "schedule-params", "beta", "beta-config", "gamma", "gamma-config"])
def test_run_rejects_an_option_its_method_does_not_take(tmp_path, capsys, argv, needle):
    _exit_2_one_line(capsys, ["run", "--out", str(tmp_path / "o")] + argv, needle)
    assert not (tmp_path / "o").exists()


# The options of `run` that only some methods take: the option, its
# arguments, and the methods that take it as they are named in its message.
_METHOD_OPTIONS = {
    "beta": (["--beta", "0.5"], "igahd and polyak_igahd"),
    "gamma": (["--gamma", "0.5"], "pim"),
    "schedule": (["--schedule", "e25", "--schedule-params", '{"beta": 0.1, "b": 2.0}'],
                 "lt_s_igahd"),
}


@pytest.mark.parametrize("option", sorted(_METHOD_OPTIONS))
@pytest.mark.parametrize("name", algorithms.ALGORITHM_NAMES)
def test_run_takes_an_option_exactly_when_its_method_does(tmp_path, capsys, name, option):
    given, takers = _METHOD_OPTIONS[option]
    argv = ["run", "--algorithm", name, "--max-iter", "5", "--out", str(tmp_path / "o")] + given
    if name == "lt_s_igahd" and option != "schedule":   # it runs only with a schedule
        argv += _METHOD_OPTIONS["schedule"][0]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    if name in takers.split(" and "):
        assert rc == 0 and err == ""
    else:
        assert rc == 2
        assert err == f"error: --{option} applies only to {takers}, not to {name}\n"
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,needle", [
    (["run", "--epsilon", "nan"], "--epsilon"),
    (["run", "--alpha", "nan"], "--alpha"),
    (["run", "--s", "inf"], "--s"),
    (["run", "--algorithm", "pim", "--gamma", "nan"], "--gamma"),
    (["run", "--algorithm", "igahd", "--beta=-inf"], "--beta"),
    (["run", "--config", '{"epsilon": "1e-10"}'], "--epsilon"),
    (["run", "--config", '{"s": 1%s}' % ("0" * 400)], "--s"),
    (["run", "--x0", "nan,0"], "--x0"),
    (["run", "--config", '{"algorithm": 5}'], "--algorithm"),
    (["run", "--config", '{"x0": [1, "a"]}'], "--x0"),
    (["run", "--config", '{"x0": [1, null]}'], "--x0"),
    (["run", "--config", '{"x0": 5}'], "--x0"),
    (["run", "--algorithm", "lt_s_igahd", "--schedule", "e25", "--schedule-params",
      '{"beta": "x", "b": 1, "mu": 0.1}'], "--schedule-params beta"),
    (["run", "--algorithm", "lt_s_igahd", "--schedule", "e24", "--schedule-params",
      '{"mu": NaN}'], "--schedule-params mu"),
    (["table", "--alpha", "nan"], "--alpha"),
    (["table", "--s", "inf"], "--s"),
    (["ode-compare", "--beta", "nan"], "--beta"),
    (["ode-compare", "--dt", "nan"], "--dt"),
    (["ode-compare", "--t1", "inf"], "--t1"),
    (["ode-compare", "--v0", "0,inf"], "--v0"),
    (["ode-compare", "--t0", "0"], "initial time must be positive"),
    (["run", "--config", '{"max_iter": 1.5}'], "max_iter"),
    (["run", "--config", '{"max_iter": true}'], "max_iter"),
    (["run", "--config", '{"max_iter": "abc"}'], "max_iter"),
    # a max_iter run records max_iter + 1 rows, which no memory can hold
    (["run", "--stop", "max_iter", "--max-iter", str(10**15)], "max_iter = 10"),
    (["run", "--stop", "max_iter", "--max-iter", str(10**18)], "max_iter = 10"),
    (["run", "--x0", "1,2,3"], "--x0 must be a point of dimension 2"),
    (["run", "--config", '{"x0": []}'], "--x0 must be a point of dimension 2"),
    (["ode-compare", "--x0", "1,2,3"], "--x0 must be a point of dimension 2"),
    (["ode-compare", "--v0", "1"], "--v0 must be a point of dimension 2"),
    (["sweep", "--schedule", "e24", "--grid", '{"mu": [0.0]}', "--x0", "1"],
     "--x0 must be a point of dimension 2"),
    # a config key that no run option reads would be ignored
    (["run", "--config", '{"stepsize": 0.5, "algoritm": "nag"}'],
     "--config keys that are not run options: algoritm, stepsize"),
    (["run", "--config", '{"record_energy": "yes"}'], "--record-energy must be true or false"),
    (["run", "--config", '{"objective": ["f1"]}'], "unknown objective ['f1']"),
    (["run", "--config", '{"objective": "quadratic", "objective_params": '
                         '{"a_matrix": [[1, NaN], [NaN, 1]]}}'],
     "quadratic matrix entries must be finite"),
    (["run", "--config", '{"objective": "quadratic", "objective_params": '
                         '{"a_matrix": [[1, Infinity], [Infinity, 1]]}}'],
     "quadratic matrix entries must be finite"),
    (["run", "--config", '{"objective": "quadratic", "objective_params": '
                         '{"a_matrix": [[1, 0], [0, 1]], "b_vector": [NaN, 0]}}'],
     "linear term entries must be finite"),
    # pim_construction's rule for its friction: a negative one diverged
    (["run", "--algorithm", "pim", "--gamma", "-5"], "gamma must be nonnegative and finite"),
    (["run", "--config", '{"algorithm": "pim", "gamma": -1}'],
     "gamma must be nonnegative and finite"),
    # a negative beta anti-damps: igahd ran away, ode-compare fitted orders to blown-up gaps
    (["run", "--algorithm", "igahd", "--beta", "-50", "--s", "0.1"],
     "beta must be finite and nonnegative"),
    (["ode-compare", "--beta", "-5"], "beta must be finite and nonnegative"),
    # a grid with no finite step count, and one no memory can hold: both
    # fail at once, before any step
    (["ode-compare", "--dt", "1e-320"], "no finite step count"),
    (["ode-compare", "--t1", "1e18", "--dt", "1"], "cannot be allocated"),
    # its size to three digits, not as a 301-digit integer
    (["ode-compare", "--dt", "1e-300"],
     "dt = 1e-300 on [1.0, 10.0] asks for a grid of 9e+300 points, which cannot be allocated"),
    # a dt past RK4's stability bound left NaN gaps and orders, and a start at
    # f1's rest point, where the two systems agree exactly, divided by a zero gap
    (["ode-compare", "--beta", "100"],
     "the first-order averaged system went non-finite at dt = 0.01, first at t = 5.35"),
    (["ode-compare", "--x0", "0,0"],
     "the two systems agree exactly at dt = 0.01: no order to observe"),
], ids=["run-epsilon", "run-alpha", "run-s", "run-gamma", "run-beta", "run-config-string",
        "run-config-huge-int", "run-x0", "run-config-algorithm", "run-config-x0-string",
        "run-config-x0-null", "run-config-x0-number", "run-schedule-string",
        "run-schedule-nan", "table-alpha", "table-s",
        "ode-beta", "ode-dt", "ode-t1", "ode-v0", "ode-t0-zero", "run-config-max-iter-float",
        "run-config-max-iter-bool", "run-config-max-iter-string",
        "run-max-iter-unallocatable", "run-max-iter-beyond-addressing", "run-x0-length",
        "run-config-x0-empty",
        "ode-x0-length", "ode-v0-length", "sweep-x0-length", "run-config-unknown-keys",
        "run-config-record-energy-string", "run-config-objective-list",
        "run-config-quadratic-nan", "run-config-quadratic-inf",
        "run-config-quadratic-linear-nan", "run-gamma-negative", "run-config-gamma-negative",
        "run-beta-negative", "ode-beta-negative", "ode-dt-no-finite-count",
        "ode-grid-unallocatable", "ode-grid-size-in-digits", "ode-beta-past-stability",
        "ode-start-at-rest"])
def test_non_finite_or_non_numeric_options_exit_2(tmp_path, capsys, argv, needle):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _exit_2_one_line(capsys, argv + ["--out", str(tmp_path / "o")], needle)
    assert not (tmp_path / "o").exists()


def test_run_config_out_that_is_not_a_path_exits_2(tmp_path, capsys, monkeypatch):
    # --out on the command line would take precedence, so none is given
    monkeypatch.chdir(tmp_path)
    _exit_2_one_line(capsys, ["run", "--config", '{"out": 5}'], "--out must be a path, got 5")
    assert list(tmp_path.iterdir()) == []


def test_run_config_record_energy_is_the_flag(tmp_path):
    flag, config = tmp_path / "flag", tmp_path / "config"
    assert cli.main(["run", "--record-energy", "--out", str(flag)]) == 0
    assert cli.main(["run", "--config", '{"record_energy": true}', "--out", str(config)]) == 0
    assert (flag / "trajectory.csv").read_bytes() == (config / "trajectory.csv").read_bytes()



def _past_the_floats(label):
    return {"b": 1.0, "mu": 1e300, **({"beta": 0.1} if label == "e25" else {})}


def _table_row(label):
    row = dict(dataclasses.asdict(all_cases()[0]), schedule=label, mu=1e300, b=1.0)
    return ["table", "--cases", json.dumps([row])]


def _table_nprime(out):
    header, (row,) = _read_csv(out / "tables.csv")
    return float(row[header.index("nprime")])


# N' where (mu/s)^2 = 1e602 overflows: e24's and e25's closed forms pass the
# float range, e26's root sqrt(3 + (mu/s)^2) - min(a, b) is mu/s = 1e301
_PAST_THE_FLOATS_NPRIME = {"e24": np.inf, "e25": np.inf, "e26": 1e300 / 0.1}


@pytest.mark.parametrize("argv,read,label", [
    *[(["run", "--algorithm", "lt_s_igahd", "--schedule", label, "--s", "0.1",
        "--schedule-params", json.dumps(_past_the_floats(label))],
       lambda out: _report(out)["n_prime"], label) for label in ("e24", "e25", "e26")],
    (["sweep", "--schedule", "e24", "--grid", '{"mu": [1e300], "b": [1.0]}'],
     lambda out: float(_sweep_row(out)["n_prime"]), "e24"),
    *[(_table_row(label), _table_nprime, label) for label in ("e24", "e26")],
], ids=["run-e24", "run-e25", "run-e26", "sweep-e24", "table-e24", "table-e26"])
def test_threshold_past_the_float_range_exits_0(tmp_path, capsys, argv, read, label):
    # (mu/s)^2 overflows a Python float: N' is as above, with no traceback or warning
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert read(out) == _PAST_THE_FLOATS_NPRIME[label]

# `run --record-energy` on each method on f1 and f2 (lt_s_igahd with the
# README's e25 schedule) and on a definite and a singular quadratic
_E25 = ["--schedule", "e25", "--schedule-params", '{"beta": 0.1, "b": 2.0, "mu": 0.1}']
RUN_GOLDEN_ARGV = {
    **{f"{name}-{objective}": ["--objective", objective, "--algorithm", name, "--s", "0.1"]
       + (_E25 if name == "lt_s_igahd" else [])
       for name in algorithms.ALGORITHM_NAMES for objective in ("f1", "f2")},
    "quadratic-definite": ["--s", "0.1", "--config",
                           '{"objective": "quadratic", "objective_params": '
                           '{"a_matrix": [[2, 0], [0, 4]], "b_vector": [1, -1]}}'],
    "quadratic-singular": ["--s", "0.1", "--config",
                           '{"objective": "quadratic", "objective_params": '
                           '{"a_matrix": [[1, 1], [1, 1]], "b_vector": [1, 1]}}'],
}
# SHA-256 of (trajectory.csv, report.json) for each case, recorded from the
# runner that stepped `run`'s one trajectory by `make_stepper` and `run`
RUN_GOLDEN = {
    "agm2-f1": ("e3bb4d5d106fd7c1d4ff7dd5261442cb8b90fe8b48f0765eb3ae8931b68d7b63",
                "77f06e6dded4266e94aa20bcdc60d104392a58e4dd9f2acdfd079d3961cd1a62"),
    "agm2-f2": ("4771c80ada1bea1bd17cc4d7b2d71ce044a2ba63a351c0c791f47dd038b7be29",
                "b3d62d116284e93020a5322df0a8b2212403d995a01e70146ebe5b7b0d9b2a67"),
    "ardm-f1": ("cc96750c1c99bf5cf1eb22b496df0117e5227a70a730a90b727960f909427497",
                "cc2a5740b3ee7464b79e3a21dc7446dbdeff70b289b70edee7755e2bc66fddd4"),
    "ardm-f2": ("67ad146d0a529f9e247c0449ed6299aea818782c69316e2ebe854970c44b6c7f",
                "6879e6275410c3d74e494ade82c79e8d9b4ab325756d651856b285266e58f1f5"),
    "igahd-f1": ("c3d9f3328ead002a009170d11efb5ec44d557f4dc40b66baa0d2a12f3abf35d8",
                 "00f082dd9727fc6acda2f610f38f2f26167d37edb0b4a4c991e1bcc542ac73ca"),
    "igahd-f2": ("1c610e5cdcda7688d5992a5b9d3e959a25a6c4014158d0b318e17b2f940fb28f",
                 "ca2405575e16b64f409e729a24252a0ddaaa075a55e446e970464a836df15b39"),
    "lt_s_igahd-f1": ("4745ce4cb02bb54c0489e9fda1ab1469683907611e9a5019452a6ccd43e09a2a",
                      "4490d52a2a2cafdb5f2baf2df3e5b037103c4ac9d4d9b9f183657d63db5e6268"),
    "lt_s_igahd-f2": ("c8c68d436c523df3035c0fa46dcc6967a9a3b4cd6845bfb66e04fa74c04aa125",
                      "1e642284dc06002d1c22dac107d99d7958861b9c51a65140bcbf135650aebbce"),
    "lt_se1-f1": ("ce43bca8bc285e4f06c432bcc222c04db06f35b9e112d6eedda2caa22d36c506",
                  "4b9826fa097f70917e05a366caaf34ccb30f45b1429809e4d473d83095567592"),
    "lt_se1-f2": ("1ffa3cf3424843ad3e42986c417dd1ef0a4c8d91ce8ba3ccdb7e7b54d6cf3532",
                  "60c4a54bbabdece7ed732a0760951177c72b4ef11fcce9d45e6f9b132465107f"),
    "lt_se3-f1": ("3fb52f4e3efe8001c05562264794df3c09e381de5c15cc34a75a24c0efbda2fc",
                  "5d2ad31329b8cf3b0d4f1310157429cc3b64340d9d4737b20d81350366bd58d7"),
    "lt_se3-f2": ("fcac16509aca32c0e0eaf055fcac167b21a21ac7075ebc5c5f50899d195cb64a",
                  "b4ab673a31156695c254e76bd8d0147f17f4b4744891a85023a543ffa1915a94"),
    "lt_sv2-f1": ("351194b3347a94ac7c99c00b43326faf80696d912bd14af6c20188da03234b0f",
                  "ea51b95e6ce46298be87ed0778bcbd68f31f2c266d05f4fe3e8b832718a89eb5"),
    "lt_sv2-f2": ("98d80682e5ef62ba4d40d2efe333b58be868e46283314be533446722fd2b9bb7",
                  "291a81022f4dcc544b0060a785432f88577314d3101a45c743b3561ebe23fe9c"),
    "nag-f1": ("e3bb4d5d106fd7c1d4ff7dd5261442cb8b90fe8b48f0765eb3ae8931b68d7b63",
               "d482c6a2308250c6d24566d53c01a7eef17db8df8779c22db8d6e5811b6a11b5"),
    "nag-f2": ("4771c80ada1bea1bd17cc4d7b2d71ce044a2ba63a351c0c791f47dd038b7be29",
               "094977bdd2ad5db93a0c8b0e36530f75f2b81cab5906b05c82d9dbc9777628a3"),
    "pim-f1": ("882b9f3277a7271402986c3dd8ffc1a6e0b0f9f269a56e24cb35ddee6678e57d",
               "cff73e32eb7e9a58abec1e4573b2adb08b4e726402b57eec8b8fe1a35a830bd8"),
    "pim-f2": ("5af35bbd3e5d73d0e9740f15629d0f6a2d3ae39830feb1be757b9444719d3dc0",
               "1293afb6e138e326286009a1798c00992e30f3ea6043cd07f32d81eda5d68c3f"),
    "polyak_igahd-f1": ("522c0ec950a1e4d8056fd1627aa8d9f92a5cd49e791c149e6803abdbc127cc30",
                        "821141aa4fe58bb280140ee07a36d7285687c678ff43c116d4665ea255144fdc"),
    "polyak_igahd-f2": ("0af05c5753d906ce6579252c78bf4f62e23ea0bff1bc2a4029084bd3901634f1",
                        "8eba15fe2ef04744535bbbe8c88132d52727f63351af470721abbe16c14b150d"),
    "quadratic-definite": ("021ab975044227887f1aad887cfbfef115b3f518a27bc0c6ea17bee85147ae11",
                           "79d38ab0263390314c06360996a5efcd821bdf6adcdb0d90f3e284464afb1345"),
    "quadratic-singular": ("1d2c817d05abd2ca2c4db0d91872c7f07ffbb21c59b08d4925d224cc387f41a7",
                           "f4b4b5fdb4af57e76da2a5b0f014d806a3fbda3ec9e9a418a9b0bc8499b157cb"),
}


@pytest.mark.parametrize("case", sorted(RUN_GOLDEN_ARGV))
def test_run_golden(tmp_path, capsys, case):
    out = tmp_path / case
    assert cli.main(["run", "--record-energy", "--out", str(out)] + RUN_GOLDEN_ARGV[case]) == 0
    assert capsys.readouterr().err == ""
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("trajectory.csv", "report.json"))
    assert got == RUN_GOLDEN[case]
