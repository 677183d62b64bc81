import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import flipswitch
from flipswitch import channels as ch
from flipswitch import cli, matcore
from flipswitch import measures as ms
from flipswitch import supermaps as sm
from flipswitch.cli import main

pytestmark = pytest.mark.usefixtures("tmp_path")


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


def column(path, name):
    header, data = read_csv(path)
    return data[:, header.index(name)]


def test_check_valid_depolarizing(tmp_path):
    out = tmp_path / "check.csv"
    code = main(["check", "--family", "dcp", "--param", "0.5", "--out", str(out)])
    assert code == 0
    header, data = read_csv(out)
    assert header[0] == "t"
    assert np.all(column(out, "cptp_valid") == 1.0)
    assert np.max(np.abs(column(out, "gamma_z"))) <= 1e-15
    assert np.all(column(out, "td_witness") == 0.0)


def test_check_invalid_depolarizing_exits_3(tmp_path):
    out = tmp_path / "check.csv"
    code = main(["check", "--family", "dcp", "--param", "0.4", "--out", str(out)])
    assert code == 3
    assert np.any(column(out, "cptp_valid") == 0.0)


def test_check_nonunital_rates(tmp_path):
    out = tmp_path / "check.csv"
    code = main(["check", "--family", "nonunital-eternal", "--param", "0", "--out", str(out)])
    assert code == 0
    ts = column(out, "t")
    gz = column(out, "gamma_z")
    idx = np.argmin(np.abs(ts - 1.0))
    assert abs(ts[idx] - 1.0) <= 1e-12
    assert abs(gz[idx] - (-0.25 * math.tanh(0.5))) <= 1e-12


def test_check_custom_family_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": "custom",
        "custom": {"lam": "exp(-2*t)", "lam_z": "exp(-t)", "lam_star": "0*t"},
        "grid": {"t_max": 5.0, "steps": 50},
    }))
    out = tmp_path / "check.csv"
    code = main(["check", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    gp = column(out, "gamma_plus")
    assert np.max(np.abs(gp - 0.5)) <= 1e-4


@pytest.mark.parametrize("family,param", [("eternal", 1.0), ("eternal", 3.0), ("nonunital-eternal", 0.5)])
def test_check_long_horizon_rates(tmp_path, family, param):
    # the rates switch to their limits at nu t = 700 (eternal) and t = 350 (nonunital-eternal)
    cut = 700.0 / param if family == "eternal" else 350.0
    out = tmp_path / "check.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["check", "--family", family, "--param", str(param),
                     "--tmax", "800", "--steps", "1600", "--out", str(out)])
    assert code == 0
    ts = column(out, "t")
    assert np.any((ts < cut) & (ts > cut - 1.0)) and np.any((ts > cut) & (ts < cut + 1.0))
    decay = np.exp(-param * ts) if family == "eternal" else np.exp(-ts)
    if family == "eternal":
        # 0.25 (2 nu / (e^{nu t} + 1) - 1), written without a growing exponential
        expected = 0.25 * (2.0 * param * decay / (1.0 + decay) - 1.0)
        g_plus = g_minus = 0.5
    else:
        # (mu^2 - 1) sinh t / (4 (1 + mu^2 + (1 - mu^2) cosh t)), divided through by cosh t
        sech = 2.0 * decay / (1.0 + decay**2)
        expected = (param**2 - 1.0) * np.tanh(ts) / (4.0 * ((1.0 + param**2) * sech + 1.0 - param**2))
        g_plus, g_minus = 0.5 * (1.0 + param), 0.5 * (1.0 - param)
    gz = column(out, "gamma_z")
    assert np.all(np.abs(gz - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))
    assert np.all(column(out, "gamma_plus") == g_plus)
    assert np.all(column(out, "gamma_minus") == g_minus)


def _custom_config(tmp_path, **entries):
    spec = {"lam": "exp(-2*t)", "lam_z": "exp(-t)", "lam_star": "0*t", **entries}
    cfg = tmp_path / "custom.json"
    cfg.write_text(json.dumps({"family": "custom", "custom": spec, "grid": {"t_max": 2.0, "steps": 20}}))
    return cfg


def test_custom_expression_unknown_name_exits_2_without_traceback(tmp_path):
    cfg = _custom_config(tmp_path, lam_star="foo*t")
    env = dict(os.environ, PYTHONPATH=str(Path(flipswitch.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "flipswitch.cli", "check", "--config", str(cfg)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and "foo" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("expr", [
    "().__class__.__base__.__subclasses__()",
    "(lambda: ().__class__.__base__)()",
    "[c for c in ().__class__.__base__.__subclasses__()]",
    "'{0.__class__}'.format(())",
    "t.__class__",
    "exp(__import__)",
    "1/0",
    "'abc'",
])
def test_custom_expression_refused(tmp_path, capsys, expr):
    code = main(["check", "--config", str(_custom_config(tmp_path, lam_star=expr))])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_custom_expression_every_listed_name_allowed(tmp_path):
    lam = "exp(-2*t) + 0*(sin(t)+cos(t)+tan(t)+sinh(t)+cosh(t)+tanh(t)+sqrt(t)+log(1+t)+abs(t)+pi)"
    out = tmp_path / "check.csv"
    assert main(["check", "--config", str(_custom_config(tmp_path, lam=lam)), "--out", str(out)]) == 0
    assert np.all(column(out, "cptp_valid") == 1.0)


@pytest.mark.parametrize("expr", ["0.1j*sin(t)", "sqrt(-1+0j)"])
def test_complex_custom_expression_exits_2(tmp_path, capsys, expr):
    out = tmp_path / "check.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["check", "--config", str(_custom_config(tmp_path, lam_star=expr)), "--out", str(out)])
    assert code == 2
    assert not [w for w in caught if issubclass(w.category, np.exceptions.ComplexWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "complex" in err and "ComplexWarning" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "measure"])
def test_non_finite_custom_triple_exits_2(tmp_path, capsys, command):
    cfg = _custom_config(tmp_path, lam="exp(-2*t)*(t-t)/(t-t)")
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "custom family is not finite at t = 0" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_reference_point_and_stability(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["evolve", "--family", "dcp", "--param", "3", "--supermap", "flip",
            "--pair", "plus-minus", "--tmax", "10", "--steps", "2000"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"\r" not in out1.read_bytes()
    header, data = read_csv(out1)
    assert header == ["t", "trace_distance", "success_prob_1", "success_prob_2"]
    ts = data[:, 0]
    idx = np.argmin(np.abs(ts - 1.0))
    expected = (4.0 * math.exp(-2.0) + math.e - 1.0) / (3.0 * math.e + 1.0)
    assert abs(data[idx, 1] - expected) <= 1e-9
    assert abs(data[idx, 2] - (3.0 + math.exp(-1.0)) / 4.0) <= 1e-9
    assert abs(data[0, 1] - 1.0) <= 1e-12  # orthogonal pair at t = 0


def test_evolve_raw_channel_has_no_prob_columns(tmp_path):
    out = tmp_path / "raw.csv"
    code = main(["evolve", "--family", "gad", "--param", "1", "--supermap", "none",
                 "--tmax", "5", "--steps", "100", "--out", str(out)])
    assert code == 0
    header, data = read_csv(out)
    assert header == ["t", "trace_distance"]
    assert np.max(np.abs(data[:, 1] - np.exp(-data[:, 0]))) <= 1e-11


def test_evolve_switch_gad_oscillation_band(tmp_path):
    out = tmp_path / "sw.csv"
    code = main(["evolve", "--family", "gad", "--param", "1", "--supermap", "switch",
                 "--tmax", "30", "--steps", "3000", "--out", str(out)])
    assert code == 0
    values = column(out, "trace_distance")
    tail = values[1500:]
    assert np.max(tail) <= 0.2 + 1e-6
    assert np.min(tail) >= 1.0 / 29.0 - 1e-6


def test_evolve_entanglement_columns(tmp_path):
    out = tmp_path / "ne.csv"
    code = main(["evolve", "--family", "eternal", "--param", "2", "--supermap", "none",
                 "--measure", "ne", "--tmax", "10", "--steps", "1000", "--out", str(out)])
    assert code == 0
    header, data = read_csv(out)
    assert header == ["t", "concurrence", "eof"]
    idx = 100  # t = 1
    assert abs(data[idx, 1] - (math.exp(-1) + math.exp(-2)) / 2.0) <= 1e-10


def test_evolve_minus_postselection_degenerates_at_zero(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"control": {"postselect": "minus"}}))
    code = main(["evolve", "--family", "dcp", "--param", "3", "--supermap", "flip",
                 "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 4
    err = capsys.readouterr().err
    assert "t = 0" in err


def test_evolve_flip_nonunital_rejected(tmp_path):
    code = main(["evolve", "--family", "gad", "--param", "1", "--supermap", "flip",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("measure", ["nd", "ne"])
def test_flip_accepts_every_family_with_vanishing_shift(tmp_path, capsys, measure):
    # nonunital-eternal(0) has lam_star = 0 at every time, so the reference
    # time flip accepts it, and so does the engine
    out = tmp_path / "signal.csv"
    code = main(["measure", "--family", "nonunital-eternal", "--param", "0", "--supermap", "flip",
                 "--measure", measure, "--tmax", "4", "--steps", "40", "--out", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    ts, signal = column(out, "t"), column(out, "signal")
    family, pair = ch.nonunital_eternal(0.0), ms.named_pair("plus-minus")
    for idx in (0, 7, 23, 40):
        flip = sm.time_flip_kraus(ch.kraus_from_params(ch.params_at(family, ts[idx])))
        if measure == "nd":
            s1, s2 = (sm.apply_postselect(flip, rho).state for rho in (pair.rho1, pair.rho2))
            expected = ms.trace_distance(s1, s2)
        else:
            state = sm.apply_postselect(sm.extend_with_ancilla(flip), matcore.density(matcore.BELL_KET)).state
            expected = ms.entanglement_of_formation(ms.concurrence(state))
        assert abs(signal[idx] - expected) <= 1e-12
    assert abs(report["value"] - ms.backflow_accumulate(ms.Trajectory(ms.TimeGrid(4.0, 40), signal)).measure_value) <= 1e-12


@pytest.mark.parametrize("mu", ["0.4", "-0.9"])
def test_flip_refuses_nonunital_eternal_with_nonzero_mu(tmp_path, capsys, mu):
    code = main(["measure", "--family", "nonunital-eternal", "--param", mu, "--supermap", "flip",
                 "--tmax", "4", "--steps", "40"])
    assert code == 2
    assert "time flip requires a unital family" in capsys.readouterr().err


def test_evolve_with_vector_control_state(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "control": {"initial": [[0.6, 0.0], [0.8, 0.0]], "postselect": "plus"},
    }))
    out = tmp_path / "v.csv"
    code = main(["evolve", "--family", "dcp", "--param", "3", "--supermap", "flip",
                 "--config", str(cfg), "--tmax", "2", "--steps", "50", "--out", str(out)])
    assert code == 0
    probs = column(out, "success_prob_1")
    assert np.all(probs > 0.5)
    bad = tmp_path / "bad_ctrl.json"
    bad.write_text(json.dumps({"control": {"initial": [0.6, 0.8]}}))
    code = main(["evolve", "--family", "dcp", "--param", "3", "--supermap", "flip",
                 "--config", str(bad), "--out", str(out)])
    assert code == 2


def test_config_error_paths(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--config", str(bad)]) == 2
    assert main(["check", "--param", "1"]) == 2  # family missing
    assert main(["evolve", "--family", "dcp"]) == 2  # param missing
    assert main(["measure", "--family", "dcp", "--param", "1", "--measure", "none"]) == 2
    assert main(["reproduce", "fig99", "--out", str(tmp_path)]) == 2
    assert main(["check", "--family", "unknown", "--param", "1"]) == 2  # argparse choice


@pytest.mark.parametrize("flag", [
    ["--supermap", "flip"], ["--measure", "nd"], ["--pair", "plus-minus"], ["--seed", "1"],
])
def test_check_refuses_flags_it_does_not_read(tmp_path, capsys, flag):
    out = tmp_path / "check.csv"
    assert main(["check", "--family", "dcp", "--param", "3", "--out", str(out)] + flag) == 2
    assert not out.exists()
    assert "unrecognized arguments" in capsys.readouterr().err


def test_reproduce_refuses_config(tmp_path, capsys):
    cfg = tmp_path / "x.json"
    cfg.write_text("{}")
    assert main(["reproduce", "fig3", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.csv"))
    assert "unrecognized arguments" in capsys.readouterr().err


def test_measure_values_are_nd_and_ne_only(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["evolve", "--family", "dcp", "--param", "3", "--measure", "none", "--out", out]) == 2
    cfg = tmp_path / "bogus.json"
    cfg.write_text(json.dumps({"family": "dcp", "param": 3.0, "measure": "bogus"}))
    assert main(["measure", "--config", str(cfg)]) == 2
    assert main(["evolve", "--config", str(cfg), "--out", out]) == 2
    assert not (tmp_path / "x.csv").exists()


def test_measure_json_report(tmp_path, capsys):
    code = main(["measure", "--family", "dcp", "--param", "3", "--supermap", "flip",
                 "--pair", "plus-minus", "--tmax", "20", "--steps", "2000"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["measure"] == "nd"
    assert report["value"] > 1e-3
    assert report["revival_intervals"]
    code = main(["measure", "--family", "dcp", "--param", "0.5", "--supermap", "flip",
                 "--pair", "plus-minus", "--tmax", "20", "--steps", "2000"])
    report = json.loads(capsys.readouterr().out)
    assert report["value"] <= 1e-9


def test_measure_search_is_deterministic(tmp_path, capsys):
    args = ["measure", "--family", "dcp", "--param", "3", "--supermap", "flip",
            "--pair", "search", "--seed", "5", "--tmax", "10", "--steps", "500"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pair": {"samples": 40, "seed": 5}}))
    assert main(args + ["--config", str(cfg)]) == 0
    first = capsys.readouterr().out
    assert main(args + ["--config", str(cfg)]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["pair"] == "search"
    assert report["samples"] == 40
    assert report["value"] > 1e-3


def test_measure_ne_report(capsys):
    code = main(["measure", "--family", "gad", "--param", "2", "--supermap", "switch",
                 "--measure", "ne", "--tmax", "10", "--steps", "1000"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["measure"] == "ne"
    assert report["value"] <= 1e-9


def test_reproduce_fig3(tmp_path, capsys):
    code = main(["reproduce", "fig3", "--out", str(tmp_path)])
    assert code == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == [
        "fig3_inset_nd_vs_omega.csv",
        "fig3_omega=0.5.csv",
        "fig3_omega=1.csv",
        "fig3_omega=3.csv",
        "fig3_omega=9.csv",
    ]
    # monotone for omega <= 1, revivals beyond
    for name, monotone in (("fig3_omega=0.5.csv", True), ("fig3_omega=1.csv", True),
                           ("fig3_omega=3.csv", False), ("fig3_omega=9.csv", False)):
        values = column(tmp_path / name, "trace_distance")
        rises = np.diff(values)
        if monotone:
            assert np.max(rises) <= 1e-10
        else:
            assert np.max(rises) > 1e-5
    ts = column(tmp_path / "fig3_omega=3.csv", "t")
    values = column(tmp_path / "fig3_omega=3.csv", "trace_distance")
    idx = np.argmin(np.abs(ts - 1.0))
    expected = (4.0 * math.exp(-2.0) + math.e - 1.0) / (3.0 * math.e + 1.0)
    assert abs(values[idx] - expected) <= 1e-9
    header, data = read_csv(tmp_path / "fig3_inset_nd_vs_omega.csv")
    assert header == ["omega", "nd"]
    assert data.shape[0] == 50
    omegas, nds = data[:, 0], data[:, 1]
    assert np.all(nds[omegas <= 1.0] <= 1e-9)
    assert np.all(nds[omegas > 1.2] > 1e-4)


def test_reproduce_fig7_growth_summary(tmp_path):
    code = main(["reproduce", "fig7", "--out", str(tmp_path)])
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "fig7_growth_summary.csv" in names
    assert not any("inset" in n for n in names)
    for alpha in (1, 2, 4, 8):
        values = column(tmp_path / f"fig7_alpha={alpha}.csv", "trace_distance")
        rises = np.diff(values)
        assert (rises > 1e-6).sum() > 50  # persistent oscillation
    header, data = read_csv(tmp_path / "fig7_growth_summary.csv")
    assert header == ["alpha", "nd_horizon", "t_max", "gain_per_period"]
    row_for_one = data[data[:, 0] == 1.0][0]
    assert abs(row_for_one[3] - (0.2 - 1.0 / 29.0)) <= 1e-3


def test_fig7_growth_summary_is_the_backflow_of_its_curves(tmp_path):
    assert main(["reproduce", "fig7", "--out", str(tmp_path), "--steps", "400"]) == 0
    grid = ms.TimeGrid(20.0, 400)
    expected = ["alpha,nd_horizon,t_max,gain_per_period"]
    for alpha in (8.0, 4.0, 2.0, 1.0):
        result = ms.nd_for_scenario(ch.gad_switchable(alpha), "switch", ms.named_pair("plus-minus"), grid)
        gain = cli._mean_rise(np.diff(result.signal.values)[200:])
        expected.append(f"{alpha:.15g},{result.measure_value:.15g},20,{gain:.15g}")
        curve = column(tmp_path / f"fig7_alpha={alpha:g}.csv", "trace_distance")
        assert np.array_equal(curve, [float(f"{x:.15g}") for x in result.signal.values])
    assert (tmp_path / "fig7_growth_summary.csv").read_text().splitlines() == expected


def test_reproduce_fig9_zero_one_pair(tmp_path):
    code = main(["reproduce", "fig9", "--out", str(tmp_path)])
    assert code == 0
    values = column(tmp_path / "fig9_mu=0.8.csv", "trace_distance")
    assert abs(values[0] - 1.0) <= 1e-12  # |0>,|1> pair starts orthogonal
    header, data = read_csv(tmp_path / "fig9_inset_nd_vs_mu.csv")
    assert header == ["mu", "nd"]
    mus, nds = data[:, 0], data[:, 1]
    assert nds[0] > nds[-1] > 0.0  # memory grows as the shift direction weakens
    probs1 = column(tmp_path / "fig9_mu=0.8.csv", "success_prob_1")
    probs2 = column(tmp_path / "fig9_mu=0.8.csv", "success_prob_2")
    assert np.max(np.abs(probs1 - probs2)) > 1e-3  # branch probabilities differ


def test_reproduce_entanglement_figvalues_decay(tmp_path):
    for fig in ("fig4", "fig6", "fig8", "fig10"):
        fig_dir = tmp_path / fig
        code = main(["reproduce", fig, "--out", str(fig_dir), "--steps", "400"])
        assert code == 0
        for curve in fig_dir.glob(f"{fig}_*=*.csv"):
            if "inset" in curve.name:
                continue
            values = column(curve, "eof")
            assert values[0] >= values[-1] - 1e-12
            assert np.max(np.diff(values)) <= 1e-9
        inset = list(fig_dir.glob("*inset*"))
        assert len(inset) == 1
        _, data = read_csv(inset[0])
        assert np.max(data[:, 1]) <= 1e-9


def test_reproduce_fig5_constant_curve(tmp_path):
    code = main(["reproduce", "fig5", "--out", str(tmp_path), "--steps", "500"])
    assert code == 0
    values = column(tmp_path / "fig5_nu=1.csv", "trace_distance")
    assert np.max(np.abs(values - 1.0)) <= 1e-11
    values = column(tmp_path / "fig5_nu=4.csv", "trace_distance")
    assert np.max(np.diff(values)) > 1e-4


def test_oracles_command(capsys):
    code = main(["oracles"])
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 24
    assert "all 24 cases PASS" in out


def test_csv_uses_15_significant_digits(tmp_path):
    out = tmp_path / "p.csv"
    main(["evolve", "--family", "dcp", "--param", "3", "--supermap", "flip",
          "--tmax", "1", "--steps", "10", "--out", str(out)])
    first_data_line = out.read_text().splitlines()[5]
    fields = first_data_line.split(",")
    assert any(len(f.replace(".", "").replace("-", "").lstrip("0")) >= 14 for f in fields[1:])


def test_csv_text_of_edge_values_and_flags(tmp_path, capsys):
    values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e16, 5e-324, 0.1, 1.0 / 3.0, -2.5e-7])
    flags = np.arange(len(values)) % 3 == 0
    expected = (
        "x,flag\n0,1\n-0,0\nnan,0\ninf,1\n-inf,0\n1e+16,0\n4.94065645841247e-324,1\n"
        "0.1,0\n0.333333333333333,0\n-2.5e-07,1\n"
    )
    # the text of formatting every cell on its own as f"{float(cell):.15g}"
    assert expected == "x,flag\n" + "".join(f"{x:.15g},{float(f):.15g}\n" for x, f in zip(values, flags))
    out = tmp_path / "edge.csv"
    cli._write_csv(str(out), ["x", "flag"], [values, flags])
    assert out.read_bytes() == expected.encode()
    cli._write_csv(None, ["x", "flag"], [values, flags])
    assert capsys.readouterr().out == expected


def test_oracles_failure_exits_5(monkeypatch, capsys):
    monkeypatch.setattr(cli, "ORACLE_TOL", 0.0)
    assert main(["oracles"]) == 5
    out = capsys.readouterr().out
    assert "cases FAIL" in out and "PASS" not in out
