"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to get one pass/fail line
per criterion on stdout.
"""

import math

import numpy as np
import pytest

from flipswitch import channels as ch
from flipswitch import matcore
from flipswitch import measures as ms
from flipswitch import supermaps as sm
from flipswitch.cli import main, oracle_report
from helpers import random_density, random_valid_triple, remix_kraus

DEFAULT_GRID = ms.TimeGrid(20.0, 4000)
PAIR_PM = ms.named_pair("plus-minus")
PAIR_01 = ms.named_pair("zero-one")


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_oracle_regression():
    rows = oracle_report()
    worst = max(err for _, _, err, _ in rows)
    bad = [(name, value, err) for name, value, err, ok in rows if not ok]
    _report(
        "criterion-1 oracle regression (6 closed forms, 24 cases, tol 1e-9)",
        not bad,
        f"worst max-abs-err {worst:.3e}",
    )


def test_criterion_02_flip_depolarizing_memory_threshold():
    values = {}
    for omega in (0.5, 0.75, 1.0, 1.5, 3.0, 9.0):
        r = ms.nd_for_scenario(ch.depolarizing(omega), "flip", PAIR_PM, DEFAULT_GRID)
        values[omega] = r.measure_value
    ok = all(values[o] < 1e-9 for o in (0.5, 0.75, 1.0)) and all(
        values[o] > 1e-3 for o in (1.5, 3.0, 9.0)
    )
    _report(
        "criterion-2 flip/depolarizing memory threshold at omega = 1",
        ok,
        ", ".join(f"omega={o}: {v:.3e}" for o, v in values.items()),
    )


def test_criterion_03_flip_eternal_family():
    values = {}
    for nu in (1.0, 2.0, 4.0, 9.0):
        r = ms.nd_for_scenario(ch.eternal_unital(nu), "flip", PAIR_PM, DEFAULT_GRID)
        values[nu] = r.measure_value
    ok = values[1.0] < 1e-9 and all(values[nu] > 1e-3 for nu in (2.0, 4.0, 9.0))
    _report(
        "criterion-3 flip/eternal family memoryless only at nu = 1",
        ok,
        ", ".join(f"nu={nu}: {v:.3e}" for nu, v in values.items()),
    )


def test_criterion_04_entanglement_measure_null_results():
    scenarios = []
    for omega in (0.5, 1.0, 3.0, 9.0):
        scenarios.append((f"fig4 omega={omega}", ch.depolarizing(omega), "flip"))
    for nu in (1.0, 2.0, 4.0, 9.0):
        scenarios.append((f"fig6 nu={nu}", ch.eternal_unital(nu), "flip"))
    for alpha in (1.0, 2.0, 4.0, 8.0):
        scenarios.append((f"fig8 alpha={alpha}", ch.gad_switchable(alpha), "switch"))
    for mu in (0.0, 0.4, 0.6, 0.8):
        scenarios.append((f"fig10 mu={mu}", ch.nonunital_eternal(mu), "switch"))
    worst = ("", 0.0)
    for label, family, mode in scenarios:
        value = ms.ne_for_scenario(family, mode, DEFAULT_GRID).measure_value
        if value > worst[1]:
            worst = (label, value)
    _report(
        "criterion-4 entanglement backflow vanishes in figs 4/6/8/10",
        worst[1] < 1e-9,
        f"largest N_E {worst[1]:.3e} ({worst[0] or 'all zero'})",
    )


def _switch_distance_at(family, t: float) -> float:
    k = ch.kraus_from_params(ch.params_at(family, t))
    smap = sm.switch_kraus(k, k)
    s1 = sm.apply_postselect(smap, PAIR_PM.rho1).state
    s2 = sm.apply_postselect(smap, PAIR_PM.rho2).state
    return ms.trace_distance(s1, s2)


def _golden_extremum(f, a: float, b: float, maximize: bool, iters: int = 45) -> float:
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if (fc > fd) == maximize:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return f(0.5 * (a + b))


def _post_transient_extrema(family, alpha: float):
    period = math.pi / alpha
    t0, t1 = 25.0, 25.0 + 2.2 * math.pi / alpha
    ts = np.linspace(t0, t1, int(2.2 * 30) + 1)
    values = np.array([_switch_distance_at(family, float(t)) for t in ts])
    maxima, minima = [], []
    for i in range(1, len(ts) - 1):
        if values[i] > values[i - 1] and values[i] > values[i + 1]:
            maxima.append(
                _golden_extremum(
                    lambda t: _switch_distance_at(family, t), ts[i - 1], ts[i + 1], True
                )
            )
        elif values[i] < values[i - 1] and values[i] < values[i + 1]:
            minima.append(
                _golden_extremum(
                    lambda t: _switch_distance_at(family, t), ts[i - 1], ts[i + 1], False
                )
            )
    assert maxima and minima, f"no extrema located for alpha={alpha} ({period=})"
    return maxima, minima


@pytest.mark.parametrize("alpha", (1.0, 2.0, 4.0, 8.0))
def test_criterion_05_switch_gad_oscillation(alpha):
    family = ch.gad_switchable(alpha)
    maxima, minima = _post_transient_extrema(family, alpha)
    # For t >= 25, lam and lam_z have decayed, so the channel is the replacement
    # channel onto sigma_s = diag((1+s)/2, (1-s)/2), s = 2 sin(a t)/sqrt(4+a^2).
    # Switched with |+> control and <+| post-selection it gives
    # (sigma_s + sigma_s rho sigma_s) / (1 + tr(sigma_s^2 rho)); for the
    # plus-minus pair D(s) = (1 - s^2)/(5 + s^2). The maxima are 1/5 (s = 0);
    # the minima, at s^2 = 4/(4+a^2), are a^2/(24+5a^2). The published
    # a^2/(25+4a^2) agrees only at a = 1 (1/29) and exceeds 1/5 for a > 5.
    derived_min = alpha**2 / (24.0 + 5.0 * alpha**2)
    max_dev = max(abs(v - 0.2) for v in maxima)
    min_dev = max(abs(v - derived_min) for v in minima)
    detail = (
        f"{len(maxima)} maxima within {max_dev:.2e} of 0.2; "
        f"{len(minima)} minima deviate {min_dev:.2e} from a^2/(24+5a^2) = {derived_min:.9f}"
        + (f"; observed minimum {minima[0]:.9f}" if min_dev > 1e-6 else "")
    )
    ok = max_dev <= 1e-6 and min_dev <= 1e-6
    _report(f"criterion-5 switch/gad oscillation extremes alpha={alpha:g}", ok, detail)


def test_criterion_06_switch_gad_unbounded_memory():
    half = ms.nd_for_scenario(
        ch.gad_switchable(1.0), "switch", PAIR_PM, ms.TimeGrid(20.0, 4000)
    ).measure_value
    full = ms.nd_for_scenario(
        ch.gad_switchable(1.0), "switch", PAIR_PM, ms.TimeGrid(40.0, 8000)
    ).measure_value
    _report(
        "criterion-6 switch/gad memory keeps accumulating (ratio >= 1.8)",
        full >= 1.8 * half,
        f"N_D[0,20] = {half:.4f}, N_D[0,40] = {full:.4f}, ratio {full / half:.3f}",
    )


def test_criterion_07_switch_nonunital_ordering():
    values = [
        ms.nd_for_scenario(ch.nonunital_eternal(mu), "switch", PAIR_01, DEFAULT_GRID).measure_value
        for mu in (0.0, 0.4, 0.6, 0.8)
    ]
    ok = values[0] > values[1] > values[2] > values[3] > 0.0
    _report(
        "criterion-7 switch/non-unital memory grows as mu -> 0",
        ok,
        "N_D(mu=0, .4, .6, .8) = " + ", ".join(f"{v:.4f}" for v in values),
    )


def test_criterion_08_raw_channels_are_memoryless():
    families = (
        [ch.depolarizing(o) for o in (0.5, 1.0, 3.0, 9.0)]
        + [ch.eternal_unital(n) for n in (1.0, 2.0, 4.0, 9.0)]
        + [ch.gad_switchable(a) for a in (1.0, 2.0, 4.0, 8.0)]
        + [ch.nonunital_eternal(m) for m in (0.0, 0.4, 0.6, 0.8)]
    )
    worst_nd, worst_ne = 0.0, 0.0
    for family in families:
        for pair in (PAIR_PM, PAIR_01):
            worst_nd = max(
                worst_nd,
                ms.nd_for_scenario(family, "none", pair, DEFAULT_GRID).measure_value,
            )
        worst_ne = max(
            worst_ne, ms.ne_for_scenario(family, "none", DEFAULT_GRID).measure_value
        )
    ok = worst_nd < 1e-9 and worst_ne < 1e-9
    _report(
        "criterion-8 raw named channels have no backflow",
        ok,
        f"worst N_D {worst_nd:.3e}, worst N_E {worst_ne:.3e}",
    )


def test_criterion_09_rate_closed_forms():
    ts = np.linspace(0.0, 10.0, 100)
    worst = 0.0

    def gap(a, b):
        return abs(a - b)

    for omega in (0.5, 1.0, 3.0, 9.0):
        fam = ch.depolarizing(omega)
        for t in ts:
            r = ch.lindblad_rates(fam, float(t))
            worst = max(worst, gap(r.gamma_plus, 0.5), gap(r.gamma_minus, 0.5),
                        gap(r.gamma_z, (2.0 * omega - 1.0) / 4.0))
    for nu in (1.0, 2.0, 4.0, 9.0):
        fam = ch.eternal_unital(nu)
        for t in ts:
            r = ch.lindblad_rates(fam, float(t))
            expected = 0.25 * (2.0 * nu / (math.exp(nu * t) + 1.0) - 1.0)
            worst = max(worst, gap(r.gamma_plus, 0.5), gap(r.gamma_minus, 0.5),
                        gap(r.gamma_z, expected))
            if nu == 1.0:
                worst = max(worst, gap(r.gamma_z, -0.25 * math.tanh(t / 2.0)))
    for alpha in (1.0, 2.0, 4.0, 8.0):
        fam = ch.gad_switchable(alpha)
        for t in ts:
            r = ch.lindblad_rates(fam, float(t))
            osc = (2.0 * math.sin(alpha * t) + alpha * math.cos(alpha * t)) / math.sqrt(4.0 + alpha**2)
            worst = max(worst, gap(r.gamma_plus, 1.0 + osc), gap(r.gamma_minus, 1.0 - osc),
                        gap(r.gamma_z, 0.0))
    for mu in (0.0, 0.4, 0.6, 0.8):
        fam = ch.nonunital_eternal(mu)
        for t in ts:
            r = ch.lindblad_rates(fam, float(t))
            expected = (mu * mu - 1.0) * math.sinh(t) / (
                4.0 * (1.0 + mu * mu + (1.0 - mu * mu) * math.cosh(t))
            )
            worst = max(worst, gap(r.gamma_plus, 0.5 * (1 + mu)), gap(r.gamma_minus, 0.5 * (1 - mu)),
                        gap(r.gamma_z, expected))
            if mu == 0.0:
                worst = max(worst, gap(r.gamma_z, -0.25 * math.tanh(t / 2.0)))
    _report(
        "criterion-9 printed decoherence-rate forms reproduced to 1e-12",
        worst <= 1e-12,
        f"worst deviation {worst:.3e}",
    )


TRIALS = 1000


def test_criterion_10a_kraus_completeness():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(TRIALS):
        k = ch.kraus_from_params(random_valid_triple(rng))
        defect = sum(op.conj().T @ op for op in k.operators) - matcore.ID2
        worst = max(worst, float(np.max(np.abs(defect))))
    _report("criterion-10a Kraus completeness (1000 trials)", worst <= 1e-11, f"worst {worst:.2e}")


def test_criterion_10b_postselected_states_valid():
    rng = np.random.default_rng(102)
    checked = 0
    for trial in range(TRIALS):
        rho = random_density(rng, 2)
        chi = rng.normal(size=2) + 1j * rng.normal(size=2)
        ctrl = sm.ControlSpec(chi / np.linalg.norm(chi), "plus")
        if trial % 2:
            k = ch.kraus_from_params(random_valid_triple(rng, unital=True))
            smap = sm.time_flip_kraus(k)
        else:
            k1 = ch.kraus_from_params(random_valid_triple(rng))
            k2 = ch.kraus_from_params(random_valid_triple(rng))
            smap = sm.switch_kraus(k1, k2)
        step = sm.apply_postselect(smap, rho, ctrl)  # validates on construction
        checked += 1
        assert 0.0 < step.success_prob <= 1.0 + 1e-12
    _report("criterion-10b post-selected states valid (1000 trials)", checked == TRIALS)


def test_criterion_10c_phase_covariance():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(TRIALS):
        p = random_valid_triple(rng)
        rho = random_density(rng, 2)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        u = np.diag([np.exp(-1j * phi), np.exp(1j * phi)])
        left = ch.apply_direct(p, u @ rho @ u.conj().T)
        right = u @ ch.apply_direct(p, rho) @ u.conj().T
        worst = max(worst, float(np.max(np.abs(left - right))))
    _report("criterion-10c phase covariance (1000 trials)", worst <= 1e-11, f"worst {worst:.2e}")


def test_criterion_10d_pauli_eigen_relations():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(TRIALS):
        p = random_valid_triple(rng)
        k = ch.kraus_from_params(p)
        worst = max(
            worst,
            float(np.max(np.abs(ch.channel_apply(k, matcore.PAULI_X) - p.lam * matcore.PAULI_X))),
            float(np.max(np.abs(ch.channel_apply(k, matcore.PAULI_Y) - p.lam * matcore.PAULI_Y))),
            float(np.max(np.abs(ch.channel_apply(k, matcore.PAULI_Z) - p.lam_z * matcore.PAULI_Z))),
        )
    _report("criterion-10d Pauli eigen-relations (1000 trials)", worst <= 1e-11, f"worst {worst:.2e}")


def test_criterion_10e_switch_representation_independence():
    rng = np.random.default_rng(105)
    worst = 0.0
    for trial in range(TRIALS):
        k1 = ch.kraus_from_params(random_valid_triple(rng))
        k2 = ch.kraus_from_params(random_valid_triple(rng))
        rho = random_density(rng, 2)
        base = sm.apply_postselect(sm.switch_kraus(k1, k2), rho)
        other = sm.apply_postselect(
            sm.switch_kraus(remix_kraus(k1, rng, pad=trial % 2), k2), rho
        )
        worst = max(worst, float(np.max(np.abs(base.state - other.state))))
    _report(
        "criterion-10e switch Kraus-representation independence (1000 trials)",
        worst <= 1e-10,
        f"worst {worst:.2e}",
    )


def test_criterion_10f_definite_order_limits():
    rng = np.random.default_rng(106)
    worst = 0.0
    for trial in range(TRIALS):
        rho = random_density(rng, 2)
        if trial % 2:
            k = ch.kraus_from_params(random_valid_triple(rng, unital=True))
            flip = sm.time_flip_kraus(k)
            fwd = sm.apply_postselect(flip, rho, sm.control_from_names("zero", "plus"))
            bwd = sm.apply_postselect(flip, rho, sm.control_from_names("one", "plus"))
            worst = max(
                worst,
                float(np.max(np.abs(fwd.state - ch.channel_apply(k, rho)))),
                float(np.max(np.abs(bwd.state - ch.channel_apply(ch.transpose_channel(k), rho)))),
            )
        else:
            k1 = ch.kraus_from_params(random_valid_triple(rng))
            k2 = ch.kraus_from_params(random_valid_triple(rng))
            sw = sm.switch_kraus(k1, k2)
            first = sm.apply_postselect(sw, rho, sm.control_from_names("zero", "plus"))
            second = sm.apply_postselect(sw, rho, sm.control_from_names("one", "plus"))
            worst = max(
                worst,
                float(np.max(np.abs(first.state - ch.channel_apply(k2, ch.channel_apply(k1, rho))))),
                float(np.max(np.abs(second.state - ch.channel_apply(k1, ch.channel_apply(k2, rho))))),
            )
    _report(
        "criterion-10f definite control-basis order limits (1000 trials)",
        worst <= 1e-11,
        f"worst {worst:.2e}",
    )


def test_criterion_10g_trace_distance_contractivity():
    rng = np.random.default_rng(107)
    worst = -1.0
    for _ in range(TRIALS):
        p = random_valid_triple(rng)
        a, b = random_density(rng, 2), random_density(rng, 2)
        before = ms.trace_distance(a, b)
        after = ms.trace_distance(ch.apply_direct(p, a), ch.apply_direct(p, b))
        worst = max(worst, after - before)
    _report(
        "criterion-10g trace-distance contractivity under raw channels (1000 trials)",
        worst <= 1e-10,
        f"worst excess {worst:.2e}",
    )


def test_criterion_11_cptp_boundary_detection(tmp_path):
    cases = (
        ("dcp", "0.49", 3),
        ("eternal", "0.9", 3),
        ("dcp", "0.5", 0),
        ("eternal", "1.0", 0),
        ("nonunital-eternal", "0.99", 0),
        ("nonunital-eternal", "-0.99", 0),
    )
    results = []
    ok = True
    for family, param, expected in cases:
        code = main(
            ["check", "--family", family, "--param", param,
             "--out", str(tmp_path / f"{family}_{param}.csv")]
        )
        results.append(f"{family}({param}) -> exit {code} (want {expected})")
        ok = ok and code == expected
    _report("criterion-11 CPTP boundary detection via check", ok, "; ".join(results))
