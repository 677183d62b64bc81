"""Output verification of benchmark jobs, run outside the timed region.

Sampled grid times of every curve and signal are recomputed one time point
at a time through the reference path (``kraus_from_params``, the
``supermaps`` constructions, ``apply_postselect``, ``trace_distance``,
``concurrence``) and must agree within ``TOL``.  Reported measure values
are recomputed from the emitted signal, and no seeded draw of a pair
search may beat its reported best pair.  Comparisons use tolerances, not
byte hashes, so last-digit changes of a faster engine are not failures.

Each ``verify_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from flipswitch import channels, matcore, measures, supermaps
from workloads import FIGURE_SPECS, SEARCH_SAMPLES

TOL = 1e-9
# Rates of custom families come from central differences with step 1e-6,
# which carry about 1e-9 of rounding error; a looser bound applies to them.
CUSTOM_RATE_TOL = 1e-6
DEAD_BAND = 1e-12
SAMPLED_TIMES = 4

INSET_POINTS = 50
ORACLE_CASES = 24
_ORACLE_LINE = re.compile(r"^(\S+) param=(\S+): max_abs_err=(\S+) (PASS|FAIL)$")

_BELL = matcore.density(matcore.BELL_KET)


def control_spec(control) -> supermaps.ControlSpec:
    """A named or [re, im]-listed control ket, post-selected on 'plus'."""
    if isinstance(control, str):
        return supermaps.control_from_names(control, "plus")
    return supermaps.ControlSpec(np.array([complex(re_, im) for re_, im in control]), "plus")


def _superkraus(kraus, supermap: str):
    if supermap == "flip":
        return supermaps.time_flip_kraus(kraus)
    return supermaps.switch_kraus(kraus, kraus)


def reference_distance(family, supermap, pair, t, ctrl):
    """(trace distance, success prob 1, success prob 2) at one time."""
    kraus = channels.kraus_from_params(channels.params_at(family, t))
    if supermap == "none":
        s1 = channels.channel_apply(kraus, pair.rho1)
        s2 = channels.channel_apply(kraus, pair.rho2)
        return measures.trace_distance(s1, s2), None, None
    sk = _superkraus(kraus, supermap)
    step1 = supermaps.apply_postselect(sk, pair.rho1, ctrl)
    step2 = supermaps.apply_postselect(sk, pair.rho2, ctrl)
    return measures.trace_distance(step1.state, step2.state), step1.success_prob, step2.success_prob


def reference_entanglement(family, supermap, t, ctrl):
    """(concurrence, entanglement of formation, success prob) at one time."""
    kraus = channels.kraus_from_params(channels.params_at(family, t))
    if supermap == "none":
        extended = channels.KrausSet(tuple(matcore.tensor(op, matcore.ID2) for op in kraus.operators))
        state, prob = channels.channel_apply(extended, _BELL), None
    else:
        step = supermaps.apply_postselect(supermaps.extend_with_ancilla(_superkraus(kraus, supermap)), _BELL, ctrl)
        state, prob = step.state, step.success_prob
    c = measures.concurrence(state)
    return c, measures.entanglement_of_formation(c), prob


def _trajectory(measure, family, supermap, pair, ctrl):
    """CSV header of an nd or ne trajectory and its per-time reference values."""
    if measure == "nd":
        header = ["t", "trace_distance", "success_prob_1", "success_prob_2"]
        return header, lambda t: reference_distance(family, supermap, pair, t, ctrl)
    header = ["t", "concurrence", "eof", "success_prob"]
    return header, lambda t: reference_entanglement(family, supermap, t, ctrl)


def _close(a, b, tol=TOL) -> bool:
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


def load_csv(path: str, header: list[str], t_max: float, steps: int, problems: list) -> np.ndarray | None:
    """Rows of a CSV whose header and time column must match the grid."""
    try:
        with open(path, encoding="utf-8") as fh:
            found = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read {Path(path).name}: {exc}")
        return None
    if found != header:
        problems.append(f"{Path(path).name}: header {found} != {header}")
        return None
    if data.shape != (steps + 1, len(header)):
        problems.append(f"{Path(path).name}: shape {data.shape} != {(steps + 1, len(header))}")
        return None
    if not np.allclose(data[:, 0], np.linspace(0.0, t_max, steps + 1), rtol=0.0, atol=1e-12 * t_max):
        problems.append(f"{Path(path).name}: time column is not the grid")
        return None
    return data


def _sample_rows(rng: np.random.Generator, rows: int) -> list[int]:
    picked = rng.choice(np.arange(1, rows - 1), size=SAMPLED_TIMES, replace=False)
    return sorted(int(k) for k in picked) + [rows - 1]


def check_rows(data, rows, reference, columns, label, problems) -> None:
    """Compare the named columns of sampled rows with the reference values."""
    for k in rows:
        t = float(data[k, 0])
        expected = reference(t)
        for col, value in zip(columns, expected):
            got = data[k, col]
            if not _close(got, value):
                problems.append(f"{label}: t={t:.6g} column {col}: {got!r} != reference {value!r}")
                return


def check_backflow(report: dict, signal: np.ndarray, t_max: float, problems: list) -> None:
    """The reported value and revival intervals must follow from the signal."""
    steps = len(signal) - 1
    increments = np.diff(signal)
    value = float(increments[increments > DEAD_BAND].sum())
    if not _close(report["value"], value):
        problems.append(f"value {report['value']!r} != {value!r} recomputed from the signal")
        return
    covered, previous_end = 0.0, -1
    for start, end in report["revival_intervals"]:
        a, b = round(start / t_max * steps), round(end / t_max * steps)
        if not previous_end <= a < b <= steps:
            problems.append(f"revival interval {[start, end]} is not an ordered grid interval")
            return
        rise = float(signal[b] - signal[a])
        if rise < -TOL:
            problems.append(f"signal falls over the revival interval {[start, end]}")
            return
        covered += rise
        previous_end = b
    if not _close(covered, value):
        problems.append(f"revival intervals cover a rise of {covered!r}, not {value!r}")


def _family(expect: dict):
    return channels.family_from_id(expect["family"], expect["param"])


def _pair(expect: dict, report: dict):
    if expect["pair"] != "search":
        return measures.named_pair(expect["pair"])
    bloch = np.asarray(report["best_pair_bloch"], dtype=float)
    return measures.antipodal_pair(bloch / np.linalg.norm(bloch))


def search_draws(seed: int, samples: int) -> np.ndarray:
    """Bloch directions a pair search with this seed samples, in order."""
    rng = np.random.default_rng(seed)
    zs = rng.uniform(-1.0, 1.0, size=samples)
    phis = rng.uniform(0.0, 2.0 * np.pi, size=samples)
    r = np.sqrt(1.0 - zs * zs)
    return np.stack([r * np.cos(phis), r * np.sin(phis), zs], axis=1)


def search_values(expect) -> np.ndarray:
    """Backflow value of every seeded draw, each pair ``(I ± v.σ)/2``.

    The unnormalized output is affine in the Bloch vector, so the images of
    I, X, Y, Z under the conditional operator sum give every draw's output
    at once, and the trace distance of two normalized qubit states is the
    norm of the traceless part of their difference.  This is independent of
    the program's per-sample evolution.
    """
    grid = measures.TimeGrid(expect["t_max"], expect["steps"])
    stack, _ = measures.conditional_kraus(_family(expect), expect["supermap"], grid.points, control_spec(expect["control"]))
    # One image at a time, and few draws at a time, keep the working set
    # below that of the job itself, so that ru_maxrss stays the job's.
    tr, a, b = np.empty((4, len(stack))), np.empty((4, len(stack))), np.empty((4, len(stack)), dtype=complex)
    for m, sigma in enumerate((matcore.ID2, matcore.PAULI_X, matcore.PAULI_Y, matcore.PAULI_Z)):
        image = np.einsum("tnij,jk,tnlk->til", stack, sigma, stack.conj(), optimize=True)
        tr[m], a[m], b[m] = image[:, 0, 0].real + image[:, 1, 1].real, image[:, 0, 0].real, image[:, 0, 1]
    del stack, image
    values = []
    for v in np.array_split(search_draws(expect["pair_seed"], SEARCH_SAMPLES), SEARCH_SAMPLES // 4):
        tr_p, tr_m = tr[0] + v @ tr[1:], tr[0] - v @ tr[1:]
        d00 = (a[0] + v @ a[1:]) / tr_p - (a[0] - v @ a[1:]) / tr_m
        d01 = (b[0] + v @ b[1:]) / tr_p - (b[0] - v @ b[1:]) / tr_m
        rises = np.diff(np.sqrt(d00 * d00 + np.abs(d01) ** 2), axis=1)
        values.append(np.where(rises > DEAD_BAND, rises, 0.0).sum(axis=1))
    return np.concatenate(values)


def verify_search(expect, report, problems) -> None:
    """The best pair must be a seeded draw whose value no other draw beats."""
    draws = search_draws(expect["pair_seed"], SEARCH_SAMPLES)
    values = search_values(expect)
    best = np.asarray(report["best_pair_bloch"], dtype=float)
    picked = np.flatnonzero(np.abs(draws - best).max(axis=1) <= TOL)
    if len(picked) == 0:
        problems.append(f"best_pair_bloch {report['best_pair_bloch']} is none of the seeded draws")
    elif not (_close(values[picked[0]], values.max()) and _close(report["value"], values.max())):
        problems.append(f"reported best {report['value']!r} (draw {picked[0]}), but draw {values.argmax()} reaches {float(values.max())!r}")


def verify_measure(expect, stdout, rng, problems) -> None:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"report is not JSON: {exc}")
        return
    for key in ("supermap", "measure", "steps", "t_max"):
        if report.get(key) != expect[key]:
            problems.append(f"report {key} = {report.get(key)!r}, expected {expect[key]!r}")
    if expect["pair"] == "search" and (report.get("samples"), report.get("seed")) != (SEARCH_SAMPLES, expect["pair_seed"]):
        problems.append(f"report samples, seed = {report.get('samples')!r}, {report.get('seed')!r}")
    if problems:
        return
    data = load_csv(expect["out"], ["t", "signal"], expect["t_max"], expect["steps"], problems)
    if data is None:
        return
    check_backflow(report, data[:, 1], expect["t_max"], problems)
    pair = _pair(expect, report) if expect["measure"] == "nd" else None
    _, reference = _trajectory(expect["measure"], _family(expect), expect["supermap"], pair, control_spec(expect["control"]))
    signal = 0 if expect["measure"] == "nd" else 1  # trace distance, or EoF
    check_rows(data, _sample_rows(rng, len(data)), lambda t: reference(t)[signal:signal + 1], (1,), "signal", problems)
    if expect["pair"] == "search" and not problems:
        verify_search(expect, report, problems)


def verify_evolve(expect, stdout, rng, problems) -> None:
    if stdout:
        problems.append("evolve with --out wrote to stdout")
    pair = measures.named_pair(expect["pair"]) if expect["measure"] == "nd" else None
    header, reference = _trajectory(expect["measure"], _family(expect), expect["supermap"], pair, control_spec(expect["control"]))
    data = load_csv(expect["out"], header, expect["t_max"], expect["steps"], problems)
    if data is not None:
        check_rows(data, _sample_rows(rng, len(data)), reference, range(1, len(header)), "trajectory", problems)


def verify_check(expect, stdout, rng, problems) -> None:
    header = ["t", "lam", "lam_z", "lam_star", "cptp_valid", "gamma_plus", "gamma_minus", "gamma_z", "td_witness"]
    data = load_csv(expect["out"], header, expect["t_max"], expect["steps"], problems)
    if data is None:
        return
    if not np.all(data[:, 4] == 1.0):
        problems.append("a grid point of a CPTP family is flagged invalid")
    family = _family(expect)
    rate_tol = CUSTOM_RATE_TOL if expect["custom"] else TOL
    for k in _sample_rows(rng, len(data)):
        row = data[k]
        p = channels.params_at(family, float(row[0]))
        r = channels.lindblad_rates(family, float(row[0]))
        triple_ok = all(_close(a, b) for a, b in zip(row[1:4], (p.lam, p.lam_z, p.lam_star)))
        rates_ok = all(_close(a, b, rate_tol) for a, b in zip(row[5:8], (r.gamma_plus, r.gamma_minus, r.gamma_z)))
        # The witness tests two rate sums for a negative sign; where a sum is
        # zero within the rate tolerance (eternal at large t) either flag holds.
        g_plus, g_minus, g_z = row[5:8]
        sums = (g_plus + g_minus + 4.0 * g_z, g_plus + g_minus)
        witness_ok = any(abs(x) <= rate_tol for x in sums) or row[8] == float(min(sums) < 0.0)
        if not (triple_ok and rates_ok and witness_ok):
            problems.append(f"check row t={row[0]:.6g} disagrees with the family: {row.tolist()}")
            return


def verify_refusal(stdout, stderr, problems) -> None:
    if stdout or not stderr.startswith("error: "):
        problems.append(f"refusal should print only an error line, got stdout={stdout[:80]!r} stderr={stderr[:80]!r}")


def _figure_files(figure: str, spec) -> list[str]:
    names = [f"{figure}_{spec.symbol}={v:g}.csv" for v in spec.values]
    if spec.inset is not None:
        names.append(f"{figure}_inset_{spec.measure}_vs_{spec.symbol}.csv")
    if spec.growth_grid is not None:
        names.append(f"{figure}_growth_summary.csv")
    return names


def verify_figure(figure: str, out_dir: str, stdout: str, rng, problems) -> None:
    spec = FIGURE_SPECS[figure]
    names = _figure_files(figure, spec)
    printed = sorted(Path(line).name for line in stdout.splitlines())
    if printed != sorted(names):
        problems.append(f"{figure}: wrote {printed}, expected {sorted(names)}")
        return
    pair = measures.named_pair(spec.pair) if spec.pair else None
    t_max, steps = spec.curve_grid
    for value, name in zip(spec.values, names):
        family = channels.family_from_id(spec.family, value)
        header, reference = _trajectory(spec.measure, family, spec.supermap, pair, supermaps.ControlSpec())
        data = load_csv(str(Path(out_dir) / name), header, t_max, steps, problems)
        if data is None:
            return
        check_rows(data, _sample_rows(rng, len(data)), reference, (1, 2, 3), name, problems)
    summary = str(Path(out_dir) / names[-1])
    if spec.inset is not None:
        _verify_inset(figure, spec, summary, rng, problems)
    if spec.growth_grid is not None:
        _verify_growth(figure, spec, summary, rng, problems)


def _verify_inset(figure, spec, path, rng, problems) -> None:
    """Parameter column of the sweep, and one sampled row recomputed."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    sweep = np.linspace(*spec.inset, INSET_POINTS)
    if data.shape != (INSET_POINTS, 2) or not np.allclose(data[:, 0], sweep, rtol=1e-13, atol=0.0):
        problems.append(f"{figure} inset: parameter column is not the sweep")
        return
    k = int(rng.integers(INSET_POINTS))
    family = channels.family_from_id(spec.family, float(data[k, 0]))
    grid = measures.TimeGrid(*spec.inset_grid)
    if spec.measure == "nd":
        result = measures.nd_for_scenario(family, spec.supermap, measures.named_pair(spec.pair), grid)
    else:
        result = measures.ne_for_scenario(family, spec.supermap, grid)
    if not _close(data[k, 1], result.measure_value):
        problems.append(f"{figure} inset row {k}: {data[k, 1]!r} != {result.measure_value!r}")


def _verify_growth(figure, spec, path, rng, problems) -> None:
    """fig7 summary: one sampled horizon value recomputed, gains bounded by it."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    t_max = spec.growth_grid[0]
    if data.shape != (len(spec.values), 4) or list(data[:, 0]) != list(spec.values) or not np.all(data[:, 2] == t_max):
        problems.append(f"{figure} growth summary: unexpected rows {data.tolist()}")
        return
    if not np.all((data[:, 3] >= 0.0) & (data[:, 3] <= data[:, 1])):
        problems.append(f"{figure} growth summary: gain per period outside [0, horizon value]")
    k = int(rng.integers(len(spec.values)))
    family = channels.family_from_id(spec.family, spec.values[k])
    pair = measures.named_pair(spec.pair)
    result = measures.nd_for_scenario(family, spec.supermap, pair, measures.TimeGrid(*spec.growth_grid))
    if not _close(data[k, 1], result.measure_value):
        problems.append(f"{figure} growth row {k}: {data[k, 1]!r} != {result.measure_value!r}")


def verify_oracles(stdout: str, problems) -> None:
    """Per-case lines decide; the exit code of 'oracles' is 0 even on failures."""
    lines = stdout.splitlines()
    cases = [_ORACLE_LINE.match(line) for line in lines[:-1]]
    if len(cases) != ORACLE_CASES or not all(cases):
        problems.append(f"oracles printed {len(lines)} lines, expected {ORACLE_CASES} cases and a summary")
        return
    for m in cases:
        err = float(m.group(3))
        if m.group(4) != "PASS" or not (math.isfinite(err) and err < TOL):
            problems.append(f"oracle case {m.group(1)} param={m.group(2)}: {m.group(3)} {m.group(4)}")
    if len({(m.group(1), m.group(2)) for m in cases}) != ORACLE_CASES:
        problems.append("oracle cases repeat")


def verify_job(expect: dict, rc: int, stdout: str, stderr: str, workdir: str, rng_key) -> list[str]:
    """Problems with one job's outputs; ``rng_key`` seeds the sampled rows."""
    problems: list[str] = []
    rng = np.random.default_rng(rng_key)
    expected_rc = expect.get("exit", 0)
    if rc != expected_rc:
        return [f"exit code {rc}, expected {expected_rc}: {stderr.strip()[:200]}"]
    expect = {k: (v.replace("{w}", workdir) if isinstance(v, str) else v) for k, v in expect.items()}
    kind = expect["kind"]
    if kind == "figure":
        verify_figure(expect["figure"], f"{workdir}/out/{expect['figure']}", stdout, rng, problems)
    elif kind == "oracles":
        verify_oracles(stdout, problems)
    elif expected_rc != 0:
        verify_refusal(stdout, stderr, problems)
    elif kind == "measure":
        verify_measure(expect, stdout, rng, problems)
    elif kind == "evolve":
        verify_evolve(expect, stdout, rng, problems)
    else:
        verify_check(expect, stdout, rng, problems)
    return problems
