"""Configuration-driven scenario runner.

Subcommands:

    check       CPTP validity, decoherence rates and witness flags on a grid
    evolve      sampled trajectory of a scenario as CSV
    measure     backflow measure of a scenario as a JSON report
    reproduce   reference curve sets fig3..fig10 plus their parameter sweeps
    oracles     regression of simulated trajectories against closed forms

Exit codes: 0 success, 2 configuration error, 3 CPTP violation at some grid
point, 4 degenerate post-selection, 5 an oracle case outside its tolerance.
A single JSON config document may be given with --config; explicit flags
override config keys.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .channels import (
    FAMILY_IDS,
    ChannelFamily,
    bloch_from_density,
    cptp_inequalities,
    custom_family,
    family_from_id,
    family_triples,
    lindblad_rates,
)
from .errors import (
    ConfigurationError,
    CptpViolationError,
    PostSelectionError,
    SimulationError,
)
from .measures import (
    PAIR_NAMES,
    SUPERMAP_MODES,
    TimeGrid,
    Trajectory,
    backflow_accumulate,
    entanglement_signals,
    named_pair,
    nd_for_scenario,
    ne_for_scenario,
    pair_evolution,
    pair_search,
    revival_runs,
    td_witness,
)
from .supermaps import ControlSpec, control_from_names

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CPTP = 3
EXIT_POSTSELECT = 4
EXIT_ORACLE = 5

MEASURES = ("nd", "ne")

DEFAULT_T_MAX = 20.0
DEFAULT_STEPS = 4000
DEFAULT_SAMPLES = 200
ORACLE_TOL = 1e-9

# Namespace available to custom-family expressions from config files.
_EXPR_NAMES = {
    name: getattr(np, name)
    for name in (
        "exp", "sin", "cos", "tan", "sinh", "cosh", "tanh", "sqrt", "log", "abs",
    )
}
_EXPR_NAMES["pi"] = np.pi
_EXPR_ALLOWED = frozenset(_EXPR_NAMES) | {"t"}


@dataclass
class ScenarioConfig:
    family: str | None = None
    param: float | None = None
    supermap: str = "none"
    control_initial: str | Sequence = "plus"
    control_postselect: str = "plus"
    t_max: float = DEFAULT_T_MAX
    steps: int = DEFAULT_STEPS
    measure: str = "nd"
    pair: str = "plus-minus"
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    out: str | None = None
    custom: dict = field(default_factory=dict)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a JSON object")
    return doc


def _scenario_from(args: argparse.Namespace) -> ScenarioConfig:
    doc = _load_config(getattr(args, "config", None))
    cfg = ScenarioConfig()
    cfg.family = doc.get("family", cfg.family)
    cfg.param = doc.get("param", cfg.param)
    cfg.supermap = doc.get("supermap", cfg.supermap)
    control = doc.get("control", {})
    if not isinstance(control, dict):
        raise ConfigurationError("'control' must be an object")
    cfg.control_initial = control.get("initial", cfg.control_initial)
    cfg.control_postselect = control.get("postselect", cfg.control_postselect)
    grid = doc.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigurationError("'grid' must be an object")
    cfg.t_max = grid.get("t_max", cfg.t_max)
    cfg.steps = grid.get("steps", cfg.steps)
    cfg.measure = doc.get("measure", cfg.measure)
    pair = doc.get("pair", cfg.pair)
    if isinstance(pair, dict):
        cfg.pair = "search"
        cfg.samples = pair.get("samples", cfg.samples)
        cfg.seed = pair.get("seed", cfg.seed)
    else:
        cfg.pair = pair
    cfg.out = doc.get("output", cfg.out)
    cfg.custom = doc.get("custom", {})

    for flag, attr in (
        ("family", "family"),
        ("param", "param"),
        ("supermap", "supermap"),
        ("tmax", "t_max"),
        ("steps", "steps"),
        ("measure", "measure"),
        ("pair", "pair"),
        ("seed", "seed"),
        ("out", "out"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, attr, value)

    try:
        cfg.t_max = float(cfg.t_max)
        cfg.steps = int(cfg.steps)
        cfg.seed = int(cfg.seed)
        cfg.samples = int(cfg.samples)
        if cfg.param is not None:
            cfg.param = float(cfg.param)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"non-numeric scenario value: {exc}") from exc
    if cfg.measure not in MEASURES:
        raise ConfigurationError(f"measure must be one of {', '.join(MEASURES)}, got {cfg.measure!r}")
    return cfg


def _code_names(code) -> set[str]:
    """Names and attributes a compiled expression uses, nested code included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, type(code)):
            names |= _code_names(const)
    return names


def _expr_function(expr: str):
    if not isinstance(expr, str):
        raise ConfigurationError("custom family entries must be expression strings")
    try:
        code = compile(expr, "<custom-family>", "eval")
    except SyntaxError as exc:
        raise ConfigurationError(f"bad custom expression {expr!r}: {exc}") from exc
    unknown = _code_names(code) - _EXPR_ALLOWED
    if unknown:
        raise ConfigurationError(
            f"custom expression {expr!r} uses names outside t, pi and the listed functions: "
            + ", ".join(sorted(unknown))
        )

    def fn(t):
        try:
            value = eval(code, {"__builtins__": {}, **_EXPR_NAMES, "t": t})
            if np.iscomplexobj(value):
                raise ConfigurationError(f"custom expression {expr!r} is complex; the triple must be real")
            return np.asarray(value, dtype=float)
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"custom expression {expr!r} failed: {exc}") from exc

    return fn


def _resolve_family(cfg: ScenarioConfig) -> ChannelFamily:
    if cfg.family is None:
        raise ConfigurationError("a channel family must be given (--family)")
    if cfg.family == "custom":
        spec = cfg.custom
        if not isinstance(spec, dict) or not {"lam", "lam_z", "lam_star"} <= set(spec):
            raise ConfigurationError(
                "custom families need a config 'custom' object with lam, lam_z, lam_star expressions"
            )
        return custom_family(
            _expr_function(spec["lam"]),
            _expr_function(spec["lam_z"]),
            _expr_function(spec["lam_star"]),
        )
    if cfg.param is None:
        raise ConfigurationError("a family parameter must be given (--param)")
    return family_from_id(cfg.family, cfg.param)


def _resolve_control(cfg: ScenarioConfig) -> ControlSpec:
    initial = cfg.control_initial
    if isinstance(initial, str):
        return control_from_names(initial, cfg.control_postselect)
    try:
        ket = np.asarray(
            [complex(entry[0], entry[1]) for entry in initial], dtype=complex
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise ConfigurationError(
            "control initial must be a named state or a list of [re, im] pairs"
        ) from exc
    return ControlSpec(ket, cfg.control_postselect)


def _grid(cfg: ScenarioConfig) -> TimeGrid:
    return TimeGrid(cfg.t_max, cfg.steps)


def _write_csv(out: str | None, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    np.savetxt(
        sys.stdout if out is None else out, np.column_stack(columns),
        fmt="%.15g", delimiter=",", header=",".join(header), comments="",
    )


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def run_check(cfg: ScenarioConfig) -> int:
    family = _resolve_family(cfg)
    ts = _grid(cfg).points
    lam, lam_z, lam_star = family_triples(family, ts)
    first, second, _ = cptp_inequalities(lam, lam_z, lam_star)
    valid = first & second
    rates = lindblad_rates(family, ts)
    _write_csv(
        cfg.out,
        ["t", "lam", "lam_z", "lam_star", "cptp_valid", "gamma_plus", "gamma_minus", "gamma_z", "td_witness"],
        [ts, lam, lam_z, lam_star, valid, rates.gamma_plus, rates.gamma_minus, rates.gamma_z, td_witness(rates)],
    )
    if not np.all(valid):
        print(f"CPTP violation detected for {family.label}", file=sys.stderr)
        return EXIT_CPTP
    return EXIT_OK


# ---------------------------------------------------------------------------
# evolve / measure
# ---------------------------------------------------------------------------


def _write_trajectory(out, family, supermap, measure, pair, grid, ctrl) -> np.ndarray:
    """CSV of the concurrence/eof (ne) or pair trace distance (nd) signal;
    returns the signal the measure accumulates (eof or trace distance)."""
    if measure == "ne":
        conc, signal, probs = entanglement_signals(family, supermap, grid, ctrl)
        header, columns = ["t", "concurrence", "eof"], [grid.points, conc, signal]
        if probs is not None:
            header.append("success_prob")
            columns.append(probs)
    else:
        ev = pair_evolution(family, supermap, pair, grid, ctrl)
        signal = ev.distance
        header, columns = ["t", "trace_distance"], [grid.points, signal]
        if ev.probs_1 is not None:
            header += ["success_prob_1", "success_prob_2"]
            columns += [ev.probs_1, ev.probs_2]
    _write_csv(out, header, columns)
    return signal


def run_evolve(cfg: ScenarioConfig) -> int:
    family = _resolve_family(cfg)
    grid = _grid(cfg)
    ctrl = _resolve_control(cfg)
    pair = None
    if cfg.measure == "nd" and cfg.pair == "search":
        pair, _ = pair_search(family, cfg.supermap, grid, cfg.samples, cfg.seed, ctrl)
    elif cfg.measure == "nd":
        pair = named_pair(cfg.pair)
    _write_trajectory(cfg.out, family, cfg.supermap, cfg.measure, pair, grid, ctrl)
    return EXIT_OK


def run_measure(cfg: ScenarioConfig) -> int:
    family = _resolve_family(cfg)
    grid = _grid(cfg)
    ctrl = _resolve_control(cfg)
    report = {
        "family": cfg.family,
        "param": cfg.param,
        "supermap": cfg.supermap,
        "measure": cfg.measure,
        "t_max": grid.t_max,
        "steps": grid.steps,
    }
    if cfg.measure == "nd":
        if cfg.pair == "search":
            pair, result = pair_search(family, cfg.supermap, grid, cfg.samples, cfg.seed, ctrl)
            report["pair"] = "search"
            report["samples"] = cfg.samples
            report["seed"] = cfg.seed
            report["best_pair_bloch"] = [round(x, 12) for x in bloch_from_density(pair.rho1)]
        else:
            pair = named_pair(cfg.pair)
            result = nd_for_scenario(family, cfg.supermap, pair, grid, ctrl)
            report["pair"] = cfg.pair
    else:
        result = ne_for_scenario(family, cfg.supermap, grid, ctrl)
    report["value"] = result.measure_value
    report["revival_intervals"] = [list(iv) for iv in result.revival_intervals]
    print(json.dumps(report, sort_keys=True))
    if cfg.out:
        _write_csv(cfg.out, ["t", "signal"], [grid.points, result.signal.values])
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

_FIGURES = {
    "fig3": dict(
        measure="nd", family="dcp", symbol="omega", values=(0.5, 1.0, 3.0, 9.0),
        supermap="flip", pair="plus-minus", curve_grid=(10.0, 2000),
        inset=(0.5, 9.0), inset_grid=(20.0, 4000),
    ),
    "fig4": dict(
        measure="ne", family="dcp", symbol="omega", values=(0.5, 1.0, 3.0, 9.0),
        supermap="flip", curve_grid=(10.0, 2000),
        inset=(0.5, 9.0), inset_grid=(20.0, 2000),
    ),
    "fig5": dict(
        measure="nd", family="eternal", symbol="nu", values=(1.0, 2.0, 4.0, 9.0),
        supermap="flip", pair="plus-minus", curve_grid=(10.0, 2000),
        inset=(1.0, 9.0), inset_grid=(20.0, 4000),
    ),
    "fig6": dict(
        measure="ne", family="eternal", symbol="nu", values=(1.0, 2.0, 4.0, 9.0),
        supermap="flip", curve_grid=(10.0, 2000),
        inset=(1.0, 9.0), inset_grid=(20.0, 2000),
    ),
    "fig7": dict(
        measure="nd", family="gad", symbol="alpha", values=(8.0, 4.0, 2.0, 1.0),
        supermap="switch", pair="plus-minus", curve_grid=(20.0, 4000),
        inset=None,
    ),
    "fig8": dict(
        measure="ne", family="gad", symbol="alpha", values=(8.0, 4.0, 2.0, 1.0),
        supermap="switch", curve_grid=(20.0, 4000),
        inset=(1.0, 8.0), inset_grid=(20.0, 2000),
    ),
    "fig9": dict(
        measure="nd", family="nonunital-eternal", symbol="mu", values=(0.8, 0.6, 0.4, 0.0),
        supermap="switch", pair="zero-one", curve_grid=(10.0, 2000),
        inset=(0.0, 0.8), inset_grid=(20.0, 4000),
    ),
    "fig10": dict(
        measure="ne", family="nonunital-eternal", symbol="mu", values=(0.8, 0.6, 0.4, 0.0),
        supermap="switch", curve_grid=(10.0, 2000),
        inset=(0.0, 0.8), inset_grid=(20.0, 2000),
    ),
}

INSET_SWEEP_POINTS = 50


def _mean_rise(diffs: np.ndarray) -> float:
    """Average gain of the complete revival runs inside a window of increments."""
    inside = [
        float(diffs[a:b].sum()) for a, b in zip(*revival_runs(diffs)) if a > 0 and b < len(diffs)
    ]
    if not inside:
        return 0.0
    # sub-grid fragments split off at flat extrema are not separate revivals
    significant = [s for s in inside if s > 0.01 * max(inside)]
    return float(np.mean(significant))


def _figure_grid(spec_grid, args) -> TimeGrid:
    t_max, steps = spec_grid
    if getattr(args, "tmax", None) is not None:
        t_max = float(args.tmax)
    if getattr(args, "steps", None) is not None:
        steps = int(args.steps)
    return TimeGrid(t_max, steps)


def run_reproduce(figure: str, out_dir: str, args) -> int:
    if figure not in _FIGURES:
        raise ConfigurationError(
            f"unknown figure {figure!r}; expected one of {', '.join(sorted(_FIGURES))}"
        )
    spec = _FIGURES[figure]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    curve_grid = _figure_grid(spec["curve_grid"], args)
    ctrl = ControlSpec()
    signals = []
    for value in spec["values"]:
        family = family_from_id(spec["family"], value)
        path = out / f"{figure}_{spec['symbol']}={value:g}.csv"
        pair = named_pair(spec["pair"]) if spec["measure"] == "nd" else None
        signals.append(
            _write_trajectory(str(path), family, spec["supermap"], spec["measure"], pair, curve_grid, ctrl)
        )
        written.append(path)

    if spec["inset"] is not None:
        lo, hi = spec["inset"]
        sweep = np.linspace(lo, hi, INSET_SWEEP_POINTS)
        inset_grid = _figure_grid(spec["inset_grid"], args)
        values = np.empty(INSET_SWEEP_POINTS)
        for i, p in enumerate(sweep):
            family = family_from_id(spec["family"], float(p))
            if spec["measure"] == "nd":
                result = nd_for_scenario(
                    family, spec["supermap"], named_pair(spec["pair"]), inset_grid, ctrl
                )
            else:
                result = ne_for_scenario(family, spec["supermap"], inset_grid, ctrl)
            values[i] = result.measure_value
        path = out / f"{figure}_inset_{spec['measure']}_vs_{spec['symbol']}.csv"
        _write_csv(str(path), [spec["symbol"], spec["measure"]], [sweep, values])
        written.append(path)
    else:
        # The accumulated distance backflow grows without bound here, so a
        # finite-horizon value of each curve plus a per-period gain estimate
        # is reported instead of a sweep.
        totals = [backflow_accumulate(Trajectory(curve_grid, s)).measure_value for s in signals]
        gains = [_mean_rise(np.diff(s)[curve_grid.steps // 2:]) for s in signals]
        path = out / f"{figure}_growth_summary.csv"
        _write_csv(
            str(path),
            ["alpha", "nd_horizon", "t_max", "gain_per_period"],
            [spec["values"], totals, np.full(len(signals), curve_grid.t_max), gains],
        )
        written.append(path)

    for path in written:
        print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _closed_form_flip_dcp_distance(t, omega):
    return (4.0 * np.exp(t * (1.0 - omega)) + np.exp(t) - 1.0) / (3.0 * np.exp(t) + 1.0)


def _closed_form_flip_dcp_concurrence(t, omega):
    raw = (4.0 * np.exp(t * (1.0 - omega)) - np.exp(t) + 1.0) / (3.0 * np.exp(t) + 1.0)
    return np.maximum(raw, 0.0)


def _closed_form_flip_eternal_distance(t, nu):
    return (2.0 * np.exp(t * (1.0 - nu)) + 3.0 * np.exp(t) - 1.0) / (3.0 * np.exp(t) + 1.0)


def _closed_form_flip_eternal_concurrence(t, nu):
    return (2.0 * np.exp(t * (1.0 - nu)) + np.exp(t) + 1.0) / (3.0 * np.exp(t) + 1.0)


def _closed_form_raw_eternal_concurrence(t, nu):
    return (np.exp(-t) + np.exp(-nu * t)) / 2.0


def _closed_form_raw_nonunital_concurrence(t, mu):
    first = np.sqrt((np.exp(-2.0 * t) + 1.0) * (1.0 - mu * mu) + 2.0 * np.exp(-t) * (1.0 + mu * mu))
    second = np.sqrt((np.exp(-t) - 1.0) ** 2 * (1.0 - mu * mu))
    return 0.5 * (first - second)


ORACLE_GRID = TimeGrid(10.0, 2000)

_ORACLE_CASES = (
    ("flip-dcp-distance", "dcp", "flip", "nd", (0.5, 1.0, 3.0, 9.0), _closed_form_flip_dcp_distance),
    ("flip-dcp-concurrence", "dcp", "flip", "ne", (0.5, 1.0, 3.0, 9.0), _closed_form_flip_dcp_concurrence),
    ("flip-eternal-distance", "eternal", "flip", "nd", (1.0, 2.0, 4.0, 9.0), _closed_form_flip_eternal_distance),
    ("flip-eternal-concurrence", "eternal", "flip", "ne", (1.0, 2.0, 4.0, 9.0), _closed_form_flip_eternal_concurrence),
    ("raw-eternal-concurrence", "eternal", "none", "ne", (1.0, 2.0, 4.0, 9.0), _closed_form_raw_eternal_concurrence),
    ("raw-nonunital-concurrence", "nonunital-eternal", "none", "ne", (0.0, 0.4, 0.6, 0.8), _closed_form_raw_nonunital_concurrence),
)


def oracle_report():
    """Max absolute error of every closed-form case at every parameter."""
    ts = ORACLE_GRID.points
    rows = []
    for name, family_id, supermap, kind, values, form in _ORACLE_CASES:
        for value in values:
            family = family_from_id(family_id, value)
            if kind == "nd":
                simulated = pair_evolution(family, supermap, named_pair("plus-minus"), ORACLE_GRID).distance
            else:
                simulated, _, _ = entanglement_signals(family, supermap, ORACLE_GRID)
            err = float(np.max(np.abs(simulated - form(ts, value))))
            rows.append((name, value, err, err < ORACLE_TOL))
    return rows


def run_oracles() -> int:
    rows = oracle_report()
    failures = 0
    for name, value, err, ok in rows:
        status = "PASS" if ok else "FAIL"
        print(f"{name} param={value:g}: max_abs_err={err:.3e} {status}")
        failures += 0 if ok else 1
    if failures:
        print(f"oracle regression: {failures}/{len(rows)} cases FAIL (tol {ORACLE_TOL:g})")
        return EXIT_ORACLE
    print(f"oracle regression: all {len(rows)} cases PASS (tol {ORACLE_TOL:g})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_scenario_flags(sub: argparse.ArgumentParser, evolves: bool) -> None:
    """The flags a scenario command reads; only evolve/measure run a supermap."""
    sub.add_argument("--config", help="JSON config document")
    sub.add_argument("--family", choices=FAMILY_IDS)
    sub.add_argument("--param", type=float, help="family parameter")
    sub.add_argument("--tmax", type=float, help="grid end time")
    sub.add_argument("--steps", type=int, help="grid step count")
    sub.add_argument("--out", help="output path")
    if evolves:
        sub.add_argument("--supermap", choices=SUPERMAP_MODES)
        sub.add_argument("--measure", choices=MEASURES)
        sub.add_argument("--pair", choices=PAIR_NAMES + ("search",))
        sub.add_argument("--seed", type=int, help="seed for pair search")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipswitch",
        description="Qubit phase-covariant channels under coherent time-direction and causal-order control",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("check", "scan a family for CPTP validity, rates and witness flags"),
        ("evolve", "emit a scenario trajectory as CSV"),
        ("measure", "compute a backflow measure for a scenario"),
    ):
        _add_scenario_flags(subs.add_parser(name, help=help_text), evolves=name != "check")

    rep = subs.add_parser("reproduce", help="write reference curves for fig3..fig10")
    rep.add_argument("figure", help="figure identifier, fig3..fig10")
    rep.add_argument("--out", default=".", help="output directory")
    rep.add_argument("--tmax", type=float, help="override curve/sweep end time")
    rep.add_argument("--steps", type=int, help="override curve/sweep step count")

    subs.add_parser("oracles", help="regress simulated trajectories against closed forms")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else EXIT_OK
    try:
        if args.command == "check":
            return run_check(_scenario_from(args))
        if args.command == "evolve":
            return run_evolve(_scenario_from(args))
        if args.command == "measure":
            return run_measure(_scenario_from(args))
        if args.command == "reproduce":
            return run_reproduce(args.figure, args.out, args)
        if args.command == "oracles":
            return run_oracles()
        raise ConfigurationError(f"unknown command {args.command!r}")
    except CptpViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CPTP
    except PostSelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_POSTSELECT
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
