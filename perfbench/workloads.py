"""Job lists of the three benchmark workloads.

A job is one ``flipswitch`` command line.  Paths in a job are written with
the ``{w}`` placeholder for the run's work directory, so the job list, and
its hash, depend only on the workload and the seed.  ``expect`` records
what the job computes, for output verification.

* ``figures``: ``reproduce fig3`` .. ``fig10`` and ``oracles``; no seed.
* ``search``: three ``measure`` jobs with a 200-sample pair search.
* ``sweep``: 100 mixed ``measure`` / ``evolve`` / ``check`` jobs drawn from
  the seed.  The number of jobs of each (command, measure, supermap) kind
  is fixed, so that the cost of a pass does not depend on the seed; the
  seed draws families, parameters, controls, pairs and the job order.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

PLACEHOLDER = "{w}"


class FigureSpec(NamedTuple):
    """What ``reproduce <figure>`` computes, as the paper and README fix it."""

    measure: str
    family: str
    symbol: str
    values: tuple
    supermap: str
    pair: str | None
    curve_grid: tuple  # (t_max, steps)
    inset: tuple | None  # parameter range of the 50-point inset sweep
    inset_grid: tuple | None
    growth_grid: tuple | None  # fig7 reports a growth summary instead


FIGURE_SPECS = {
    "fig3": FigureSpec("nd", "dcp", "omega", (0.5, 1.0, 3.0, 9.0), "flip", "plus-minus", (10.0, 2000), (0.5, 9.0), (20.0, 4000), None),
    "fig4": FigureSpec("ne", "dcp", "omega", (0.5, 1.0, 3.0, 9.0), "flip", None, (10.0, 2000), (0.5, 9.0), (20.0, 2000), None),
    "fig5": FigureSpec("nd", "eternal", "nu", (1.0, 2.0, 4.0, 9.0), "flip", "plus-minus", (10.0, 2000), (1.0, 9.0), (20.0, 4000), None),
    "fig6": FigureSpec("ne", "eternal", "nu", (1.0, 2.0, 4.0, 9.0), "flip", None, (10.0, 2000), (1.0, 9.0), (20.0, 2000), None),
    "fig7": FigureSpec("nd", "gad", "alpha", (8.0, 4.0, 2.0, 1.0), "switch", "plus-minus", (20.0, 4000), None, None, (20.0, 4000)),
    "fig8": FigureSpec("ne", "gad", "alpha", (8.0, 4.0, 2.0, 1.0), "switch", None, (20.0, 4000), (1.0, 8.0), (20.0, 2000), None),
    "fig9": FigureSpec("nd", "nonunital-eternal", "mu", (0.8, 0.6, 0.4, 0.0), "switch", "zero-one", (10.0, 2000), (0.0, 0.8), (20.0, 4000), None),
    "fig10": FigureSpec("ne", "nonunital-eternal", "mu", (0.8, 0.6, 0.4, 0.0), "switch", None, (10.0, 2000), (0.0, 0.8), (20.0, 2000), None),
}
FIGURES = tuple(FIGURE_SPECS)

SEARCH_SAMPLES = 200
SEARCH_GRID = (20.0, 4000)  # the CLI default grid; search jobs give none

# Sweep grids are finer than the CLI default of 4000 steps: a switch Kraus
# stack then holds 6001 * 16 complex 2x2 operators (6.1 MB), more than the
# 4 MB L2 of the reference machine.
SWEEP_STEPS = 6000
SWEEP_T_MAX = 20.0

# (command, measure, supermap) -> number of jobs.  100 jobs in all: 75
# measure (6 of them expected refusals), 12 evolve, 13 check.
SWEEP_CELLS = (
    ("measure", "nd", "none", 8),
    ("measure", "nd", "flip", 14),
    ("measure", "nd", "switch", 14),
    ("measure", "ne", "none", 8),
    ("measure", "ne", "flip", 12),
    ("measure", "ne", "switch", 13),
    ("evolve", "nd", "flip", 3),
    ("evolve", "nd", "switch", 3),
    ("evolve", "ne", "flip", 3),
    ("evolve", "ne", "switch", 3),
    ("check", None, None, 13),
)

# Expected refusals, each with its documented exit code:
# 3: dcp with w < 1/2 is not CPTP;  2: the time flip of a non-unital family;
# 4: 'minus' post-selection has probability 0 at t = 0 on every grid.
REFUSALS = (3, 3, 2, 2, 4, 4)

UNITAL = ("dcp", "eternal")
FAMILIES = ("dcp", "eternal", "gad", "nonunital-eternal")
NAMED_CONTROLS = ("plus", "minus", "zero", "one")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    config: dict | None  # written to {w}/cfg/<name>.json when given
    expect: dict

    def materialize(self, workdir: str) -> list[str]:
        return [a.replace(PLACEHOLDER, workdir) for a in self.argv]


def _param_draw(rng: random.Random, family: str) -> float:
    """A parameter inside the family's CPTP range."""
    if family == "dcp":
        return rng.uniform(0.5, 9.0)
    if family == "eternal":
        return rng.uniform(1.0, 9.0)
    if family == "gad":
        return rng.uniform(0.5, 8.0)
    # |mu| <= 1 is the CPTP range; near |mu| = 1 the restated expression for
    # lam cancels to a few digits at large t, so stay clear of the edge.
    return rng.uniform(-0.9, 0.9)


def custom_expressions(family: str, p: float) -> dict:
    """Expression strings that restate a named family.

    They use only ``t``, literals, arithmetic and whitelisted numpy
    functions, the subset a restricted expression evaluator keeps.
    """
    p = repr(p)
    if family == "dcp":
        return {"lam": f"exp(-{p}*t)", "lam_z": "exp(-t)", "lam_star": "0*t"}
    if family == "eternal":
        return {"lam": f"(1+exp(-{p}*t))/2", "lam_z": "exp(-t)", "lam_star": "0*t"}
    if family == "gad":
        return {
            "lam": "exp(-t)",
            "lam_z": "exp(-2*t)",
            "lam_star": f"2*sin({p}*t)/sqrt(4+({p})*({p}))",
        }
    return {
        "lam": f"sqrt((1+exp(-t))**2-({p})*({p})*(1-exp(-t))**2)/2",
        "lam_z": "exp(-t)",
        "lam_star": f"({p})*(1-exp(-t))",
    }


def _control_draw(rng: random.Random):
    """A named control ket or a complex [re, im] ket, post-selected on 'plus'."""
    if rng.random() < 0.5:
        return rng.choice(NAMED_CONTROLS)
    theta = rng.uniform(0.0, 0.5 * math.pi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return [[math.cos(theta), 0.0], [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi)]]


def _figures_jobs() -> list[Job]:
    jobs = [
        Job(("reproduce", fig, "--out", f"{PLACEHOLDER}/out/{fig}"), None, {"kind": "figure", "figure": fig})
        for fig in FIGURES
    ]
    jobs.append(Job(("oracles",), None, {"kind": "oracles"}))
    return jobs


def _scenario_job(name: str, command: str, scenario: dict, config: dict | None, flags: list[str]) -> Job:
    if config is not None:
        argv = [command, "--config", f"{PLACEHOLDER}/cfg/{name}.json"]
    else:
        argv = [command]
    argv += flags
    expect = dict(scenario, kind=command, name=name)
    return Job(tuple(argv), config, expect)


def _search_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"search-{seed}")
    control = _control_draw(rng)
    while isinstance(control, str):
        control = _control_draw(rng)
    jobs = []
    for i, (family, param, supermap, ctrl) in enumerate((
        ("dcp", 0.5, "flip", "plus"),
        ("gad", 1.0, "switch", "plus"),
        ("nonunital-eternal", 0.6, "switch", control),
    )):
        name = f"search{i}"
        out = f"{PLACEHOLDER}/out/{name}.csv"
        pair_seed = rng.randrange(2**31)
        config = {
            "family": family, "param": param, "supermap": supermap, "measure": "nd",
            "control": {"initial": ctrl, "postselect": "plus"},
            "pair": {"samples": SEARCH_SAMPLES, "seed": pair_seed},
            "output": out,
        }
        scenario = {
            "family": family, "param": param, "supermap": supermap, "measure": "nd",
            "pair": "search", "pair_seed": pair_seed, "control": ctrl,
            "t_max": SEARCH_GRID[0], "steps": SEARCH_GRID[1], "out": out, "exit": 0,
        }
        jobs.append(_scenario_job(name, "measure", scenario, config, []))
    return jobs


def _sweep_job(rng: random.Random, name: str, command: str, measure, supermap, family: str, custom: bool) -> Job:
    param = _param_draw(rng, family)
    control = _control_draw(rng) if supermap in ("flip", "switch") else "plus"
    pair = rng.choice(("plus-minus", "zero-one")) if measure == "nd" and command != "check" else None
    out = f"{PLACEHOLDER}/out/{name}.csv"
    scenario = {
        "family": family, "param": param, "supermap": supermap, "measure": measure,
        "pair": pair, "control": control, "custom": custom,
        "t_max": SWEEP_T_MAX, "steps": SWEEP_STEPS, "out": out, "exit": 0,
    }
    flags = ["--steps", str(SWEEP_STEPS), "--out", out]
    if command != "check":
        flags += ["--supermap", supermap, "--measure", measure]
    if pair is not None:
        flags += ["--pair", pair]
    if not custom and control == "plus":
        return _scenario_job(name, command, scenario, None, ["--family", family, "--param", repr(param)] + flags)
    config = {"grid": {"t_max": SWEEP_T_MAX}, "control": {"initial": control, "postselect": "plus"}}
    if custom:
        config.update(family="custom", custom=custom_expressions(family, param))
    else:
        config.update(family=family, param=param)
    return _scenario_job(name, command, scenario, config, flags)


def _refusal_job(rng: random.Random, name: str, code: int) -> Job:
    flags = ["--steps", str(SWEEP_STEPS), "--measure", "nd"]
    config = None
    if code == 3:
        family, param = "dcp", rng.uniform(0.2, 0.45)
        flags += ["--supermap", rng.choice(("none", "flip"))]
    elif code == 2:
        family = rng.choice(("gad", "nonunital-eternal"))
        param = _param_draw(rng, family)
        flags += ["--supermap", "flip"]
    else:
        supermap = rng.choice(("flip", "switch"))
        family = rng.choice(UNITAL if supermap == "flip" else FAMILIES)
        param = _param_draw(rng, family)
        flags += ["--supermap", supermap]
        config = {"control": {"initial": "plus", "postselect": "minus"}}
    flags += ["--family", family, "--param", repr(param)]
    return _scenario_job(name, "measure", {"exit": code}, config, flags)


def _sweep_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"sweep-{seed}")
    jobs = []
    for command, measure, supermap, count in SWEEP_CELLS:
        # Families take turns within a cell, from a seeded order, so that the
        # seed moves each family's share of a cell by at most one job.
        families = list(UNITAL if supermap == "flip" else FAMILIES)
        rng.shuffle(families)
        n_custom = round(count / 4)
        for i in range(count):
            name = f"j{len(jobs):03d}"
            family = families[i % len(families)]
            jobs.append(_sweep_job(rng, name, command, measure, supermap, family, custom=i < n_custom))
    for code in REFUSALS:
        jobs.append(_refusal_job(rng, f"j{len(jobs):03d}", code))
    rng.shuffle(jobs)
    return jobs


def warmup_job(jobs: list[Job]) -> Job:
    """The untimed first job of a run: the workload's first job that succeeds.

    It pays the lazy imports and the numpy dispatch set-up before anything
    is timed, and grows the heap no further than the workload itself does,
    so that ``ru_maxrss`` stays the workload's own peak.
    """
    return next(job for job in jobs if job.expect.get("exit", 0) == 0)


def generate(workload: str, seed: int) -> list[Job]:
    if workload == "figures":
        return _figures_jobs()
    if workload == "search":
        return _search_jobs(seed)
    if workload == "sweep":
        return _sweep_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(jobs: list[Job], workdir: str) -> None:
    """Write the config documents of the jobs under the work directory."""
    root = Path(workdir)
    (root / "cfg").mkdir(parents=True, exist_ok=True)
    (root / "out").mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if job.config is not None:
            text = json.dumps(job.config, sort_keys=True).replace(PLACEHOLDER, workdir)
            (root / "cfg" / f"{job.expect['name']}.json").write_text(text, encoding="utf-8")


def grid_points(jobs: list[Job]) -> list[int]:
    """Sizes of the time grids the jobs run on."""
    points = set()
    for job in jobs:
        if job.expect["kind"] == "figure":
            spec = FIGURE_SPECS[job.expect["figure"]]
            grids = (spec.curve_grid, spec.inset_grid, spec.growth_grid)
            points.update(grid[1] + 1 for grid in grids if grid is not None)
        elif "steps" in job.expect:
            points.add(job.expect["steps"] + 1)
    return sorted(points)


def job_list_hash(jobs: list[Job]) -> str:
    doc = [[list(j.argv), j.config, j.expect] for j in jobs]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]
