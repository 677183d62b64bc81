"""Distinguishability and entanglement signals over time grids, and the
backflow measures built from them.

The two memory quantifiers accumulate every temporary increase of a scalar
signal along the evolution: trace distance of a state pair for the
distinguishability measure, entanglement of formation of an evolved
maximally entangled state for the entanglement measure.  Trajectories are
evaluated by rebuilding the (super)channel from the family's Kraus set at
every grid time; nothing is concatenated across grid points.  Both signals
are read off the map's real Pauli transfer matrix T_ab = tr(sigma_a
M(sigma_b)) / 2: a state (1, r) goes to T @ (1, r), whose first component
is the branch probability, and the concurrence of the evolved maximally
entangled state is a closed form in the entries of T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .channels import (
    ChannelFamily,
    DecoherenceRates,
    bloch_from_density,
    cptp_check,
    cptp_inequalities,
    density_from_bloch,
    family_triples,
    kraus_stack,
    params_at,
)
from .errors import (
    BidirectionalityError,
    ConfigurationError,
    CptpViolationError,
    NumericContractError,
    PostSelectionError,
)
from .supermaps import SUCCESS_PROB_FLOOR, ControlSpec

INCREMENT_DEAD_BAND = 1e-12

SUPERMAP_MODES = ("none", "flip", "switch")

_Y2 = np.kron(matcore.PAULI_Y, matcore.PAULI_Y).real.astype(complex)
_PAULIS = np.stack([matcore.ID2, matcore.PAULI_X, matcore.PAULI_Y, matcore.PAULI_Z])
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]])


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * t_max / steps, k = 0..steps."""

    t_max: float
    steps: int

    def __post_init__(self) -> None:
        if not self.t_max > 0:
            raise ConfigurationError("t_max must be positive")
        if self.steps < 1:
            raise ConfigurationError("steps must be at least 1")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.steps + 1)


@dataclass(frozen=True)
class Trajectory:
    """A scalar signal sampled on a time grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.steps + 1,):
            raise ConfigurationError("trajectory length must match the grid")
        if not np.all(np.isfinite(values)):
            raise NumericContractError("trajectory contains non-finite values")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class MemoryResult:
    """Accumulated backflow of a signal with the intervals where it revived."""

    measure_value: float
    revival_intervals: tuple[tuple[float, float], ...]
    signal: Trajectory


@dataclass(frozen=True)
class StatePair:
    rho1: np.ndarray
    rho2: np.ndarray

    def __post_init__(self) -> None:
        r1 = matcore.check_density_matrix(self.rho1)
        r2 = matcore.check_density_matrix(self.rho2)
        if r1.shape != r2.shape:
            raise ConfigurationError("pair members must have equal dimensions")


PAIR_NAMES = ("plus-minus", "zero-one")


def named_pair(name: str) -> StatePair:
    """The two reference orthogonal pairs used by the standard scenarios."""
    if name == "plus-minus":
        return StatePair(matcore.density(matcore.KET_PLUS), matcore.density(matcore.KET_MINUS))
    if name == "zero-one":
        return StatePair(matcore.density(matcore.KET_ZERO), matcore.density(matcore.KET_ONE))
    raise ConfigurationError(f"unknown named pair {name!r}")


def antipodal_pair(v: np.ndarray) -> StatePair:
    """Orthogonal pure-state pair along a unit Bloch direction."""
    v = np.asarray(v, dtype=float)
    return StatePair(density_from_bloch(v), density_from_bloch(-v))


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Half the trace norm of the difference of two states."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ConfigurationError("states must have equal dimensions")
    w, _ = matcore.hermitian_eigen(rho1 - rho2)
    return float(0.5 * np.abs(w).sum())


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence via the Hermitian square-root route.

    The Wootters coefficients are the eigenvalues of
    psd_sqrt(psd_sqrt(rho) rho~ psd_sqrt(rho)) with rho~ the spin-flipped
    state; they are computed here as the singular values of
    psd_sqrt(rho~) psd_sqrt(rho), which is the same spectrum without the
    square-then-root noise amplification.
    """
    rho = matcore.check_density_matrix(rho)
    if rho.shape != (4, 4):
        raise ConfigurationError("concurrence expects a two-qubit state")
    root = matcore.psd_sqrt(rho)
    flipped_root = _Y2 @ root.conj() @ _Y2
    lam = np.linalg.svd(flipped_root @ root, compute_uv=False)
    c = float(lam[0] - lam[1] - lam[2] - lam[3])
    return min(max(c, 0.0), 1.0)


def entanglement_of_formation(c):
    """Entanglement of formation of a two-qubit state from its concurrence,
    elementwise (a scalar gives a float)."""
    c = np.asarray(c, dtype=float)
    outside = (c < -1e-9) | (c > 1.0 + 1e-9)
    if np.any(outside):
        raise NumericContractError(f"concurrence {c[outside].flat[0]!r} outside [0, 1]")
    c = np.clip(c, 0.0, 1.0)
    x = 0.5 + 0.5 * np.sqrt(1.0 - c * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.where(x < 1.0, -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x), 0.0)
    return float(e) if e.ndim == 0 else e


def revival_runs(increments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of increments above the dead band, as index arrays.

    Run ``i`` covers ``increments[starts[i]:ends[i]]``.
    """
    rising = np.concatenate(([False], increments > INCREMENT_DEAD_BAND, [False]))
    edges = np.diff(rising.astype(np.int8))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


def backflow_accumulate(signal: Trajectory) -> MemoryResult:
    """Sum of the positive increments of a sampled signal.

    Increments below the dead band count as zero; revival intervals are
    the maximal runs of positive increments.
    """
    ts = signal.grid.points
    increments = np.diff(signal.values)
    total = float(increments[increments > INCREMENT_DEAD_BAND].sum())
    intervals = tuple((float(ts[a]), float(ts[b])) for a, b in zip(*revival_runs(increments)))
    return MemoryResult(total, intervals, signal)


def td_witness(r: DecoherenceRates):
    """True where the rate signs allow a trace-distance revival (elementwise on arrays)."""
    return (r.gamma_plus + r.gamma_minus + 4.0 * r.gamma_z < 0.0) | (
        r.gamma_plus + r.gamma_minus < 0.0
    )


# ---------------------------------------------------------------------------
# Grid evolution engine.  All grid times are processed at once with stacked
# arrays; the per-time operations in `channels` and `supermaps` define the
# same maps one time point at a time.
# ---------------------------------------------------------------------------


def _checked_triples(family: ChannelFamily, ts: np.ndarray):
    lam, lam_z, lam_star = family_triples(family, ts)
    first, second, _ = cptp_inequalities(lam, lam_z, lam_star)
    bad = ~(first & second)
    if np.any(bad):
        t_bad = float(ts[np.argmax(bad)])
        reason = cptp_check(params_at(family, t_bad)).reason
        raise CptpViolationError(
            f"family {family.label} is not CPTP at t = {t_bad:.9g}: {reason}"
        )
    return lam, lam_z, lam_star


def _control_weights(ctrl: ControlSpec) -> tuple[complex, complex]:
    outcome = ctrl.outcome_vector()
    chi = ctrl.initial
    return complex(np.conj(outcome[0]) * chi[0]), complex(np.conj(outcome[1]) * chi[1])


def conditional_kraus(
    family: ChannelFamily, supermap: str, ts: np.ndarray, ctrl: ControlSpec | None
):
    """Stacked conditional Kraus operators on the system, shape (T, n, 2, 2).

    For the plain channel these are the channel's own operators and the
    evolution is trace preserving (``postselected`` False).  For the two
    supermaps the control-diagonal block structure is contracted against
    the initial control state and the selected outcome, so that the
    conditional, unnormalized evolution is an operator sum on the system
    alone (``postselected`` True).
    """
    if supermap not in SUPERMAP_MODES:
        raise ConfigurationError(f"unknown supermap mode {supermap!r}")
    ts = np.asarray(ts, dtype=float)
    lam, lam_z, lam_star = _checked_triples(family, ts)
    mk = kraus_stack(lam, lam_z, lam_star)
    if supermap == "none":
        return mk, False
    if ctrl is None:
        ctrl = ControlSpec()
    w0, w1 = _control_weights(ctrl)
    if supermap == "flip":
        if float(np.max(np.abs(lam_star))) > 1e-12:
            raise BidirectionalityError(
                "time flip requires a unital family (the axial shift must vanish)"
            )
        return w0 * mk + w1 * mk.transpose(0, 1, 3, 2), True
    products = np.einsum("tiab,tjbc->tijac", mk, mk)
    t_len = mk.shape[0]
    one_two = products.reshape(t_len, 16, 2, 2)
    two_one = products.transpose(0, 2, 1, 3, 4).reshape(t_len, 16, 2, 2)
    return w0 * one_two + w1 * two_one, True


def transfer_matrices(
    family: ChannelFamily, supermap: str, ts: np.ndarray, ctrl: ControlSpec | None
) -> tuple[np.ndarray, bool]:
    """Real Pauli transfer matrices T_ab = tr(sigma_a M(sigma_b)) / 2 of the
    conditional map at every time, shape (T, 4, 4), and whether it is post-selected."""
    stack, postselected = conditional_kraus(family, supermap, ts, ctrl)
    t = np.einsum("aki,tnij,bjl,tnkl->tab", _PAULIS, stack, _PAULIS, stack.conj(), optimize=True)
    return t.real / 2.0, postselected


def _checked_probs(probs: np.ndarray, ts: np.ndarray, postselected: bool):
    """The branch probabilities of a post-selected evolution (None otherwise),
    refused from the first time at or below the floor."""
    if not postselected:
        return None
    bad = probs <= SUCCESS_PROB_FLOOR
    if np.any(bad):
        t_bad = float(ts[np.argmax(bad)])
        raise PostSelectionError(f"post-selection probability vanishes at t = {t_bad:.9g}")
    return probs


@dataclass(frozen=True)
class PairEvolution:
    """Bloch vectors of both members of a pair over a grid, with branch probabilities."""

    grid: TimeGrid
    bloch_1: np.ndarray
    bloch_2: np.ndarray
    probs_1: np.ndarray | None
    probs_2: np.ndarray | None

    @property
    def distance(self) -> np.ndarray:
        """Trace distance of the two members at every grid time."""
        return 0.5 * np.linalg.norm(self.bloch_1 - self.bloch_2, axis=1)


def _evolve_pair(grid: TimeGrid, transfer, postselected: bool, v1, v2) -> PairEvolution:
    """Evolve the two states with Pauli vectors v1 = (1, r1) and v2 = (1, r2)."""
    out_1, out_2 = transfer @ v1, transfer @ v2
    probs_1 = _checked_probs(out_1[:, 0], grid.points, postselected)
    probs_2 = _checked_probs(out_2[:, 0], grid.points, postselected)
    if postselected:
        out_1, out_2 = out_1 / probs_1[:, None], out_2 / probs_2[:, None]
    return PairEvolution(grid, out_1[:, 1:], out_2[:, 1:], probs_1, probs_2)


def _concurrence_series(transfer: np.ndarray) -> np.ndarray:
    # Every conditional Kraus operator is diagonal or anti-diagonal, so the
    # map keeps (I, Z) apart from (X, Y) and T_ab vanishes across the two
    # blocks.  The Choi state sum_ab T_ab sigma_a (x) sigma_b^T / 4 is then an
    # X state (nonzero only on the diagonal and anti-diagonal), whose
    # concurrence has the closed form of Yu & Eberly, QIC 7, 459 (2007).
    # Its populations <ij|rho|ij> come from the (I, Z) block, its two
    # coherences |rho_03| and |rho_12| from the (X, Y) block.
    pops = _HADAMARD @ transfer[:, ::3, ::3] @ _HADAMARD / 4.0
    xx, xy, yx, yy = (transfer[:, a, b] for a in (1, 2) for b in (1, 2))
    rho_03, rho_12 = np.hypot(xx + yy, xy - yx) / 4.0, np.hypot(xx - yy, xy + yx) / 4.0
    outer = rho_03 - np.sqrt(np.clip(pops[:, 0, 1] * pops[:, 1, 0], 0.0, None))
    inner = rho_12 - np.sqrt(np.clip(pops[:, 0, 0] * pops[:, 1, 1], 0.0, None))
    return np.clip(2.0 * np.maximum(outer, inner), 0.0, 1.0)


def pair_evolution(
    family: ChannelFamily,
    supermap: str,
    pair: StatePair,
    grid: TimeGrid,
    ctrl: ControlSpec | None = None,
) -> PairEvolution:
    """Evolve both pair members through the scenario at every grid time."""
    transfer, postselected = transfer_matrices(family, supermap, grid.points, ctrl)
    v1, v2 = (np.append(1.0, bloch_from_density(rho)) for rho in (pair.rho1, pair.rho2))
    return _evolve_pair(grid, transfer, postselected, v1, v2)


def entanglement_signals(
    family: ChannelFamily,
    supermap: str,
    grid: TimeGrid,
    ctrl: ControlSpec | None = None,
):
    """Concurrence and entanglement-of-formation series of the evolved maximally
    entangled system-ancilla state, with branch probabilities."""
    transfer, postselected = transfer_matrices(family, supermap, grid.points, ctrl)
    probs = _checked_probs(transfer[:, 0, 0], grid.points, postselected)
    if postselected:
        transfer = transfer / probs[:, None, None]
    c = _concurrence_series(transfer)
    return c, entanglement_of_formation(c), probs


def nd_for_scenario(
    family: ChannelFamily,
    supermap: str,
    pair: StatePair,
    grid: TimeGrid,
    ctrl: ControlSpec | None = None,
) -> MemoryResult:
    """Trace-distance backflow accumulated over the scenario."""
    distance = pair_evolution(family, supermap, pair, grid, ctrl).distance
    return backflow_accumulate(Trajectory(grid, distance))


def ne_for_scenario(
    family: ChannelFamily,
    supermap: str,
    grid: TimeGrid,
    ctrl: ControlSpec | None = None,
) -> MemoryResult:
    """Entanglement-of-formation backflow accumulated over the scenario."""
    _, eof, _ = entanglement_signals(family, supermap, grid, ctrl)
    return backflow_accumulate(Trajectory(grid, eof))


def pair_search(
    family: ChannelFamily,
    supermap: str,
    grid: TimeGrid,
    samples: int,
    seed: int,
    ctrl: ControlSpec | None = None,
) -> tuple[StatePair, MemoryResult]:
    """Empirical maximization of the distance backflow over orthogonal pairs.

    Samples antipodal pure-state pairs uniformly on the Bloch sphere
    (deterministically for a given seed) and returns the best one; the
    result is a lower bound on the maximum over all pairs.
    """
    if samples < 1:
        raise ConfigurationError("samples must be at least 1")
    transfer, postselected = transfer_matrices(family, supermap, grid.points, ctrl)
    rng = np.random.default_rng(seed)
    zs = rng.uniform(-1.0, 1.0, size=samples)
    phis = rng.uniform(0.0, 2.0 * np.pi, size=samples)
    best_v = None
    best_result = None
    for z, phi in zip(zs, phis):
        r = np.sqrt(1.0 - z * z)
        v = np.array([r * np.cos(phi), r * np.sin(phi), z])
        ev = _evolve_pair(grid, transfer, postselected, np.append(1.0, v), np.append(1.0, -v))
        result = backflow_accumulate(Trajectory(grid, ev.distance))
        if best_result is None or result.measure_value > best_result.measure_value:
            best_v, best_result = v, result
    return antipodal_pair(best_v), best_result
