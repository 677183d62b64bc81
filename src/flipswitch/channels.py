"""Phase-covariant qubit channels and their named time-parameterized families.

A phase-covariant channel is fixed by three real numbers: the equatorial
contraction ``lam``, the axial contraction ``lam_z`` and the axial shift
``lam_star``.  On the Bloch ball it acts as

    (x, y, z)  ->  (lam * x, lam * y, lam_z * z + lam_star).

Four named families parameterize the triple over time (``dcp``,
``eternal``, ``gad``, ``nonunital-eternal``), each controlled by a single
real number; arbitrary time dependences are supported through ``custom``
families built from three callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import matcore
from .errors import (
    ConfigurationError,
    CptpViolationError,
    SingularityError,
)

CPTP_SLACK = 1e-12
UNITAL_TOL = 1e-11

FAMILY_IDS = ("dcp", "eternal", "gad", "nonunital-eternal", "custom")


@dataclass(frozen=True)
class PhaseCovParams:
    """Contraction/shift triple of a phase-covariant qubit map."""

    lam: float
    lam_z: float
    lam_star: float


@dataclass(frozen=True)
class CptpVerdict:
    valid: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class KrausSet:
    """Operator-sum representation of a qubit channel."""

    operators: tuple[np.ndarray, ...]
    label: str = ""


@dataclass(frozen=True)
class DecoherenceRates:
    """Gain, dissipation and dephasing rates (floats, or arrays over a time grid)."""

    gamma_plus: float
    gamma_minus: float
    gamma_z: float


@dataclass(frozen=True)
class ChannelFamily:
    """A named or custom time-parameterized family of parameter triples.

    ``triple`` holds the three callables of a custom family; the callables
    must accept scalar or numpy-array time arguments.
    """

    kind: str
    param: float = 0.0
    triple: tuple[Callable, Callable, Callable] | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_IDS:
            raise ConfigurationError(f"unknown channel family {self.kind!r}")
        if self.kind == "custom":
            if self.triple is None or len(self.triple) != 3:
                raise ConfigurationError("custom family needs three time functions")
            return
        if not math.isfinite(self.param):
            raise ConfigurationError(f"family parameter must be finite, got {self.param!r}")
        if self.kind == "gad" and self.param <= 0:
            raise ConfigurationError("gad family requires a positive oscillation parameter")
        if self.kind == "nonunital-eternal" and abs(self.param) > 1:
            raise ConfigurationError(
                "nonunital-eternal family requires |mu| <= 1 (the triple is undefined beyond)"
            )

    @property
    def label(self) -> str:
        if self.kind == "custom":
            return "custom"
        return f"{self.kind}({self.param:g})"


def depolarizing(omega: float) -> ChannelFamily:
    """Anisotropic depolarizing family: lam = e^{-omega t}, lam_z = e^{-t}."""
    return ChannelFamily("dcp", float(omega))


def eternal_unital(nu: float) -> ChannelFamily:
    """Unital family lam = (1 + e^{-nu t})/2, lam_z = e^{-t}."""
    return ChannelFamily("eternal", float(nu))


def gad_switchable(alpha: float) -> ChannelFamily:
    """Generalized-amplitude-damping family with oscillating axial shift."""
    return ChannelFamily("gad", float(alpha))


def nonunital_eternal(mu: float) -> ChannelFamily:
    """Non-unital family with an always-negative dephasing rate for |mu| < 1."""
    return ChannelFamily("nonunital-eternal", float(mu))


def custom_family(
    lam: Callable, lam_z: Callable, lam_star: Callable
) -> ChannelFamily:
    """Family built from three vectorized callables of time."""
    return ChannelFamily("custom", triple=(lam, lam_z, lam_star))


def family_from_id(kind: str, param: float) -> ChannelFamily:
    """Resolve a CLI family identifier; custom families are programmatic only."""
    if kind == "custom":
        raise ConfigurationError("custom families are constructed with custom_family()")
    return ChannelFamily(kind, float(param))


def family_triples(family: ChannelFamily, t):
    """Evaluate (lam, lam_z, lam_star) at scalar or array times t >= 0."""
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0):
        raise ConfigurationError("time must be non-negative")
    if family.kind == "dcp":
        return np.exp(-family.param * ts), np.exp(-ts), np.zeros_like(ts)
    if family.kind == "eternal":
        return (1.0 + np.exp(-family.param * ts)) / 2.0, np.exp(-ts), np.zeros_like(ts)
    if family.kind == "gad":
        a = family.param
        return (
            np.exp(-ts),
            np.exp(-2.0 * ts),
            2.0 * np.sin(a * ts) / math.sqrt(4.0 + a * a),
        )
    if family.kind == "nonunital-eternal":
        mu = family.param
        x = np.exp(-ts)
        inner = (1.0 + x) ** 2 - mu * mu * (1.0 - x) ** 2
        return 0.5 * np.sqrt(np.maximum(inner, 0.0)), x, mu * (1.0 - x)
    triple = tuple(
        np.broadcast_to(np.asarray(f(ts), dtype=float), ts.shape).copy() for f in family.triple
    )
    finite = np.isfinite(triple).all(axis=0)
    if not np.all(finite):
        t_bad = float(ts.flat[np.argmin(finite)])
        raise ConfigurationError(f"custom family is not finite at t = {t_bad:.9g}")
    return triple


def params_at(family: ChannelFamily, t: float) -> PhaseCovParams:
    """Parameter triple of the family at a single time."""
    lam, lam_z, lam_star = family_triples(family, float(t))
    return PhaseCovParams(float(lam), float(lam_z), float(lam_star))


def cptp_inequalities(lam, lam_z, lam_star, slack: float = CPTP_SLACK):
    """Elementwise truth of |lam_z| + |lam_star| <= 1 and sqrt(4 lam^2 + lam_star^2)
    <= 1 + lam_z, each up to ``slack``, plus their sides (lhs1, lhs2, rhs2).
    Both are linear in the Choi eigenvalues, so no admitted eigenvalue is below
    -``slack``; written as ``<=`` so that NaN fails them.
    """
    lhs1 = np.abs(lam_z) + np.abs(lam_star)
    lhs2 = np.hypot(2.0 * lam, lam_star)
    rhs2 = 1.0 + lam_z
    return lhs1 <= 1.0 + slack, lhs2 <= rhs2 + slack, (lhs1, lhs2, rhs2)


def cptp_check(p: PhaseCovParams, slack: float = CPTP_SLACK) -> CptpVerdict:
    """Check the two complete-positivity inequalities of the triple."""
    first, second, (lhs1, lhs2, rhs2) = cptp_inequalities(p.lam, p.lam_z, p.lam_star, slack)
    if not first:
        return CptpVerdict(False, f"|lam_z| + |lam_star| = {lhs1:.12g} > 1")
    if not second:
        return CptpVerdict(
            False, f"sqrt(4 lam^2 + lam_star^2) = {lhs2:.12g} > 1 + lam_z = {rhs2:.12g}"
        )
    return CptpVerdict(True)


def density_from_bloch(v: Sequence[float]) -> np.ndarray:
    """Qubit density matrix with the given Bloch vector."""
    x, y, z = (float(c) for c in v)
    return 0.5 * (
        matcore.ID2 + x * matcore.PAULI_X + y * matcore.PAULI_Y + z * matcore.PAULI_Z
    )


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (x, y, z) of a qubit density matrix."""
    return np.array(
        [
            float(np.trace(matcore.PAULI_X @ rho).real),
            float(np.trace(matcore.PAULI_Y @ rho).real),
            float(np.trace(matcore.PAULI_Z @ rho).real),
        ]
    )


def bloch_image(p: PhaseCovParams, v: Sequence[float]) -> np.ndarray:
    """Image of a Bloch vector under the channel's affine action."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ConfigurationError("Bloch vector must have three components")
    if float(np.linalg.norm(v)) > 1.0 + 1e-12:
        raise ConfigurationError("Bloch vector must lie inside the unit ball")
    return np.array([p.lam * v[0], p.lam * v[1], p.lam_z * v[2] + p.lam_star])


def apply_direct(p: PhaseCovParams, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a qubit state through its defining action."""
    verdict = cptp_check(p)
    if not verdict:
        raise CptpViolationError(verdict.reason)
    rho = matcore.check_density_matrix(rho)
    if rho.shape != (2, 2):
        raise ConfigurationError("apply_direct expects a single-qubit state")
    out = 0.5 * (
        np.trace(rho) * (matcore.ID2 + p.lam_star * matcore.PAULI_Z)
        + p.lam * np.trace(matcore.PAULI_X @ rho) * matcore.PAULI_X
        + p.lam * np.trace(matcore.PAULI_Y @ rho) * matcore.PAULI_Y
        + p.lam_z * np.trace(matcore.PAULI_Z @ rho) * matcore.PAULI_Z
    )
    return out


def kraus_stack(lam, lam_z, lam_star) -> np.ndarray:
    """Kraus operators for one or many triples, shaped (..., 4, 2, 2).

    Assumes the triples are CPTP-valid; round-off negatives in the operator
    weights are clipped.
    """
    lam, lam_z, lam_star = np.broadcast_arrays(
        np.asarray(lam, dtype=float),
        np.asarray(lam_z, dtype=float),
        np.asarray(lam_star, dtype=float),
    )
    s = np.sqrt(lam_star**2 + 4.0 * lam**2)
    w_up = np.sqrt(np.clip((1.0 - lam_z + lam_star) / 2.0, 0.0, None))
    w_down = np.sqrt(np.clip((1.0 - lam_z - lam_star) / 2.0, 0.0, None))
    w_plus = np.sqrt(np.clip((1.0 + lam_z + s) / 2.0, 0.0, None))
    w_minus = np.sqrt(np.clip((1.0 + lam_z - s) / 2.0, 0.0, None))
    # Two algebraically equal forms of the rotation angle; picking by the
    # sign of lam_star avoids the cancellation in lam_star + s (or s -
    # lam_star) when |lam| << |lam_star|.  At lam = 0 they reduce exactly
    # to the continuous limits 0 (lam_star >= 0) and pi/2 (lam_star < 0).
    theta = np.where(
        lam_star >= 0.0,
        np.arctan2(2.0 * lam, lam_star + s),
        np.arctan2(s - lam_star, 2.0 * lam),
    )
    c, sn = np.cos(theta), np.sin(theta)
    out = np.zeros(lam.shape + (4, 2, 2), dtype=complex)
    out[..., 0, 0, 1] = w_up
    out[..., 1, 1, 0] = w_down
    out[..., 2, 0, 0] = w_plus * c
    out[..., 2, 1, 1] = w_plus * sn
    out[..., 3, 0, 0] = -w_minus * sn
    out[..., 3, 1, 1] = w_minus * c
    return out


def kraus_from_params(p: PhaseCovParams) -> KrausSet:
    """Four-operator Kraus set realizing the channel of a valid triple."""
    verdict = cptp_check(p)
    if not verdict:
        raise CptpViolationError(verdict.reason)
    ops = kraus_stack(p.lam, p.lam_z, p.lam_star)
    label = f"pc({p.lam:g},{p.lam_z:g},{p.lam_star:g})"
    return KrausSet(tuple(ops[i].copy() for i in range(4)), label)


def channel_apply(k: KrausSet, m: np.ndarray) -> np.ndarray:
    """Operator-sum action of a Kraus set on any (not necessarily state) matrix."""
    m = np.asarray(m, dtype=complex)
    out = np.zeros_like(m)
    for op in k.operators:
        out += op @ m @ op.conj().T
    return out


def transpose_channel(k: KrausSet) -> KrausSet:
    """Input-output inverted channel: every operator transposed, no conjugation."""
    return KrausSet(tuple(op.T.copy() for op in k.operators), k.label + ".T")


def is_unital(k: KrausSet, tol: float = UNITAL_TOL) -> bool:
    """True when the channel maps the identity to itself."""
    dim = k.operators[0].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for op in k.operators:
        acc += op @ op.conj().T
    return bool(np.max(np.abs(acc - np.eye(dim))) <= tol)


def invariant_state(p: PhaseCovParams) -> np.ndarray:
    """The state left unchanged by the channel; undefined at lam_z = 1."""
    if abs(1.0 - p.lam_z) < 1e-12:
        raise SingularityError("invariant state is undefined for lam_z = 1")
    return density_from_bloch((0.0, 0.0, p.lam_star / (1.0 - p.lam_z)))


def lindblad_rates(family: ChannelFamily, t) -> DecoherenceRates:
    """Decoherence rates of the time-local generator at scalar or array times t.

    Named families use their closed forms; custom families fall back to
    central finite differences (step 1e-6, one-sided where t < 1e-6).
    Scalar t gives float rates, array t arrays of its shape.
    """
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0):
        raise ConfigurationError("time must be non-negative")
    # exp/cosh arguments are capped where the rate already equals its limit
    # to double precision (z > 700, t > 350), so nothing overflows
    if family.kind == "dcp":
        rates = (0.5, 0.5, (2.0 * family.param - 1.0) / 4.0)
    elif family.kind == "eternal":
        nu = family.param
        pole = 2.0 * nu / (np.exp(np.minimum(nu * ts, 700.0)) + 1.0)
        rates = (0.5, 0.5, 0.25 * (pole - 1.0))
    elif family.kind == "gad":
        a = family.param
        osc = (2.0 * np.sin(a * ts) + a * np.cos(a * ts)) / math.sqrt(4.0 + a * a)
        rates = (1.0 + osc, 1.0 - osc, 0.0)
    elif family.kind == "nonunital-eternal":
        mu, tc = family.param, np.minimum(ts, 350.0)
        gz = (mu * mu - 1.0) * np.sinh(tc) / (4.0 * (1.0 + mu * mu + (1.0 - mu * mu) * np.cosh(tc)))
        rates = (0.5 * (1.0 + mu), 0.5 * (1.0 - mu), gz)
    else:
        rates = _custom_rates(family, ts)
    rates = [np.broadcast_to(np.asarray(r, dtype=float), ts.shape) for r in rates]
    if ts.ndim == 0:
        return DecoherenceRates(*(float(r) for r in rates))
    return DecoherenceRates(*rates)


def _custom_rates(family: ChannelFamily, ts: np.ndarray, h: float = 1e-6):
    f0 = np.array(family_triples(family, ts))
    lam, lam_z, lam_star = f0
    # dividing by a small exponential is fine; only genuine zeros are singular
    singular = (np.abs(lam) < 1e-250) | (np.abs(lam_z) < 1e-250)
    if np.any(singular):
        t_bad = float(ts.flat[np.argmax(singular)])
        raise SingularityError(f"rates are singular where lam or lam_z vanishes (t = {t_bad:g})")
    central = ts >= h
    f1, fm, f2 = (
        np.array(family_triples(family, s)) for s in (ts + h, np.where(central, ts - h, ts), ts + 2.0 * h)
    )
    # one-sided second-order stencil near the left boundary
    dlam, dlam_z, dlam_star = np.where(
        central, (f1 - fm) / (2.0 * h), (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
    )
    ratio_z = dlam_z / lam_z
    g_plus = 0.5 * (dlam_star - ratio_z * (lam_star + 1.0))
    g_minus = -0.5 * (dlam_star + ratio_z * (1.0 - lam_star))
    g_z = 0.25 * (ratio_z - 2.0 * dlam / lam)
    return g_plus, g_minus, g_z
