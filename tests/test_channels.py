import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flipswitch import channels as ch
from flipswitch import matcore
from flipswitch.errors import (
    ConfigurationError,
    CptpViolationError,
    SingularityError,
)
from helpers import random_density, random_valid_triple

RNG = np.random.default_rng(20240812)

NAMED = (
    ch.depolarizing(3.0),
    ch.eternal_unital(2.0),
    ch.gad_switchable(1.0),
    ch.nonunital_eternal(0.6),
)


def test_params_at_dcp_half_life():
    p = ch.params_at(ch.depolarizing(1.0), math.log(2.0))
    assert abs(p.lam - 0.5) <= 1e-14
    assert abs(p.lam_z - 0.5) <= 1e-14
    assert p.lam_star == 0.0


def test_params_at_identity_at_zero():
    for family in NAMED:
        p = ch.params_at(family, 0.0)
        assert abs(p.lam - 1.0) <= 1e-14
        assert abs(p.lam_z - 1.0) <= 1e-14
        assert abs(p.lam_star) <= 1e-14


def test_params_at_nonunital_long_time_limit():
    mu = 0.6
    p = ch.params_at(ch.nonunital_eternal(mu), 60.0)
    assert abs(p.lam - 0.5 * math.sqrt(1.0 - mu * mu)) <= 1e-12
    assert abs(p.lam_z) <= 1e-12
    assert abs(p.lam_star - mu) <= 1e-12


def test_params_at_rejects_negative_time():
    with pytest.raises(ConfigurationError):
        ch.params_at(ch.depolarizing(1.0), -0.1)


def test_family_validation():
    with pytest.raises(ConfigurationError):
        ch.gad_switchable(0.0)
    with pytest.raises(ConfigurationError):
        ch.nonunital_eternal(1.2)
    with pytest.raises(ConfigurationError):
        ch.ChannelFamily("bogus", 1.0)
    with pytest.raises(ConfigurationError):
        ch.ChannelFamily("custom")
    with pytest.raises(ConfigurationError):
        ch.family_from_id("custom", 1.0)


def test_cptp_check_identity_boundary():
    assert ch.cptp_check(ch.PhaseCovParams(1.0, 1.0, 0.0)).valid


def test_cptp_check_detects_second_inequality():
    p = ch.params_at(ch.depolarizing(0.4), 0.1)
    lhs = 4.0 * math.exp(-0.08)
    rhs = (1.0 + math.exp(-0.1)) ** 2
    assert lhs > rhs  # 3.6925 > 3.6284
    verdict = ch.cptp_check(p)
    assert not verdict
    assert "lam_star" in verdict.reason or "lam" in verdict.reason


def test_cptp_check_detects_first_inequality():
    verdict = ch.cptp_check(ch.PhaseCovParams(0.5, 0.5, 0.6))
    assert not verdict
    assert "> 1" in verdict.reason


_PAULIS = (
    np.eye(2),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _choi_min_eigenvalue(lam, lam_z, lam_star):
    """Smallest eigenvalue of sum_ij |i><j| (x) E(|i><j|), with E defined by
    the affine Bloch action E(I) = I + lam_star Z, E(X) = lam X, E(Y) = lam Y,
    E(Z) = lam_z Z."""
    identity, x, y, z = _PAULIS

    def channel(m):
        c0, cx, cy, cz = (np.trace(pauli @ m) / 2.0 for pauli in _PAULIS)
        return c0 * (identity + lam_star * z) + lam * (cx * x + cy * y) + lam_z * cz * z

    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            choi += np.kron(unit, channel(unit))
    return float(np.linalg.eigvalsh(choi)[0])


_COORD = st.floats(-1.25, 1.25, allow_nan=False)


@settings(max_examples=400, deadline=None)
@given(_COORD, _COORD, _COORD)
def test_cptp_predicate_matches_choi_spectrum(lam, lam_z, lam_star):
    smallest = _choi_min_eigenvalue(lam, lam_z, lam_star)
    # The 1e-12 slack sits on forms linear in the Choi eigenvalues, so it
    # admits none below about -1e-12; stay further than that from the boundary.
    assume(abs(smallest) > 1e-9)
    first, second, _ = ch.cptp_inequalities(lam, lam_z, lam_star)
    assert bool(first & second) == (smallest > 0.0)
    assert bool(ch.cptp_check(ch.PhaseCovParams(lam, lam_z, lam_star))) == (smallest > 0.0)


def test_cptp_predicate_on_arrays_and_nan():
    triples = RNG.uniform(-1.25, 1.25, size=(2000, 3))
    smallest = np.array([_choi_min_eigenvalue(*row) for row in triples])
    keep = np.abs(smallest) > 1e-9
    first, second, _ = ch.cptp_inequalities(*triples.T)
    assert np.array_equal((first & second)[keep], smallest[keep] > 0.0)
    nan = float("nan")
    for triple in ((nan, 0.5, 0.0), (0.1, nan, 0.0), (0.1, 0.5, nan)):
        first, second, _ = ch.cptp_inequalities(*triple)
        assert not (first and second)
        assert not ch.cptp_check(ch.PhaseCovParams(*triple))


def test_cptp_slack_admits_no_eigenvalue_beyond_it():
    # Choi eigenvalue -4e-7 at the cone tip lam_z = -1: a slack on the squared
    # second inequality (4 lam^2 = 6.4e-13 <= 0 + 1e-12) used to admit it.
    assert _choi_min_eigenvalue(4e-7, -1.0, 0.0) < -3.9e-7
    verdict = ch.cptp_check(ch.PhaseCovParams(4e-7, -1.0, 0.0))
    assert not verdict
    assert "1 + lam_z" in verdict.reason
    with pytest.raises(CptpViolationError):
        ch.kraus_from_params(ch.PhaseCovParams(4e-7, -1.0, 0.0))
    assert ch.cptp_check(ch.PhaseCovParams(0.0, -1.0, 0.0))


def test_apply_direct_identity_and_fixed_point():
    rho = random_density(RNG, 2)
    out = ch.apply_direct(ch.PhaseCovParams(1.0, 1.0, 0.0), rho)
    assert np.max(np.abs(out - rho)) <= 1e-14
    out = ch.apply_direct(ch.PhaseCovParams(0.7, 0.4, 0.0), matcore.ID2 / 2)
    assert np.max(np.abs(out - matcore.ID2 / 2)) <= 1e-14


def test_apply_direct_bloch_action():
    out = ch.apply_direct(
        ch.PhaseCovParams(0.5, 0.25, 0.1), matcore.density(matcore.KET_PLUS)
    )
    assert np.max(np.abs(ch.bloch_from_density(out) - np.array([0.5, 0.0, 0.1]))) <= 1e-12


def test_apply_direct_rejects_invalid_params():
    with pytest.raises(CptpViolationError):
        ch.apply_direct(ch.PhaseCovParams(0.9, 0.5, 0.6), matcore.ID2 / 2)


def test_kraus_identity_channel():
    k = ch.kraus_from_params(ch.PhaseCovParams(1.0, 1.0, 0.0))
    assert np.max(np.abs(k.operators[2] - matcore.ID2)) <= 1e-12
    for i in (0, 1, 3):
        assert np.max(np.abs(k.operators[i])) <= 1e-12


def test_kraus_unital_has_balanced_diagonal():
    # vanishing axial shift puts the diagonal pair at equal weights
    k = ch.kraus_from_params(ch.PhaseCovParams(0.3, 0.5, 0.0))
    m3 = k.operators[2]
    assert abs(m3[0, 0] - m3[1, 1]) <= 1e-12


def test_kraus_completeness_random():
    for _ in range(300):
        p = random_valid_triple(RNG)
        k = ch.kraus_from_params(p)
        acc = sum(op.conj().T @ op for op in k.operators)
        assert np.max(np.abs(acc - matcore.ID2)) <= 1e-11


def test_kraus_matches_direct_action():
    for _ in range(200):
        p = random_valid_triple(RNG)
        k = ch.kraus_from_params(p)
        rho = random_density(RNG, 2)
        assert np.max(np.abs(ch.channel_apply(k, rho) - ch.apply_direct(p, rho))) <= 1e-11


def test_phase_covariance():
    for _ in range(200):
        p = random_valid_triple(RNG)
        rho = random_density(RNG, 2)
        phi = RNG.uniform(0.0, 2.0 * np.pi)
        u = np.diag([np.exp(-1j * phi), np.exp(1j * phi)])
        left = ch.apply_direct(p, u @ rho @ u.conj().T)
        right = u @ ch.apply_direct(p, rho) @ u.conj().T
        assert np.max(np.abs(left - right)) <= 1e-11


def test_pauli_eigen_relations():
    for _ in range(100):
        p = random_valid_triple(RNG)
        k = ch.kraus_from_params(p)
        assert np.max(np.abs(ch.channel_apply(k, matcore.PAULI_X) - p.lam * matcore.PAULI_X)) <= 1e-11
        assert np.max(np.abs(ch.channel_apply(k, matcore.PAULI_Y) - p.lam * matcore.PAULI_Y)) <= 1e-11
        assert np.max(np.abs(ch.channel_apply(k, matcore.PAULI_Z) - p.lam_z * matcore.PAULI_Z)) <= 1e-11


def test_named_families_cptp_on_grid():
    ts = np.linspace(0.0, 20.0, 2001)

    def all_valid(family):
        lam, lam_z, lam_star = ch.family_triples(family, ts)
        first = np.abs(lam_z) + np.abs(lam_star) <= 1.0 + 1e-12
        second = 4.0 * lam**2 + lam_star**2 <= (1.0 + lam_z) ** 2 + 1e-12
        return bool(np.all(first & second))

    valid = [
        ch.depolarizing(0.5), ch.depolarizing(0.75), ch.depolarizing(3.0),
        ch.eternal_unital(1.0), ch.eternal_unital(2.0), ch.eternal_unital(9.0),
        ch.gad_switchable(1.0), ch.gad_switchable(8.0),
        ch.nonunital_eternal(0.0), ch.nonunital_eternal(0.8), ch.nonunital_eternal(0.99),
    ]
    for family in valid:
        assert all_valid(family), family.label
        # spot-check the scalar verdict agrees with the vectorized screen
        for t in ts[::400]:
            assert ch.cptp_check(ch.params_at(family, float(t))).valid, family.label
    for family in (ch.depolarizing(0.49), ch.eternal_unital(0.9)):
        assert not all_valid(family), family.label


def test_rates_printed_forms():
    for omega in (0.5, 1.0, 3.0):
        r = ch.lindblad_rates(ch.depolarizing(omega), 0.7)
        assert r.gamma_plus == 0.5 and r.gamma_minus == 0.5
        assert abs(r.gamma_z - (2.0 * omega - 1.0) / 4.0) <= 1e-15
    for t in (0.3, 1.0, 5.0):
        r = ch.lindblad_rates(ch.eternal_unital(1.0), t)
        assert abs(r.gamma_z - (-0.25 * math.tanh(t / 2.0))) <= 1e-14
    alpha = 2.0
    for t in (0.0, 0.9, 4.2):
        r = ch.lindblad_rates(ch.gad_switchable(alpha), t)
        osc = (2.0 * math.sin(alpha * t) + alpha * math.cos(alpha * t)) / math.sqrt(4.0 + alpha**2)
        assert abs(r.gamma_plus - (1.0 + osc)) <= 1e-14
        assert abs(r.gamma_minus - (1.0 - osc)) <= 1e-14
        assert r.gamma_z == 0.0
    mu = 0.4
    for t in (0.5, 2.0):
        r = ch.lindblad_rates(ch.nonunital_eternal(mu), t)
        assert abs(r.gamma_plus - 0.5 * (1 + mu)) <= 1e-15
        assert abs(r.gamma_minus - 0.5 * (1 - mu)) <= 1e-15
        expected = (mu**2 - 1.0) * math.sinh(t) / (4.0 * (1.0 + mu**2 + (1.0 - mu**2) * math.cosh(t)))
        assert abs(r.gamma_z - expected) <= 1e-15
    r = ch.lindblad_rates(ch.nonunital_eternal(0.0), 1.0)
    assert abs(r.gamma_z - (-0.25 * math.tanh(0.5))) <= 1e-14


def test_rates_finite_difference_consistency():
    clones = {
        "dcp": (ch.depolarizing(2.5), ch.custom_family(
            lambda t: np.exp(-2.5 * t), lambda t: np.exp(-t), lambda t: 0.0 * t)),
        "eternal": (ch.eternal_unital(3.0), ch.custom_family(
            lambda t: (1 + np.exp(-3.0 * t)) / 2, lambda t: np.exp(-t), lambda t: 0.0 * t)),
        "gad": (ch.gad_switchable(1.5), ch.custom_family(
            lambda t: np.exp(-t), lambda t: np.exp(-2 * t),
            lambda t: 2 * np.sin(1.5 * t) / np.sqrt(4 + 1.5**2))),
        "nonunital-eternal": (ch.nonunital_eternal(0.7), ch.custom_family(
            lambda t: 0.5 * np.sqrt((1 + np.exp(-t)) ** 2 - 0.49 * (1 - np.exp(-t)) ** 2),
            lambda t: np.exp(-t), lambda t: 0.7 * (1 - np.exp(-t)))),
    }
    for name, (named, clone) in clones.items():
        for t in np.linspace(0.05, 20.0, 25):
            exact = ch.lindblad_rates(named, float(t))
            approx = ch.lindblad_rates(clone, float(t))
            assert abs(exact.gamma_plus - approx.gamma_plus) <= 1e-5, name
            assert abs(exact.gamma_minus - approx.gamma_minus) <= 1e-5, name
            assert abs(exact.gamma_z - approx.gamma_z) <= 1e-5, name


def test_rate_sign_structure():
    ts = np.linspace(0.01, 20.0, 400)
    for mu in (0.0, 0.5, 0.9):
        for t in ts:
            assert ch.lindblad_rates(ch.nonunital_eternal(mu), float(t)).gamma_z < 0.0
    for alpha in (0.5, 1.0, 4.0):
        for t in ts:
            r = ch.lindblad_rates(ch.gad_switchable(alpha), float(t))
            assert r.gamma_plus >= -1e-12 and r.gamma_minus >= -1e-12


def test_rates_custom_singularity():
    fam = ch.custom_family(lambda t: 0.0 * t, lambda t: np.exp(-t), lambda t: 0.0 * t)
    with pytest.raises(SingularityError):
        ch.lindblad_rates(fam, 1.0)


def test_invariant_state():
    assert np.max(np.abs(ch.invariant_state(ch.PhaseCovParams(0.4, 0.3, 0.0)) - matcore.ID2 / 2)) <= 1e-14
    mu = 0.8
    p = ch.params_at(ch.nonunital_eternal(mu), 40.0)
    expected = 0.5 * (matcore.ID2 + mu * matcore.PAULI_Z)
    assert np.max(np.abs(ch.invariant_state(p) - expected)) <= 1e-11
    with pytest.raises(SingularityError):
        ch.invariant_state(ch.PhaseCovParams(0.5, 1.0, 0.0))
    for _ in range(50):
        p = random_valid_triple(RNG)
        if abs(1.0 - p.lam_z) < 1e-6:
            continue
        state = ch.invariant_state(p)
        assert np.max(np.abs(ch.apply_direct(p, state) - state)) <= 1e-11


def test_transpose_channel():
    ident = ch.KrausSet((matcore.ID2.copy(),), "id")
    assert np.array_equal(ch.transpose_channel(ident).operators[0], matcore.ID2)
    k = ch.kraus_from_params(ch.PhaseCovParams(0.5, 0.25, 0.1))
    kt = ch.transpose_channel(k)
    # the raising operator becomes a lowering one, keeping its weight
    assert abs(k.operators[0][0, 1] - kt.operators[0][1, 0]) <= 1e-14
    assert kt.operators[0][0, 1] == 0.0
    for _ in range(50):
        p = random_valid_triple(RNG, unital=True)
        k = ch.kraus_from_params(p)
        kt = ch.transpose_channel(k)
        for pauli in (matcore.PAULI_X, matcore.PAULI_Y, matcore.PAULI_Z, matcore.ID2):
            assert np.max(np.abs(ch.channel_apply(k, pauli) - ch.channel_apply(kt, pauli))) <= 1e-11


def test_is_unital():
    assert ch.is_unital(ch.kraus_from_params(ch.PhaseCovParams(0.4, 0.6, 0.0)))
    gad = ch.kraus_from_params(ch.params_at(ch.gad_switchable(1.0), 1.0))
    assert not ch.is_unital(gad)
    assert ch.is_unital(ch.KrausSet((matcore.ID2.copy(),), "id"))


def test_bloch_image():
    p = ch.PhaseCovParams(0.5, 0.25, 0.1)
    assert np.allclose(ch.bloch_image(p, (1.0, 0.0, 0.0)), [0.5, 0.0, 0.1], atol=1e-14)
    assert np.allclose(ch.bloch_image(p, (0.0, 0.0, 1.0)), [0.0, 0.0, 0.35], atol=1e-14)
    ident = ch.PhaseCovParams(1.0, 1.0, 0.0)
    v = np.array([0.3, -0.2, 0.4])
    assert np.allclose(ch.bloch_image(ident, v), v, atol=1e-14)
    with pytest.raises(ConfigurationError):
        ch.bloch_image(p, (1.0, 1.0, 1.0))
