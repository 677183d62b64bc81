import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flipswitch import channels as ch
from flipswitch import matcore
from flipswitch import measures as ms
from flipswitch import supermaps as sm
from flipswitch.errors import (
    BidirectionalityError,
    ConfigurationError,
    CptpViolationError,
    NumericContractError,
    PostSelectionError,
)
from helpers import random_density, random_valid_triple

RNG = np.random.default_rng(20240814)


def test_trace_distance_examples():
    one = ms.trace_distance(
        matcore.density(matcore.KET_ZERO), matcore.density(matcore.KET_ONE)
    )
    assert abs(one - 1.0) <= 1e-14
    rho = random_density(RNG, 2)
    assert ms.trace_distance(rho, rho) <= 1e-14
    half = ms.trace_distance(matcore.ID2 / 2, matcore.density(matcore.KET_ZERO))
    assert abs(half - 0.5) <= 1e-14
    with pytest.raises(ConfigurationError):
        ms.trace_distance(matcore.ID2 / 2, np.eye(4, dtype=complex) / 4)


def test_trace_distance_is_a_metric():
    for _ in range(100):
        a, b, c = (random_density(RNG, 2) for _ in range(3))
        dab = ms.trace_distance(a, b)
        assert abs(dab - ms.trace_distance(b, a)) <= 1e-14
        assert dab <= ms.trace_distance(a, c) + ms.trace_distance(c, b) + 1e-10
        assert -1e-14 <= dab <= 1.0 + 1e-12


def test_trace_distance_contracts_under_channels():
    for _ in range(100):
        p = random_valid_triple(RNG)
        a, b = random_density(RNG, 2), random_density(RNG, 2)
        before = ms.trace_distance(a, b)
        after = ms.trace_distance(ch.apply_direct(p, a), ch.apply_direct(p, b))
        assert after <= before + 1e-10


def test_concurrence_reference_states():
    assert abs(ms.concurrence(matcore.density(matcore.BELL_KET)) - 1.0) <= 1e-12
    product = matcore.tensor(
        matcore.density(matcore.KET_ZERO), matcore.density(matcore.KET_ONE)
    )
    assert ms.concurrence(product) <= 1e-12
    with pytest.raises(ConfigurationError):
        ms.concurrence(matcore.ID2 / 2)
    with pytest.raises(NumericContractError):
        ms.concurrence(np.eye(4, dtype=complex))


def test_concurrence_flip_dcp_reference_value():
    family = ch.depolarizing(3.0)
    flip = sm.extend_with_ancilla(
        sm.time_flip_kraus(ch.kraus_from_params(ch.params_at(family, 0.5)))
    )
    step = sm.apply_postselect(flip, matcore.density(matcore.BELL_KET))
    t = 0.5
    closed_form = (4.0 * math.exp(t * (1 - 3.0)) - math.exp(t) + 1.0) / (3.0 * math.exp(t) + 1.0)
    value = ms.concurrence(step.state)
    assert abs(value - closed_form) <= 1e-11
    assert abs(value - 0.1383743401605012) <= 1e-11


def test_entanglement_of_formation():
    assert ms.entanglement_of_formation(0.0) == 0.0
    assert abs(ms.entanglement_of_formation(1.0) - 1.0) <= 1e-14
    x = 0.9  # 1/2 + sqrt(1 - 0.36)/2
    expected = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    assert abs(ms.entanglement_of_formation(0.6) - expected) <= 1e-14
    assert abs(expected - 0.4689955935892812) <= 1e-13
    with pytest.raises(NumericContractError):
        ms.entanglement_of_formation(1.1)
    with pytest.raises(NumericContractError):
        ms.entanglement_of_formation(-0.2)


def test_entanglement_of_formation_strictly_increasing():
    cs = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    es = np.array([ms.entanglement_of_formation(float(c)) for c in cs])
    assert np.all(np.diff(es) > 0.0)
    # the array form is the scalar form elementwise
    assert np.array_equal(ms.entanglement_of_formation(cs), es)
    assert isinstance(ms.entanglement_of_formation(0.6), float)
    with pytest.raises(NumericContractError):
        ms.entanglement_of_formation(np.array([0.5, 1.1]))


def test_backflow_examples():
    grid = ms.TimeGrid(3.0, 3)
    down = ms.backflow_accumulate(ms.Trajectory(grid, np.array([1.0, 0.9, 0.5, 0.2])))
    assert down.measure_value == 0.0
    assert down.revival_intervals == ()
    bump = ms.backflow_accumulate(ms.Trajectory(grid, np.array([1.0, 0.5, 0.8, 0.2])))
    assert abs(bump.measure_value - 0.3) <= 1e-15
    assert bump.revival_intervals == ((1.0, 2.0),)


def test_backflow_tail_interval():
    grid = ms.TimeGrid(2.0, 2)
    tail = ms.backflow_accumulate(ms.Trajectory(grid, np.array([1.0, 0.2, 0.5])))
    assert tail.revival_intervals == ((1.0, 2.0),)
    assert abs(tail.measure_value - 0.3) <= 1e-15


def _runs_by_loop(increments):
    """Maximal runs of increments above 1e-12 as (start, end) index pairs."""
    runs, start = [], None
    for k, value in enumerate(increments):
        if value > 1e-12 and start is None:
            start = k
        elif value <= 1e-12 and start is not None:
            runs.append((start, k))
            start = None
    if start is not None:
        runs.append((start, len(increments)))
    return runs


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((-0.3, 0.0, 1e-12, 2e-12, 0.7)), max_size=40))
@example([])
@example([0.7] * 6)
@example([0.7, 0.0, 0.7])
@example([-0.3, 0.7, 0.7])
@example([0.7, 0.7, -0.3])
def test_revival_runs_match_loop(increments):
    starts, ends = ms.revival_runs(np.array(increments, dtype=float))
    assert list(zip(starts.tolist(), ends.tolist())) == _runs_by_loop(increments)


def test_td_witness():
    assert not ms.td_witness(ch.DecoherenceRates(0.5, 0.5, (2 * 3.0 - 1) / 4))
    assert not ms.td_witness(ch.DecoherenceRates(0.5, 0.5, 0.0))
    assert ms.td_witness(ch.DecoherenceRates(0.5, 0.5, -0.3))
    assert ms.td_witness(ch.DecoherenceRates(-0.6, 0.1, 0.2))
    for mu in (0.0, 0.5, 0.9):
        for t in (0.1, 1.0, 10.0):
            assert not ms.td_witness(ch.lindblad_rates(ch.nonunital_eternal(mu), t))


def test_time_grid_and_trajectory_validation():
    with pytest.raises(ConfigurationError):
        ms.TimeGrid(0.0, 10)
    with pytest.raises(ConfigurationError):
        ms.TimeGrid(1.0, 0)
    grid = ms.TimeGrid(1.0, 4)
    assert np.allclose(grid.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ConfigurationError):
        ms.Trajectory(grid, np.zeros(3))
    with pytest.raises(NumericContractError):
        ms.Trajectory(grid, np.array([0.0, 1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ConfigurationError):
        ms.named_pair("left-right")


def test_engine_matches_per_time_operations_nd():
    grid = ms.TimeGrid(4.0, 32)
    pair = ms.named_pair("plus-minus")
    ctrl = sm.ControlSpec()
    for family, mode in (
        (ch.depolarizing(2.2), "flip"),
        (ch.eternal_unital(3.0), "flip"),
        (ch.gad_switchable(1.7), "switch"),
        (ch.nonunital_eternal(0.5), "switch"),
        (ch.gad_switchable(0.9), "none"),
    ):
        distance = ms.pair_evolution(family, mode, pair, grid, ctrl).distance
        for idx in (0, 5, 17, 32):
            t = float(grid.points[idx])
            k = ch.kraus_from_params(ch.params_at(family, t))
            if mode == "none":
                s1 = ch.channel_apply(k, pair.rho1)
                s2 = ch.channel_apply(k, pair.rho2)
            else:
                if mode == "flip":
                    smap = sm.time_flip_kraus(k)
                else:
                    smap = sm.switch_kraus(k, k)
                s1 = sm.apply_postselect(smap, pair.rho1, ctrl).state
                s2 = sm.apply_postselect(smap, pair.rho2, ctrl).state
            assert abs(distance[idx] - ms.trace_distance(s1, s2)) <= 1e-12


def test_engine_matches_per_time_operations_ne():
    grid = ms.TimeGrid(3.0, 24)
    ctrl = sm.ControlSpec()
    bell = matcore.density(matcore.BELL_KET)
    for family, mode in (
        (ch.depolarizing(3.0), "flip"),
        (ch.nonunital_eternal(0.4), "switch"),
        (ch.eternal_unital(2.0), "none"),
    ):
        conc, eof, probs = ms.entanglement_signals(family, mode, grid, ctrl)
        for idx in (0, 7, 24):
            t = float(grid.points[idx])
            k = ch.kraus_from_params(ch.params_at(family, t))
            if mode == "none":
                big = ch.KrausSet(
                    tuple(matcore.tensor(op, matcore.ID2) for op in k.operators), "ext"
                )
                state = ch.channel_apply(big, bell)
            else:
                if mode == "flip":
                    smap = sm.time_flip_kraus(k)
                else:
                    smap = sm.switch_kraus(k, k)
                step = sm.apply_postselect(sm.extend_with_ancilla(smap), bell, ctrl)
                state = step.state
                assert abs(probs[idx] - step.success_prob) <= 1e-12
            c_ref = ms.concurrence(state)
            assert abs(conc[idx] - c_ref) <= 1e-10
            assert abs(eof[idx] - ms.entanglement_of_formation(c_ref)) <= 1e-10


_UNIT = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _scenarios(draw):
    """A valid constant triple, a supermap mode, a complex control and a pure pair."""
    mode = draw(st.sampled_from(ms.SUPERMAP_MODES))
    lam_z = 0.95 * draw(_UNIT)
    lam_star = 0.0 if mode == "flip" else 0.97 * draw(_UNIT) * (1.0 - abs(lam_z))
    lam = 0.97 * draw(_UNIT) * 0.5 * math.sqrt((1.0 + lam_z) ** 2 - lam_star**2)
    amplitudes = np.array(draw(st.lists(_UNIT, min_size=4, max_size=4)))
    assume(np.linalg.norm(amplitudes) > 0.1)
    ket = amplitudes[:2] + 1j * amplitudes[2:]
    ctrl = sm.ControlSpec(ket / np.linalg.norm(ket), draw(st.sampled_from(("plus", "minus"))))
    direction = np.array(draw(st.lists(_UNIT, min_size=3, max_size=3)))
    assume(np.linalg.norm(direction) > 0.1)
    return ch.PhaseCovParams(lam, lam_z, lam_star), mode, ctrl, direction / np.linalg.norm(direction)


def _reference_steps(p, mode, ctrl, rhos):
    """Per-time reference outputs (state, probability or None) of each input state."""
    k = ch.kraus_from_params(p)
    if mode == "none":
        with_ancilla = ch.KrausSet(tuple(matcore.tensor(op, matcore.ID2) for op in k.operators))
        return [(ch.channel_apply(k if len(rho) == 2 else with_ancilla, rho), None) for rho in rhos]
    smap = sm.time_flip_kraus(k) if mode == "flip" else sm.switch_kraus(k, k)
    steps = [
        sm.apply_postselect(smap if len(rho) == 2 else sm.extend_with_ancilla(smap), rho, ctrl)
        for rho in rhos
    ]
    return [(step.state, step.success_prob) for step in steps]


_PAULIS = (matcore.ID2, matcore.PAULI_X, matcore.PAULI_Y, matcore.PAULI_Z)
# _CHOI_BASIS[a, b] = sigma_a (x) sigma_b^T / 4: the evolved maximally entangled
# state is sum_ab T_ab _CHOI_BASIS[a, b], divided by T_00 when post-selected
_CHOI_BASIS = np.array([[np.kron(sa, sb.T) / 4.0 for sb in _PAULIS] for sa in _PAULIS])


@settings(max_examples=100, deadline=None)
@given(_scenarios())
def test_engine_matches_reference_on_random_scenarios(scenario):
    p, mode, ctrl, direction = scenario
    pair = ms.antipodal_pair(direction)
    bell = matcore.density(matcore.BELL_KET)
    try:
        reference = _reference_steps(p, mode, ctrl, (pair.rho1, pair.rho2, bell))
    except PostSelectionError:
        reference = None
    # near a vanishing branch the normalized states lose digits in both paths
    assume(reference is not None and all(prob is None or prob > 1e-4 for _, prob in reference))
    (s1, p1), (s2, p2), (bell_ref, bell_prob) = reference
    family = ch.custom_family(lambda t: p.lam, lambda t: p.lam_z, lambda t: p.lam_star)
    grid = ms.TimeGrid(1.0, 2)
    ev = ms.pair_evolution(family, mode, pair, grid, ctrl)
    transfer, _ = ms.transfer_matrices(family, mode, grid.points, ctrl)
    states = np.einsum("tab,abij->tij", transfer, _CHOI_BASIS) / transfer[:, :1, :1]
    conc, _, probs = ms.entanglement_signals(family, mode, grid, ctrl)
    assert np.max(np.abs(ev.distance - ms.trace_distance(s1, s2))) <= 1e-10
    assert np.max(np.abs(states - bell_ref)) <= 1e-10
    assert np.max(np.abs(conc - ms.concurrence(bell_ref))) <= 1e-10
    assert np.all((0.0 <= conc) & (conc <= 1.0))
    if mode == "none":
        assert ev.probs_1 is None and ev.probs_2 is None and probs is None
        return
    for engine, expected in ((ev.probs_1, p1), (ev.probs_2, p2), (probs, bell_prob)):
        assert np.max(np.abs(engine - expected)) <= 1e-10
        assert np.all((0.0 < engine) & (engine <= 1.0 + 1e-12))  # round-off, as PostSelectedStep


def test_x_state_concurrence_matches_reference():
    # The engine's maps have T_xy = T_yx = 0, so random X states, the parity
    # blocks (rho + ZZ rho ZZ) / 2 of random pure states, also check the
    # signs of those entries in the closed form.
    zz = np.kron(matcore.PAULI_Z, matcore.PAULI_Z)
    states = []
    for _ in range(200):
        ket = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        rho = matcore.density(ket / np.linalg.norm(ket))
        states.append((rho + zz @ rho @ zz) / 2.0)
    transfer = np.einsum("sij,abji->sab", np.array(states), _CHOI_BASIS).real * 4.0
    assert np.max(np.abs(np.einsum("sab,abij->sij", transfer, _CHOI_BASIS) - states)) <= 1e-14
    conc = ms._concurrence_series(transfer)
    expected = np.array([ms.concurrence(rho) for rho in states])
    assert np.max(np.abs(conc - expected)) <= 1e-10
    assert np.min(expected) < 0.05 and np.max(expected) > 0.9


def test_engine_rejects_invalid_family_on_grid():
    with pytest.raises(CptpViolationError):
        ms.pair_evolution(
            ch.depolarizing(0.4), "none", ms.named_pair("plus-minus"), ms.TimeGrid(1.0, 100)
        )


def test_engine_rejects_flip_of_nonunital():
    with pytest.raises(BidirectionalityError):
        ms.pair_evolution(
            ch.gad_switchable(1.0), "flip", ms.named_pair("plus-minus"), ms.TimeGrid(1.0, 10)
        )


def test_nd_flip_dcp_thresholds():
    grid = ms.TimeGrid(20.0, 4000)
    pair = ms.named_pair("plus-minus")
    for omega in (0.5, 0.75, 1.0):
        r = ms.nd_for_scenario(ch.depolarizing(omega), "flip", pair, grid)
        assert r.measure_value <= 1e-9
    r = ms.nd_for_scenario(ch.depolarizing(3.0), "flip", pair, grid)
    assert r.measure_value > 1e-3
    assert len(r.revival_intervals) >= 1


def test_nd_flip_eternal_is_constant_at_unit_distance():
    grid = ms.TimeGrid(20.0, 2000)
    result = ms.nd_for_scenario(
        ch.eternal_unital(1.0), "flip", ms.named_pair("plus-minus"), grid
    )
    assert np.max(np.abs(result.signal.values - 1.0)) <= 1e-11
    assert result.measure_value <= 1e-12


def test_nd_switch_gad_single_period_gain():
    # window [10 pi, 11 pi] after the transient: one climb from the minimum
    # back to the envelope maximum 1/5, the minimum being 1/29 at alpha = 1
    steps = 2200
    grid = ms.TimeGrid(11.0 * math.pi, steps)
    distance = ms.pair_evolution(
        ch.gad_switchable(1.0), "switch", ms.named_pair("plus-minus"), grid
    ).distance
    window = distance[2000:]
    diffs = np.diff(window)
    gain = diffs[diffs > 0].sum()
    assert abs(gain - (0.2 - 1.0 / 29.0)) <= 1e-4
    assert abs(gain - 0.1655172) <= 1e-4


def test_ne_flip_dcp_vanishes():
    grid = ms.TimeGrid(20.0, 2000)
    for omega in (0.5, 3.0):
        r = ms.ne_for_scenario(ch.depolarizing(omega), "flip", grid)
        assert r.measure_value <= 1e-9


def test_ne_switch_gad_vanishes():
    grid = ms.TimeGrid(20.0, 2000)
    r = ms.ne_for_scenario(ch.gad_switchable(2.0), "switch", grid)
    assert r.measure_value <= 1e-9


def test_raw_eternal_concurrence_value():
    grid = ms.TimeGrid(10.0, 1000)
    conc, _, probs = ms.entanglement_signals(ch.eternal_unital(2.0), "none", grid)
    assert probs is None
    idx = 100  # t = 1.0
    expected = (math.exp(-1.0) + math.exp(-2.0)) / 2.0
    assert abs(conc[idx] - expected) <= 1e-11
    assert abs(conc[idx] - 0.2516073621) <= 1e-9


def test_raw_channels_keep_concurrence_monotone():
    grid = ms.TimeGrid(10.0, 500)
    for family in (ch.depolarizing(3.0), ch.gad_switchable(2.0), ch.gad_switchable(8.0)):
        conc, _, _ = ms.entanglement_signals(family, "none", grid)
        assert np.max(np.diff(conc)) <= 1e-10


def test_backflow_grid_refinement_stability():
    pair = ms.named_pair("plus-minus")
    coarse = ms.nd_for_scenario(ch.depolarizing(3.0), "flip", pair, ms.TimeGrid(20.0, 2000))
    fine = ms.nd_for_scenario(ch.depolarizing(3.0), "flip", pair, ms.TimeGrid(20.0, 4000))
    assert abs(coarse.measure_value - fine.measure_value) < 1e-4
    coarse = ms.nd_for_scenario(
        ch.gad_switchable(1.0), "switch", pair, ms.TimeGrid(20.0, 2000)
    )
    fine = ms.nd_for_scenario(
        ch.gad_switchable(1.0), "switch", pair, ms.TimeGrid(20.0, 4000)
    )
    assert abs(coarse.measure_value - fine.measure_value) < 1e-4


def test_switch_gad_oscillation_extremes_regression():
    # Asymptotic envelope: maxima at 1/5 exactly, minima at a^2/(24 + 5 a^2).
    pair = ms.named_pair("plus-minus")
    for alpha in (1.0, 2.0, 4.0, 8.0):
        k = max(1, round((30.0 * alpha - math.pi / 2.0) / math.pi))
        t_min = (math.pi / 2.0 + k * math.pi) / alpha
        t_max = round(30.0 * alpha / math.pi) * math.pi / alpha
        fam = ch.gad_switchable(alpha)
        ctrl = sm.ControlSpec()

        def distance_at(t):
            smap = sm.switch_kraus(*(ch.kraus_from_params(ch.params_at(fam, t)),) * 2)
            s1 = sm.apply_postselect(smap, pair.rho1, ctrl).state
            s2 = sm.apply_postselect(smap, pair.rho2, ctrl).state
            return ms.trace_distance(s1, s2)

        assert abs(distance_at(t_min) - alpha**2 / (24.0 + 5.0 * alpha**2)) <= 1e-7
        assert abs(distance_at(t_max) - 0.2) <= 1e-7


def test_witness_consistency_with_raw_backflow():
    grid = ms.TimeGrid(20.0, 1000)
    cases = (
        ch.depolarizing(0.5), ch.depolarizing(9.0),
        ch.eternal_unital(1.0), ch.eternal_unital(9.0),
        ch.gad_switchable(1.0), ch.gad_switchable(8.0),
        ch.nonunital_eternal(0.0), ch.nonunital_eternal(0.8),
    )
    for family in cases:
        witness_fires = any(
            ms.td_witness(ch.lindblad_rates(family, float(t))) for t in grid.points
        )
        assert not witness_fires
        for pair_name in ms.PAIR_NAMES:
            r = ms.nd_for_scenario(family, "none", ms.named_pair(pair_name), grid)
            assert r.measure_value <= 1e-9, family.label


def test_pair_search_behaviour():
    grid = ms.TimeGrid(20.0, 1000)
    family = ch.depolarizing(3.0)
    reference = ms.nd_for_scenario(family, "flip", ms.named_pair("plus-minus"), grid)
    pair, best = ms.pair_search(family, "flip", grid, samples=200, seed=11)
    assert best.measure_value >= reference.measure_value - 1e-4
    assert abs(np.trace(pair.rho1 @ pair.rho2)) <= 1e-12  # orthogonal pure pair
    pair2, best2 = ms.pair_search(family, "flip", grid, samples=200, seed=11)
    assert best2.measure_value == best.measure_value
    assert np.array_equal(pair.rho1, pair2.rho1)
    _, null_best = ms.pair_search(ch.depolarizing(1.0), "none", grid, samples=40, seed=3)
    assert null_best.measure_value <= 1e-12
    with pytest.raises(ConfigurationError):
        ms.pair_search(family, "flip", grid, samples=0, seed=1)
