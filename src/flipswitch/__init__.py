"""Qubit phase-covariant channel dynamics under coherent control of time
direction (time flip) and causal order (switch), with information-backflow
memory measures."""

from .channels import (
    ChannelFamily,
    CptpVerdict,
    DecoherenceRates,
    KrausSet,
    PhaseCovParams,
    apply_direct,
    bloch_image,
    cptp_check,
    custom_family,
    depolarizing,
    eternal_unital,
    family_from_id,
    family_triples,
    gad_switchable,
    invariant_state,
    is_unital,
    kraus_from_params,
    lindblad_rates,
    nonunital_eternal,
    params_at,
    transpose_channel,
)
from .errors import (
    BidirectionalityError,
    ConfigurationError,
    CptpViolationError,
    NumericContractError,
    PostSelectionError,
    SimulationError,
    SingularityError,
)
from .measures import (
    MemoryResult,
    StatePair,
    TimeGrid,
    Trajectory,
    backflow_accumulate,
    concurrence,
    entanglement_of_formation,
    named_pair,
    nd_for_scenario,
    ne_for_scenario,
    pair_search,
    td_witness,
    trace_distance,
)
from .supermaps import (
    ControlSpec,
    PostSelectedStep,
    SuperKrausSet,
    apply_postselect,
    control_from_names,
    extend_with_ancilla,
    switch_kraus,
    time_flip_kraus,
)

__version__ = "0.1.0"
