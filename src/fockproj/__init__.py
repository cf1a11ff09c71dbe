"""Exact desk-scale simulator of projection probabilities for partially
distinguishable photons in small linear-optical setups, with monotonicity
analysis of every probability-vs-distinguishability curve."""

import os
import sys

if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    # fockproj calls no BLAS routine, so its first import of numpy starts no OpenBLAS worker
    # thread; the variable is read once, as the library loads, and then taken out again
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .analysis import (
    Extremum,
    ExtremumKind,
    SweepResult,
    Verdict,
    classify_monotonicity,
    closed_form,
    find_extrema,
    probability_function,
    sweep,
)
from .fock import (
    DimensionMismatchError,
    FockState,
    InvalidOccupationError,
    StateEnsemble,
    basis_ket,
    fidelity,
    inner_product,
    tensor,
)
from .models import (
    ScenarioId,
    UnsupportedScenarioError,
    hom_two_pair,
    hom_two_photon,
    indistinguishability,
    scenario_reference,
    scenario_state,
    scenario_unitary,
    single_deliberate,
    single_loss,
    single_phase_noise,
    single_phase_noise_gaussian,
    two_photon_polarization,
)
from .projectors import (
    DetectorModel,
    EventSumProjector,
    ProbabilityRangeError,
    ProjectorAngles,
    classical_intensity,
    event_sum,
    hofmann_cascade,
    loss_marginal_projection,
    proper_projector,
    pure_projection,
    scenario_events,
    single_photon_projector,
    two_photon_xi,
)
from .transforms import ModeUnitary, beamsplitter_5050, identity, lift, polarization_rotation

__version__ = "0.1.0"
