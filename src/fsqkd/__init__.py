"""Finite-key secure key length engine for efficient decoy-state BB84.

Models a polarization-encoded weak-coherent-pulse system with three
intensities and biased basis choice over a lossy free-space channel, and
answers the system-design questions that follow from it: how much key a
given window yields, which protocol settings maximize it, how much loss a
link can tolerate, and how badly pulse-intensity uncertainty hurts.
"""
from .channel import (BlockCounts, ChannelConditions, ParameterError,
                      ProtocolParams, detection_probability,
                      error_probability, expected_block_counts,
                      transmittance_from_loss)
from .finitekey import (KeyLengthResult, SecurityParams, binary_entropy,
                        chernoff_delta, ec_leakage, key_length_for_channel,
                        secure_key_length)
from .optimize import OptimizationResult, OptimizationSpec, Regime, optimize
from .scenarios import (LossBudgetQuery, LossBudgetResult,
                        SiftingEquivalence, SweepRow, SweepSpec, max_loss,
                        sifting_equivalence, skr_vs_time, sweep)
from .uncertainty import (IntensityUncertaintyModel, WorstCaseResult,
                          key_length_for_intensities, worst_case_key_length)

__version__ = "0.1.0"


def using_numba() -> bool:
    """Always False: the kernels run as plain Python and NumPy.

    Kept for callers that record which backend produced their numbers.
    """
    return False


__all__ = [
    "BlockCounts", "ChannelConditions", "IntensityUncertaintyModel",
    "KeyLengthResult", "LossBudgetQuery", "LossBudgetResult",
    "OptimizationResult", "OptimizationSpec", "ParameterError",
    "ProtocolParams", "Regime", "SecurityParams", "SiftingEquivalence",
    "SweepRow", "SweepSpec", "WorstCaseResult", "binary_entropy",
    "chernoff_delta", "detection_probability", "ec_leakage",
    "error_probability", "expected_block_counts", "key_length_for_channel",
    "key_length_for_intensities", "max_loss", "optimize", "secure_key_length",
    "sifting_equivalence", "skr_vs_time", "sweep", "transmittance_from_loss",
    "using_numba", "worst_case_key_length",
]
