"""Haplotype assembly toolkit: channel simulation, erasure decoding,
spectral partitioning, and the matching closed-form analysis."""

from .channel import (
    ChannelConfig,
    prob_disconnected_split,
    prob_uncovered_column,
    transmit,
)
from .erasure import decode as erasure_decode
from .model import (
    Haplotype,
    MembershipVector,
    ReadMatrix,
    RecoveryResult,
    hamming_up_to_flip,
)
from .planted import (
    PlantedParams,
    PlantedSpectrum,
    alpha_beta_bounds,
    alpha_exact,
    beta_exact,
    binary_entropy,
    fano_min_reads,
    spectrum,
)
from .spectral import (
    NonConvergedError,
    SpectralConfig,
    VoteMatrix,
    build_adjacency,
    infer_memberships,
    partition,
    top_two_eigenpairs,
)
from .spectral import decode as spectral_decode

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "Haplotype",
    "MembershipVector",
    "ReadMatrix",
    "RecoveryResult",
    "PlantedParams",
    "PlantedSpectrum",
    "SpectralConfig",
    "VoteMatrix",
    "NonConvergedError",
    "hamming_up_to_flip",
    "transmit",
    "prob_uncovered_column",
    "prob_disconnected_split",
    "erasure_decode",
    "build_adjacency",
    "top_two_eigenpairs",
    "partition",
    "spectral_decode",
    "infer_memberships",
    "spectrum",
    "alpha_exact",
    "beta_exact",
    "alpha_beta_bounds",
    "binary_entropy",
    "fano_min_reads",
    "__version__",
]
