"""Training-free token reduction for bidirectional selective-SSM vision models.

The engine scores token importance from the scan's per-token timescales,
groups tokens into keep/target/source tiers, absorbs sources into their
most similar targets (or prunes them) in place, so survivors keep their
original order, and sizes the whole schedule from a global FLOPs-reduction
target.
"""

from .checkpoint import Checkpoint, load, load_model, save, save_model
from .flops import FlopsModel, ReductionPlan, default_reduction_layers, solve_k
from .importance import ImportanceScores, Indicator
from .model import Diagnostics, ModelConfig, NumericError, VisionModel, identity_plan
from .reduction import (
    GroupPartition,
    MergeMapping,
    Strategy,
    TokenSequence,
    partition,
    reduce_layer,
)
from .ssm import ScanTrace, SsmBlockParams, SsmHeadParams, mamba_block, selective_scan

__version__ = "0.1.0"

__all__ = [
    "Checkpoint",
    "Diagnostics",
    "FlopsModel",
    "GroupPartition",
    "ImportanceScores",
    "Indicator",
    "MergeMapping",
    "ModelConfig",
    "NumericError",
    "ReductionPlan",
    "ScanTrace",
    "SsmBlockParams",
    "SsmHeadParams",
    "Strategy",
    "TokenSequence",
    "VisionModel",
    "default_reduction_layers",
    "identity_plan",
    "load",
    "load_model",
    "mamba_block",
    "partition",
    "reduce_layer",
    "save",
    "save_model",
    "selective_scan",
    "solve_k",
]
