"""Tensor-train linear algebra with a backward-error driven GMRES solver."""

from .tt import (
    TTVector,
    TTOperator,
    StorageStats,
    TTError,
    RankChainError,
    ModeMismatchError,
    DenseBudgetError,
    make_tt_vector,
    make_tt_operator,
    tt_zero,
    tt_ones,
    tt_rank_one,
    tt_from_dense,
    tt_to_dense,
    tt_op_to_dense,
    tt_op_from_factors,
    tt_identity_operator,
    tt_add,
    tt_scale,
    tt_inner,
    tt_norm,
    tt_round,
    tt_apply,
    tt_op_compose,
    tt_random,
    tt_slice_first_mode,
    tt_op_diag_slice,
    storage_stats,
)

__version__ = "0.1.0"
