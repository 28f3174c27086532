"""Covering-number submeasures, games, and monotone extraction for
generator-presented ideals on the grid.

The public names below load their submodule on first access (PEP 562),
so importing the package, or one submodule such as ``gridideals.cli``,
imports nothing else.  The names are looked up in the submodule on every
access and never copied here, so the package always shows what the
submodule currently binds.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "covering": """
            GRAPH NONDECREASING_GRAPH RANKED_CHAIN SPARSE_CHAIN VERTICAL_LINE
            CoverCertificate CoverPart IdealError OracleScaleError SearchScaleError SparsityWitness
            brute_force_cover oracle_cover_cost phi phi_cost sparse_chain_cover_number
            sparsity_witness
        """,
        "game": """
            FiniteTree GameError GameState blocking_strategy coloring_to_tree
            condition4_check decreasing_chain_to_coloring least_lex_opponent
            normalize_family play random_opponent scripted_opponent transcript_json verdict
        """,
        "grid": """
            Point canonical_points is_ranked_chain is_sparse_chain lex_before
            nondecreasing_pair_color point_sum sparse_pair_color window_points
        """,
        "gridmaps": """
            DIAG_RANK MAX_RANK OFFSET_RANK RANK_CATALOG SKEW_RANK WEDGE_ZIGZAG
            IndexPointMap PartitionEmbedding PartitionWitness RankMap adversarial_value
            antidiagonal_height dyadic_partition jumping_condition partition_from_labels
            partition_to_embedding pullback_coloring triangle_fold triangle_unfold
            validate_rank_map wedge_class_level wedge_zigzag_index wedge_zigzag_point
        """,
        "monotone": """
            EVENTUALLY_CONSTANT INF NONDECREASING NONINCREASING ColumnSpec DescriptorError
            ExtractionError MonCertificate SequenceFamily VerifyResult extract_mon
            verify_certificate
        """,
        "presentations": """
            ED EDUP EMPTY_X_FIN FIN FIN_X_FIN WR IdealPresentation SetDescriptor column
            column_tail dense_subset descriptor_in_ideal direct_sum empty_set finite_points
            pick_outside restrict wr_pi
        """,
        "transfer": """
            ChainTransfer DecompositionReport TransferError build_chain_transfer
            sample_range_chain verify_preimage_decomposition
        """,
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
