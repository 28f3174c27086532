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
            GameError GameState blocking_strategy coloring_tree least_lex_opponent play
            random_opponent transcript_json verdict
        """,
        "grid": """
            Point canonical_points is_ranked_chain is_sparse_chain point_sum
            sparse_pair_color window_points
        """,
        "gridmaps": """
            DIAG_RANK MAX_RANK OFFSET_RANK RANK_CATALOG SKEW_RANK WEDGE_ZIGZAG
            IndexPointMap PartitionEmbedding RankMap adversarial_value antidiagonal_height
            dyadic_class jumping_condition partition_to_embedding triangle_fold triangle_unfold
            validate_rank_map wedge_class_level wedge_zigzag_index wedge_zigzag_point
        """,
        "monotone": """
            EVENTUALLY_CONSTANT INF NONDECREASING NONINCREASING ColumnSpec DescriptorError
            ExtractionError MonCertificate SequenceFamily VerifyResult extract_mon
            verify_certificate
        """,
        "presentations": """
            ED EDUP FIN WR IdealPresentation SetDescriptor descriptor_in_ideal pick_outside wr_pi
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
