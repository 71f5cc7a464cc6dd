"""Desk-scale extremal functions for forbidden 0-1 matrix patterns,
generalized Davenport-Schinzel sequences, and ordered graphs, plus a
structural-filter pipeline for candidate minimally non-linear patterns."""

from .errors import InvalidInputError, InvalidTransformationError
from .extremal import ex_branch_bound, growth_report
from .ordered_graphs import (
    Bipartition,
    OrderedGraph,
    go_family,
    interval_chromatic,
    og_bipartite_reduce,
    og_contains,
    og_ex_exact,
    og_insert_isolated,
    og_insert_split_vertex,
    og_reduce_smallest,
    parse_ordered_graph,
    underlying_is_k22,
)
from .patterns import (
    Pattern01,
    canonical_key,
    contains,
    format_pattern,
    insert_split_column,
    insert_zero_line,
    parse_pattern,
    reduce_leftmost,
    scan_reduction,
    symmetry_variants,
)
from .pipeline import (
    CandidateReport,
    enumerate_candidates,
    known_mnl_2row,
    matrix_count_bound,
    og_count_bound,
    og_structural_filter,
    seq_count_bound,
    structural_filter,
)
from .records import ExRecord, GrowthReport
from .sequences import (
    BlockDecomposition,
    Sequence,
    blocks,
    insert_repeat,
    mnl_seq_candidates,
    parse_sequence,
    seq_contains,
    seq_ex_exact,
)

__all__ = [name for name in dir() if not name.startswith("_")]
