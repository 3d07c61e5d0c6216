"""A desk-scale laboratory for distributed induced-subgraph detection.

Hard instance families whose subgraph presence encodes set
intersection, a bandwidth-accounting synchronous message-passing
simulator, two-party listing protocols over a vertex cut, and a
distributed induced-diamond listing algorithm, all cross-checked
against brute-force oracles.
"""

from .bitstrings import (
    bits_intersect,
    bits_to_hex,
    hex_to_bits,
    ones,
    pair_index,
    random_bits,
    random_nonintersecting_pair,
    singleton,
    validate_bits,
    zeros,
)
from .bundles import SCHEMA_VERSION, canonical_json_bytes, read_bundle, write_bundle
from .congest import (
    CutTrafficReport,
    NodeProgram,
    PROGRAMS,
    ProtocolViolation,
    RunStats,
    SimConfig,
    constant_program,
    cut_traffic_bound_check,
    default_bandwidth,
    flood_program,
    naive_four_cycle_program,
    run,
    silent_program,
    word_bits,
)
from .diamond_congest import (
    Cluster,
    Decomposition,
    DiamondRunStats,
    coverage_tags,
    decompose_by_peeling,
    list_induced_diamonds_congest,
    min_peel_degree,
    run_heavy_phase,
    run_light_phase,
    run_sparse_phase,
)
from .diamond_family import (
    DiamondFixture,
    build_diamond_family,
    build_diamond_fixture,
    diamond_cut_size,
    has_two_two_diamond,
    list_two_two_diamonds,
)
from .families import (
    CodeAssignment,
    FamilyInstance,
    InputPair,
    build_cycle_family,
    build_four_cycle_family,
    build_long_cycle_family,
    colex_rank,
    colex_subset,
    cycle_cut_size,
    long_cycle_alphabet,
    long_cycle_cut_size,
    make_code_assignment,
)
from .family_checks import (
    FamilyCheckReport,
    FamilyHarness,
    check_block_counts,
    check_long_cycle_structure,
    cycle_harness,
    diamond_harness,
    diamond_harness_from_seed,
    four_cycle_harness,
    long_cycle_harness,
    verify_family_conditions,
)
from .graphs import (
    DEFAULT_WORK_BUDGET,
    Graph,
    WorkBudgetExceeded,
    connected_components,
    crossing_edges,
    diameter,
    eccentricity,
    induced_edge_count,
    induced_edges,
    is_induced_cycle,
    is_induced_diamond,
    list_induced_cycles,
    list_induced_cycles_naive,
    list_induced_diamonds,
    list_induced_diamonds_naive,
    norm_edge,
    random_graph,
)
from .twoparty import (
    CycleListingResult,
    DiamondListingResult,
    Message,
    PartyView,
    ReductionResult,
    Transcript,
    congest_reduction,
    cycle_listing_protocol,
    diamond_listing_protocol,
    limitation_bound_report,
    make_views,
)

__version__ = "0.1.0"
