"""Genome distances of the sigma_k family, the exact double distance /
disambiguation solvers, and the executable SAT-hardness construction."""

from .abg import (
    AmbiguousBreakpointGraph,
    Candidate,
    CandidateSet,
    Square,
    build_abg,
    conflict,
    enumerate_candidates,
    resolve,
    score,
    to_dot,
)
from .bpgraph import (
    INFINITY,
    BreakpointGraph,
    BudgetExceeded,
    Component,
    ComponentCensus,
    NotCanonicalError,
    build_breakpoint_graph,
    dcj_distance_bfs_oracle,
    distance,
    sigma,
)
from .genomes import (
    Adjacency,
    Chromosome,
    Extremity,
    Gene,
    Genome,
    GenomeError,
    PairClass,
    ParseError,
    apply_dcj,
    adjacency,
    circular,
    classify_pair,
    double,
    enumerate_resolved_doublings,
    format_genome,
    genome_from_adjacencies,
    head,
    linear,
    parse_genome,
    random_cognate_pair,
    random_genome,
    singularize,
    tail,
)
from .solver import (
    SolveResult,
    SolveStats,
    dd,
    dd_definition_oracle,
    dd_greedy_2,
    ss_mis,
    ss_naive,
)

__version__ = "0.1.0"

# The one kernel backend; kept because benchmark run records name it.
KERNEL_BACKEND = "pure"
