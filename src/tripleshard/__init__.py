"""Semantic-aware triple partitioning, balanced placement, partial replication,
and a distributed-query cost simulator."""

from .allocate import Allocation, allocate
from .generator import generate_sensor_graph
from .layout import Layout, build_layout
from .partition import Fragment, PartitionResult, grow_fragments, top_subjects
from .plan import PartitionPlan, PlanError, build_plan, round_robin_triple_plan
from .query import (
    QueryPattern,
    QueryResult,
    RangeFilter,
    TriplePattern,
    evaluate_centralized,
    evaluate_distributed,
    generate_workload,
    inc_report,
)
from .replicate import (
    CentralityTable,
    ReplicationDecision,
    compute_centrality,
    derive_threshold,
    replicate,
)
from .store import (
    CsvIngestResult,
    CsvMapping,
    IngestError,
    ParseError,
    Triple,
    TripleStore,
    ingest_csv,
    parse_ntriples,
    serialize_ntriples,
)
