"""repro — bounded evaluability for querying big data by accessing small data.

A from-scratch implementation of Fan, Geerts, Cao, Deng & Lu,
"Querying Big Data by Accessing Small Data" (PODS 2015): access
schemas, covered queries, bounded query plans, boundedly evaluable
envelopes and bounded query specialization, plus the relational and
graph substrates and workload generators needed to reproduce the
paper's experimental claims.  See README.md and DESIGN.md.
"""

from .errors import (BudgetExceeded, ConstraintViolation, ExecutionError,
                     ParseError, PlanError, QueryError, ReproError,
                     SchemaError, ServiceError, StorageError,
                     UndecidableForFO, UnsafeQueryError)
from .schema import (AccessConstraint, AccessSchema, CardinalityFunction,
                     ConstantCardinality, LogCardinality, PowerCardinality,
                     RelationSchema, Schema)
from .query import (CQ, UCQ, Atom, Const, Equality, FOQuery, PositiveQuery,
                    Var, parse_cq, parse_query, parse_ucq)
from .storage import Database, MemoryBackend, StorageBackend, make_backend
from .engine import (Plan, PhysicalPlan, build_bounded_plan,
                     build_union_plan, evaluate, execute_plan,
                     interpret_logical, optimize, static_bounds)
from .core import (Budget, Decision, Verdict, a_contained, a_equivalent,
                   a_satisfiable, analyze_coverage, is_boundedly_evaluable,
                   is_covered, lower_envelope, specialize_minimally,
                   upper_envelope)
from .schema.discovery import DiscoveryOptions, discover_access_schema
from .service import (BatchRequest, BoundedQueryService, ServiceResult,
                      ServiceStats)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # errors
    "ReproError", "SchemaError", "QueryError", "ParseError",
    "UnsafeQueryError", "PlanError", "ExecutionError",
    "ConstraintViolation", "BudgetExceeded", "UndecidableForFO",
    "StorageError", "ServiceError",
    # schema
    "RelationSchema", "Schema", "AccessConstraint", "AccessSchema",
    "CardinalityFunction", "ConstantCardinality", "LogCardinality",
    "PowerCardinality", "DiscoveryOptions", "discover_access_schema",
    # query
    "Var", "Const", "Atom", "Equality", "CQ", "UCQ", "PositiveQuery",
    "FOQuery", "parse_cq", "parse_ucq", "parse_query",
    # storage / engine
    "Database", "StorageBackend", "MemoryBackend", "make_backend",
    "Plan", "PhysicalPlan", "build_bounded_plan", "build_union_plan",
    "optimize", "execute_plan", "interpret_logical", "evaluate",
    "static_bounds",
    # core analyses
    "analyze_coverage", "is_covered", "is_boundedly_evaluable",
    "a_satisfiable", "a_contained", "a_equivalent",
    "upper_envelope", "lower_envelope", "specialize_minimally",
    "Budget", "Decision", "Verdict",
    # service
    "BoundedQueryService", "ServiceResult", "ServiceStats", "BatchRequest",
]
