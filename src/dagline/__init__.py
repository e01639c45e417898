"""dagline: content-addressed workflow DAGs with identity-based replay.

Work is authored as a graph of artifact-producing nodes with declared
dependencies. Every execution gets a content-derived identity; matching
identities are restored from the store instead of recomputed, and edits
invalidate exactly the edited node's descendants.
"""

from dagline.errors import DaglineError
from dagline.graph import (
    ContextBinding,
    Edge,
    EditEvent,
    NodeSpec,
    PortDecl,
    Violation,
    WorkflowGraph,
    ancestors,
    descendants,
    topological_order,
    validate_graph,
)
from dagline.identity import (
    ContentHash,
    ExecutionIdentity,
    canonical_bytes,
    compute_execution_identity,
    compute_input_hash,
    hash_content,
    hash_spec,
)
from dagline.manifest import load_manifest, parse_manifest, render_manifest
from dagline.executors import (
    DependencyInput,
    ExecutorRegistry,
    NodeResult,
    ResolvedLocalState,
    default_registry,
    execute,
    extract_markers,
    passthrough,
    synthesize,
)
from dagline.runtime import (
    Explanation,
    NodeDecision,
    RunReport,
    Workspace,
    apply_edit,
    explain,
    node_identity,
    resolve_local_state,
    run,
)
from dagline.store import (
    ArtifactRecord,
    ExecutionRecord,
    ExecutionStats,
    FileStore,
    MemoryStore,
)

__version__ = "0.1.0"

__all__ = [
    "ArtifactRecord",
    "ContentHash",
    "ContextBinding",
    "DaglineError",
    "DependencyInput",
    "Edge",
    "EditEvent",
    "ExecutionIdentity",
    "ExecutionRecord",
    "ExecutionStats",
    "ExecutorRegistry",
    "Explanation",
    "FileStore",
    "MemoryStore",
    "NodeDecision",
    "NodeResult",
    "NodeSpec",
    "PortDecl",
    "ResolvedLocalState",
    "RunReport",
    "Violation",
    "WorkflowGraph",
    "Workspace",
    "ancestors",
    "apply_edit",
    "canonical_bytes",
    "compute_execution_identity",
    "compute_input_hash",
    "default_registry",
    "descendants",
    "execute",
    "explain",
    "extract_markers",
    "hash_content",
    "hash_spec",
    "load_manifest",
    "node_identity",
    "parse_manifest",
    "passthrough",
    "render_manifest",
    "resolve_local_state",
    "run",
    "synthesize",
    "topological_order",
    "validate_graph",
]
