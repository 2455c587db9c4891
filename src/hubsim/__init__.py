"""hubsim: desk-scale simulator for quantum walks on hub-sparse networks.

Builds the input oracles for a hub-sparse graph, block-encodes the sparse
pieces of its adjacency split, fast-forwards the dense hub-regular link
matrix through its rank-two spectral structure, and assembles the
interaction-picture truncated-series evolution, all verified against
independent dense references.
"""

from .blockenc import BlockEncoding, fixed_point_aa, lcu, verify
from .dyson import (DysonConfig, LeafBlocks, build_dressed_H2, build_selectG,
                    default_config, dyson_segment, simulate_full)
from .ffhub import build_expG, classical_expG_apply
from .netgraph import (GraphSplit, HubSparseGraph, dg8, generate, load_graph,
                       save_graph, split, validate)
from .oracles import (OracleSet, build_oracle_set, derive_OK_by_query,
                      derive_OZ_by_query)
from .qstate import (Circuit, LinearOperator, RegisterLayout, extract_block,
                     spectral_norm)
from .refcheck import dense_expm, distance, rotated_reference
from .sparse_enc import encode_Ah, encode_Aminus, encode_Ar, encode_H2

__version__ = "0.1.0"

__all__ = [
    "BlockEncoding", "Circuit", "DysonConfig", "GraphSplit", "HubSparseGraph",
    "LeafBlocks", "LinearOperator", "OracleSet", "RegisterLayout",
    "build_dressed_H2", "build_expG", "build_oracle_set", "build_selectG",
    "classical_expG_apply", "default_config", "dense_expm",
    "derive_OK_by_query", "derive_OZ_by_query", "dg8", "distance",
    "dyson_segment", "encode_Ah", "encode_Aminus", "encode_Ar", "encode_H2",
    "extract_block", "fixed_point_aa", "generate", "lcu", "load_graph",
    "rotated_reference", "save_graph", "simulate_full", "spectral_norm",
    "split", "validate", "verify",
]
