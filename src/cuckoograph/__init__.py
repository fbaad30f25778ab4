"""Resizable two-level cuckoo-hash store for dynamic directed graphs."""

from .graph import (CuckooGraph, DeleteResult, GraphParams, GraphStats,
                    InsertResult)
from .oracle import OracleGraph

__all__ = [
    "CuckooGraph",
    "DeleteResult",
    "GraphParams",
    "GraphStats",
    "InsertResult",
    "OracleGraph",
]
