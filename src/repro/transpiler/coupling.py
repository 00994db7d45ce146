"""Device coupling maps.

A coupling map is the undirected connectivity graph of a device's
physical qubits; two-qubit gates may only act on adjacent pairs.  The
router consults shortest paths here when inserting SWAPs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx

__all__ = ["CouplingMap"]


class CouplingMap:
    """Undirected connectivity over ``num_qubits`` physical qubits."""

    def __init__(
        self, edges: Iterable[Tuple[int, int]], num_qubits: Optional[int] = None
    ) -> None:
        edge_list = [(int(a), int(b)) for a, b in edges]
        for a, b in edge_list:
            if a == b:
                raise ValueError(f"self-loop edge ({a},{b})")
            if a < 0 or b < 0:
                raise ValueError("qubit indices must be non-negative")
        inferred = max((max(a, b) for a, b in edge_list), default=-1) + 1
        self.num_qubits = int(num_qubits) if num_qubits is not None else inferred
        if self.num_qubits < inferred:
            raise ValueError("num_qubits smaller than edge endpoints")
        self.graph = nx.Graph()
        self.graph.add_nodes_from(range(self.num_qubits))
        self.graph.add_edges_from(edge_list)
        self._distances: Optional[Dict[int, Dict[int, int]]] = None

    # ------------------------------------------------------------------
    @classmethod
    def line(cls, num_qubits: int) -> "CouplingMap":
        """A 1-D chain 0-1-2-...-(n-1)."""
        return cls([(q, q + 1) for q in range(num_qubits - 1)], num_qubits)

    @classmethod
    def ring(cls, num_qubits: int) -> "CouplingMap":
        edges = [(q, (q + 1) % num_qubits) for q in range(num_qubits)]
        return cls(edges, num_qubits)

    @classmethod
    def full(cls, num_qubits: int) -> "CouplingMap":
        edges = [
            (a, b)
            for a in range(num_qubits)
            for b in range(a + 1, num_qubits)
        ]
        return cls(edges, num_qubits)

    @classmethod
    def grid(cls, rows: int, cols: int) -> "CouplingMap":
        edges = []
        for r in range(rows):
            for c in range(cols):
                q = r * cols + c
                if c + 1 < cols:
                    edges.append((q, q + 1))
                if r + 1 < rows:
                    edges.append((q, q + cols))
        return cls(edges, rows * cols)

    # ------------------------------------------------------------------
    def edges(self) -> List[Tuple[int, int]]:
        return sorted(tuple(sorted(e)) for e in self.graph.edges())

    def is_adjacent(self, a: int, b: int) -> bool:
        return self.graph.has_edge(a, b)

    def neighbors(self, q: int) -> List[int]:
        return sorted(self.graph.neighbors(q))

    def degree(self, q: int) -> int:
        return self.graph.degree(q)

    def is_connected(self) -> bool:
        if self.num_qubits == 0:
            return True
        return nx.is_connected(self.graph)

    # ------------------------------------------------------------------
    def distance(self, a: int, b: int) -> int:
        """Hop distance between two physical qubits."""
        if self._distances is None:
            self._distances = dict(nx.all_pairs_shortest_path_length(self.graph))
        try:
            return self._distances[a][b]
        except KeyError:
            raise ValueError(f"qubits {a} and {b} are disconnected") from None

    def shortest_path(self, a: int, b: int) -> List[int]:
        """One shortest path from *a* to *b* inclusive."""
        return nx.shortest_path(self.graph, a, b)

    def __repr__(self) -> str:
        return f"CouplingMap(num_qubits={self.num_qubits}, edges={self.edges()})"
