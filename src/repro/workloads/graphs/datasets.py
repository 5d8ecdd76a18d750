"""Synthetic graph datasets standing in for the paper's inputs.

The paper evaluates on wikipedia-20051105 (wk), soc-LiveJournal1 (sl),
sx-stackoverflow (sx) and com-Orkut (co) — multi-million-edge graphs that a
pure-Python cycle simulator cannot chew through.  We substitute
deterministic scaled-down graphs with the same *shape*: undirected,
power-law degree distributions (preferential attachment), with the paper's
relative ordering of size and density preserved (wk smallest … co largest
and densest).  What the experiments stress — contention class, fraction of
cross-unit edges under a given partitioning, degree skew — survives the
scale-down.

The generator is self-contained (no networkx dependency in the library;
tests use networkx only to verify kernel outputs).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.workloads.base import scaled, stable_name_seed


class Graph:
    """An undirected graph in adjacency-list form."""

    def __init__(self, name: str, num_vertices: int,
                 adjacency: List[List[int]], seed: int = 0):
        self.name = name
        self.num_vertices = num_vertices
        self.adjacency = adjacency
        self.seed = seed

    @property
    def num_edges(self) -> int:
        return sum(len(neigh) for neigh in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self):
        for u, neigh in enumerate(self.adjacency):
            for v in neigh:
                if u < v:
                    yield (u, v)

    def validate(self) -> None:
        for u, neigh in enumerate(self.adjacency):
            if len(set(neigh)) != len(neigh):
                raise ValueError(f"duplicate edges at vertex {u}")
            for v in neigh:
                if not 0 <= v < self.num_vertices or v == u:
                    raise ValueError(f"bad edge ({u}, {v})")
                if u not in self.adjacency[v]:
                    raise ValueError(f"asymmetric edge ({u}, {v})")


def barabasi_albert(n: int, m: int, seed: int, name: str = "ba") -> Graph:
    """Preferential-attachment graph: n vertices, m edges per new vertex.

    Classic Barabási-Albert: power-law degrees, connected, undirected.
    """
    if n < m + 1 or m < 1:
        raise ValueError("need n > m >= 1")
    rng = random.Random(seed)
    adjacency: List[List[int]] = [[] for _ in range(n)]
    # attachment pool: vertices appear once per incident edge (degree-biased)
    pool: List[int] = []

    # seed clique among the first m+1 vertices
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            adjacency[u].append(v)
            adjacency[v].append(u)
            pool.extend((u, v))

    for u in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(pool[rng.randrange(len(pool))])
        # Determinism: set iteration order is a CPython implementation
        # detail, and edge insertion order shapes every adjacency list (and
        # therefore access patterns in every graph workload).  sorted()
        # pins the order to the vertex ids themselves.  Changing this
        # changed every generated graph (and every cached graph result).
        for v in sorted(targets):
            adjacency[u].append(v)
            adjacency[v].append(u)
            pool.extend((u, v))
    return Graph(name=name, num_vertices=n, adjacency=adjacency, seed=seed)


#: dataset name -> (base vertex count, attachment density m).  Ordering and
#: relative density follow the paper's inputs (co densest, wk smallest).
DATASET_SPECS: Dict[str, Tuple[int, int]] = {
    "wk": (160, 2),
    "sl": (220, 3),
    "sx": (280, 2),
    "co": (340, 4),
}

DATASETS = tuple(DATASET_SPECS)


def load_dataset(name: str) -> Graph:
    """Build one of the four named datasets at the active REPRO_SCALE."""
    try:
        base_n, m = DATASET_SPECS[name]
    except KeyError:
        raise ValueError(f"unknown dataset {name!r}; choose from {DATASETS}")
    n = scaled(base_n)
    return barabasi_albert(n, m, seed=stable_name_seed(name), name=name)
