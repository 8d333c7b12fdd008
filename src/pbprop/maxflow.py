"""Small exact max-flow (Edmonds-Karp) on integer capacities.

Load balancing has rational capacities; its caller scales them all by one
common denominator first. Scaling every capacity by the same positive
constant keeps the BFS order and every bottleneck comparison, so the flow
found is the rational flow times that constant, computed on Python ints.
"""
from __future__ import annotations


class FlowNetwork:
    """Directed flow network over integer node ids with int capacities."""

    def __init__(self, n_nodes: int) -> None:
        self.n = n_nodes
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.labels: list[int] = []
        self.paths: list[tuple[int, ...]] = []  # edge lists max_flow fills first

    def add_edge(self, u: int, v: int, cap: int) -> int:
        """Add edge u->v; returns its index (reverse edge is index^1)."""
        idx = len(self.to)
        self.adj[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def max_flow(self, s: int, t: int) -> int:
        """Push a maximum flow from s to t, each of ``paths`` carrying what it
        can before any search, and return its value. Then ``labels[v] != -1``
        exactly for the nodes the last, failed, search reached in the
        residual graph: the source side of a minimum cut."""
        adj, to, cap = self.adj, self.to, self.cap
        total = 0
        given = iter(self.paths)
        while True:
            path = next(given, None)
            if path is None:
                # breadth-first search; it stops as soon as t is labelled,
                # which leaves the labels on t's path as a full search would
                parent_edge = [-1] * self.n
                parent_edge[s] = -2
                queue = [s]
                for u in queue:
                    for idx in adj[u]:
                        if cap[idx] > 0:
                            v = to[idx]
                            if parent_edge[v] == -1:
                                parent_edge[v] = idx
                                queue.append(v)
                    if parent_edge[t] != -1:
                        break
                else:
                    self.labels = parent_edge
                    return total
                path = []
                v = t
                while v != s:
                    idx = parent_edge[v]
                    path.append(idx)
                    v = to[idx ^ 1]
            bottleneck = min([cap[idx] for idx in path])
            for idx in path:
                cap[idx] -= bottleneck
                cap[idx ^ 1] += bottleneck
            total += bottleneck

    def flow_on(self, idx: int) -> int:
        """Flow pushed along edge idx (equals residual of the reverse edge)."""
        return self.cap[idx ^ 1]
