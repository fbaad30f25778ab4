"""Edge-list ingestion and synthetic workload generation."""

from __future__ import annotations

import random

import numpy as np


def read_edge_file(path):
    """Parse whitespace-separated "u v" or "u v w" lines.

    Lines starting with '#' or '%' are comments. Malformed lines, and
    values outside ``[0, 2^64)``, raise with their line number.
    """
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line[0] in "#%":
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: expected 2 or 3 fields, "
                                 f"got {len(parts)}")
            try:
                nums = [int(p) for p in parts]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer field in "
                                 f"{line!r}") from None
            if min(nums) < 0:
                raise ValueError(f"{path}:{lineno}: negative value in {line!r}")
            if max(nums) >> 64:
                raise ValueError(f"{path}:{lineno}: value of 2**64 or more "
                                 f"in {line!r}")
            if len(nums) == 3 and nums[2] < 1:
                raise ValueError(f"{path}:{lineno}: weight must be >= 1")
            edges.append(tuple(nums))
    return edges


def dedup_edges(edges):
    """Drop repeated (u, v) pairs, keeping the first occurrence order."""
    seen = set()
    out = []
    for e in edges:
        key = (e[0], e[1])
        if key not in seen:
            seen.add(key)
            out.append(e)
    return out


def write_edge_file(path, edges):
    with open(path, "w") as fh:
        for e in edges:
            fh.write(" ".join(str(x) for x in e))
            fh.write("\n")
    return path


def _decode_pair(idx, n):
    # index over all ordered pairs without self-loops
    u, r = divmod(idx, n - 1)
    return u, r if r < u else r + 1


def _sample_targets(rng, n, u, degree):
    picks = rng.sample(range(n - 1), degree)
    return [p if p < u else p + 1 for p in picks]


def generate_synthetic(kind, nodes, edges, seed, path=None, skew=1.2):
    """Deterministic synthetic edge lists: dense, sparse, or zipf.

    dense picks distinct pairs uniformly; sparse gives every node the same
    out-degree; zipf draws out-degrees from a power law. Writes the file
    when a path is given and always returns the edge list.
    """
    if nodes < 2:
        raise ValueError("need at least 2 nodes")
    max_edges = nodes * (nodes - 1)
    if edges > max_edges:
        raise ValueError(f"{edges} edges infeasible for {nodes} nodes "
                         f"(max {max_edges} without duplicates)")
    rng = random.Random(seed)
    if kind == "dense":
        out = [_decode_pair(i, nodes) for i in rng.sample(range(max_edges), edges)]
    elif kind == "sparse":
        if edges % nodes:
            raise ValueError("sparse needs edges divisible by nodes "
                             "(constant out-degree)")
        degree = edges // nodes
        if degree > nodes - 1:
            raise ValueError("out-degree exceeds nodes - 1")
        out = [(u, v) for u in range(nodes)
               for v in _sample_targets(rng, nodes, u, degree)]
    elif kind == "zipf":
        weights = np.arange(1, nodes + 1, dtype=float) ** -skew
        weights /= weights.sum()
        degrees = np.minimum(np.rint(weights * edges).astype(int), nodes - 1)
        # top up rounding shortfall on the highest-rank nodes that have room
        deficit = edges - int(degrees.sum())
        i = 0
        while deficit != 0 and i < nodes:
            room = (nodes - 1 - degrees[i]) if deficit > 0 else degrees[i]
            take = min(abs(deficit), room)
            degrees[i] += take if deficit > 0 else -take
            deficit -= take if deficit > 0 else -take
            i += 1
        out = [(u, v) for u in range(nodes) if degrees[u]
               for v in _sample_targets(rng, nodes, u, int(degrees[u]))]
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if path is not None:
        write_edge_file(path, out)
    return out


class ZipfSampler:
    """Bounded power-law sampler over [0, n); low ids are the hot ones."""

    def __init__(self, n, skew, rng):
        weights = np.arange(1, n + 1, dtype=float) ** -skew
        self._cum = np.cumsum(weights / weights.sum())
        self._rng = rng

    def sample(self) -> int:
        return int(np.searchsorted(self._cum, self._rng.random(), side="right"))


def mixed_ops(count, ratios, universe, seed, skew=1.05):
    """Yield (op, u, v) tuples: op in {i, q, d} with the given mix."""
    ri, rq, rd = ratios
    if abs(ri + rq + rd - 1.0) > 1e-9:
        raise ValueError("operation ratios must sum to 1")
    rng = random.Random(seed)
    ids = ZipfSampler(universe, skew, rng)
    for _ in range(count):
        r = rng.random()
        op = "i" if r < ri else ("q" if r < ri + rq else "d")
        yield op, ids.sample(), ids.sample()
