"""Edge-list ingestion and synthetic workload generation."""

from __future__ import annotations

import random
import re

import numpy as np

# power-law exponents: zipf out-degrees of generate_synthetic, and the
# node ids mixed_ops draws (low ids are the hot ones)
DEGREE_SKEW = 1.2
ID_SKEW = 1.05

# a whole file read_edge_file parses in one pass, and a field the line loop
# reads (a negative one then raises its own message)
_PLAIN = re.compile(r"(?:[0-9]{1,20}[ \t][0-9]{1,20}\n)*+")
_FIELD = re.compile(r"-?[0-9]+")


def read_edge_file(path):
    """Parse edge lines of two or three whitespace-separated fields, "u v"
    or "u v w".

    A field is ASCII decimal digits, a value in ``[0, 2^64)``; a weight
    ``w`` is at least 1. Blank lines, and lines starting with '#' or '%'
    (comments), are skipped. Any other line raises ValueError with its
    line number. A file whose every line is plain, "u v" of at most 20
    digits each with one space or tab between and a newline after, is
    tokenized in one pass by numpy as unsigned 64-bit values. numpy
    clamps a value past ``2^64 - 1`` to it, so a plain file that reads
    back holding ``2^64 - 1`` goes to the line loop, like every other
    file. All give the same list.
    """
    with open(path) as fh:
        text = fh.read()
    if _PLAIN.fullmatch(text):
        values = np.fromstring(text, dtype=np.uint64, sep=" ")
        # numpy reads every value below 2**64 - 1 exactly and clamps a
        # larger one to it: only the line loop tells the two apart
        if values.max(initial=0) == np.iinfo(np.uint64).max:
            return _read_lines(path, text)
        nums = values.tolist()
        del values          # before the tuples: a lower peak
        pairs = iter(nums)
        return list(zip(pairs, pairs))
    return _read_lines(path, text)


def _read_lines(path, text):
    """``read_edge_file`` line by line: the checks and their messages."""
    edges = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line[0] in "#%":
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"{path}:{lineno}: expected 2 or 3 fields, "
                             f"got {len(parts)}")
        if not all(map(_FIELD.fullmatch, parts)):
            raise ValueError(f"{path}:{lineno}: non-integer field in "
                             f"{line!r}")
        if "-" in line:         # "-0" too: no field takes a sign
            raise ValueError(f"{path}:{lineno}: negative value in {line!r}")
        # past its leading zeros, a field of more than 20 digits is 2**64
        # or more; it never reaches int(), whose digit limit it may pass
        digits = [p.lstrip("0") or "0" for p in parts]
        nums = [int(d) if len(d) <= 20 else 1 << 64 for d in digits]
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
    """Write (u, v) or (u, v, w) tuples as "u v" or "u v w" lines."""
    with open(path, "w") as fh:
        fh.writelines(("%s %s\n" if len(e) == 2 else "%s %s %s\n") % e
                      for e in edges)
    return path


def _decode_pair(idx, n):
    # index over all ordered pairs without self-loops
    u, r = divmod(idx, n - 1)
    return u, r if r < u else r + 1


def _sample_targets(rng, n, u, degree):
    picks = rng.sample(range(n - 1), degree)
    return [p if p < u else p + 1 for p in picks]


def generate_synthetic(kind, nodes, edges, seed, path=None):
    """Deterministic synthetic edge lists: dense, sparse, or zipf.

    dense picks distinct pairs uniformly; sparse gives every node the same
    out-degree; zipf draws out-degrees from a power law (``DEGREE_SKEW``).
    Writes the file when a path is given and always returns the edge list.
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
        out = [(u, v) for u in range(nodes)
               for v in _sample_targets(rng, nodes, u, degree)]
    elif kind == "zipf":
        degrees = np.minimum(
            np.rint(_zipf(nodes, DEGREE_SKEW) * edges).astype(int), nodes - 1)
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


def _zipf(n, skew):
    """Probabilities of ranks 1..n, proportional to rank**-skew."""
    weights = np.arange(1, n + 1, dtype=float) ** -skew
    return weights / weights.sum()


def check_ratios(ratios):
    """Raise ValueError unless ``ratios`` is an insert, query, delete mix:
    three values in [0, 1] that sum to 1."""
    if len(ratios) != 3:
        raise ValueError(f"mixed ratios must be three values, got {ratios}")
    if not all(0.0 <= r <= 1.0 for r in ratios):
        raise ValueError(f"mixed ratios must each be in [0, 1], got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"mixed ratios must sum to 1, got {ratios}")


def mixed_ops(count, ratios, universe, seed):
    """A list of ``count`` (op, u, v) tuples, op in {i, q, d} with the given
    mix, and u and v drawn from a power law over [0, universe)
    (``ID_SKEW``).

    One ``random.Random(seed)`` draws three values per op, the op's, then
    u's, then v's; all are drawn first, and each id column is then looked
    up in the cumulative weights in one ``np.searchsorted`` call.
    """
    check_ratios(ratios)
    ri, rq, _ = ratios
    rng = random.Random(seed)
    draws = [rng.random() for _ in range(3 * count)]
    cum = np.cumsum(_zipf(universe, ID_SKEW))
    ops = ["i" if r < ri else ("q" if r < ri + rq else "d")
           for r in draws[0::3]]
    us = np.searchsorted(cum, draws[1::3], side="right").tolist()
    vs = np.searchsorted(cum, draws[2::3], side="right").tolist()
    return list(zip(ops, us, vs))
