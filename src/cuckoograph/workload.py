"""Edge-list ingestion and synthetic workload generation."""

from __future__ import annotations

import random
import re

import numpy as np

# power-law exponents: zipf out-degrees of generate_synthetic, and the
# node ids mixed_ops draws (low ids are the hot ones)
DEGREE_SKEW = 1.2
ID_SKEW = 1.05

# a field the line loop reads (a negative one then raises its own message)
_FIELD = re.compile(r"-?[0-9]+")

# the one field numpy reads as 2**64 - 1 exactly; it clamps any larger
# value to the same number
_U64_MAX = np.iinfo(np.uint64).max
_U64_MAX_FIELD = str(_U64_MAX).encode()

# bytes of a file _is_plain checks at a time: its arrays peak near 8.5
# bytes per chunk byte on the densest plain lines ("0 0"), about 0.55 MB,
# however long the file
_CHUNK = 1 << 16


def read_edge_file(path):
    """Parse edge lines of two or three whitespace-separated fields, "u v"
    or "u v w".

    A field is ASCII decimal digits, a value in ``[0, 2^64)``; a weight
    ``w`` is at least 1. Blank lines, and lines starting with '#' or '%'
    (comments), are skipped. Any other line raises ValueError with its
    line number.

    The file is read once as bytes, with "\\r\\n" and a lone "\\r" read
    as "\\n", as text mode reads them. A file whose every line is plain,
    "u v" of at most 20 digits each with one space or tab between and a
    newline after, is checked by numpy a chunk at a time (``_is_plain``)
    and tokenized in one pass as unsigned 64-bit values. numpy clamps a
    value past ``2^64 - 1`` to it, so the one-pass result stands only when
    every ``2^64 - 1`` it holds is spelled so in the file; otherwise the
    file is reopened in text mode for the line loop, like every other
    file. All give the same list, or raise the same error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if _is_plain(data):
        values = np.fromstring(data, dtype=np.uint64, sep=" ")
        # only a 20-digit field can clamp, and no field is longer, so the
        # two counts match exactly when no field is 2**64 or more
        if (values.max(initial=0) < _U64_MAX
                or np.count_nonzero(values == _U64_MAX)
                == data.count(_U64_MAX_FIELD)):
            del data
            nums = values.tolist()
            del values      # before the tuples: a lower peak
            pairs = iter(nums)
            return list(zip(pairs, pairs))
    with open(path) as fh:
        return _read_lines(path, fh.read())


def _is_plain(data):
    """Whether ``data`` is empty or plain lines: 1-20 ASCII digits, one
    space or tab, 1-20 digits and a newline each.

    Checked on a uint8 view, ``_CHUNK`` bytes at a time, each chunk cut
    just after a newline; a chunk with none is not plain.
    """
    view = np.frombuffer(data, dtype=np.uint8)
    start = 0
    while start < len(data):
        end = len(data)
        if end - start > _CHUNK:
            end = data.rfind(b"\n", start, start + _CHUNK) + 1
            if end <= start:
                return False
        if not _plain_lines(view[start:end]):
            return False
        start = end
    return True


def _plain_lines(chunk):
    """``_is_plain`` on one non-empty chunk of bytes."""
    if chunk[-1] != 10 or chunk.max() > 57:     # "\n" last, nothing past "9"
        return False
    # the bytes below "0" must be separators: a space or tab, then "\n"
    seps = np.flatnonzero(chunk < 48)
    kinds = chunk[seps]
    # (an odd count would put the last "\n" where a space or tab goes)
    if ((kinds[1::2] != 10).any()
            or ((kinds[::2] != 32) & (kinds[::2] != 9)).any()):
        return False
    # a field is what lies between two separators: 1 to 20 digits
    gaps = np.diff(seps)
    return 1 <= seps[0] <= 20 and gaps.min() >= 2 and gaps.max() <= 21


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
    first = {}
    for e in edges:
        first.setdefault(e[:2], e)
    return list(first.values())


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
    if count < 0 or universe < 1:
        raise ValueError("mixed_ops needs count >= 0 and universe >= 1, "
                         f"got {count} and {universe}")
    ri, rq, _ = ratios
    rng = random.Random(seed)
    draws = [rng.random() for _ in range(3 * count)]
    cum = np.cumsum(_zipf(universe, ID_SKEW))
    ops = ["i" if r < ri else ("q" if r < ri + rq else "d")
           for r in draws[0::3]]
    us = np.searchsorted(cum, draws[1::3], side="right").tolist()
    vs = np.searchsorted(cum, draws[2::3], side="right").tolist()
    return list(zip(ops, us, vs))
