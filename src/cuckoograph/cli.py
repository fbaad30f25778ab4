"""Command-line benchmark driver.

Examples:

    cuckoograph-bench --generate sparse:100000:600000:1 --dataset /tmp/s.txt \
        --phases insert,query,delete --csv-out run.csv
    cuckoograph-bench --dataset edges.txt --dedup --phases insert,task:bfs:10
"""

from __future__ import annotations

import argparse
import re
import sys

from .bench import Report, Workload, run
from .graph import GraphParams
from .workload import generate_synthetic


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cuckoograph-bench",
        description="Ingest or generate an edge list, drive insert/query/"
                    "delete/mixed/task phases, and report throughput, "
                    "structure-accounted memory, and counters as CSV.")
    p.add_argument("--dataset", help="edge-list file; with --generate this "
                                     "is where the generated file is written")
    p.add_argument("--generate", metavar="KIND:NODES:EDGES:SEED",
                   help="synthesize a dataset (kind: dense, sparse, zipf)")
    p.add_argument("--dedup", action="store_true",
                   help="drop duplicate (u, v) pairs before running")
    p.add_argument("--phases", default="insert,query",
                   help="comma-separated phases: insert, query, delete, "
                        "mixed:RI,RQ,RD:COUNT, task:NAME[:TOP_K]")
    p.add_argument("--d", type=int, default=8, help="cells per bucket")
    p.add_argument("--g", type=float, default=0.9, help="grow threshold")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                   help="contraction threshold")
    p.add_argument("--t", type=int, default=250, help="kick budget")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--weighted", action="store_true",
                   help="duplicate edges increment a weight")
    p.add_argument("--csv-out", help="write the per-phase CSV here")
    p.add_argument("--delete-order", choices=("insertion", "random"),
                   default="insertion")
    return p


def _split_phases(raw: str):
    """Split on commas, but a ``mixed:RI,RQ,RD:COUNT`` phase runs to the
    first comma after its second colon."""
    parts = re.findall(r"mixed:[^:]*:[^,]*|[^,]+", raw)
    return tuple(filter(None, map(str.strip, parts)))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = args.seed
        dataset = args.dataset
        if args.generate:
            fields = args.generate.split(":")
            if len(fields) != 4:
                raise ValueError("--generate needs KIND:NODES:EDGES:SEED")
            kind, nodes, edges, gseed = (fields[0], int(fields[1]),
                                         int(fields[2]), int(fields[3]))
            if dataset is None:
                dataset = f"generated_{kind}_{nodes}_{edges}_{gseed}.txt"
            generate_synthetic(kind, nodes, edges, gseed, path=dataset)
            print(f"generated {edges} edges -> {dataset}")
        params = GraphParams.from_seed(
            seed,
            cells_per_bucket=args.d,
            expand_at=args.g,
            contract_at=args.lam,
            kick_budget=args.t,
            weighted=args.weighted,
        )
        workload = Workload(
            dataset=dataset,
            phases=_split_phases(args.phases),
            dedup=args.dedup,
            params=params,
            seed=seed,
            delete_order=args.delete_order,
        )
        report = run(workload)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for phase in report.phases:
        print(f"{phase.phase:<28} ops={phase.ops:<10} "
              f"mops={phase.mops:.3f} bytes={phase.bytes} "
              f"placements={phase.placements} evictions={phase.evictions} "
              f"dl_hits={phase.dl_hits} movements={phase.movements}")
    if args.csv_out:
        report.to_csv(args.csv_out)
        print(f"csv -> {args.csv_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
