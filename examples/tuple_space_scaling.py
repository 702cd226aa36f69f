#!/usr/bin/env python3
"""Tuple space search: why the non-blocking ISA matters.

Wildcard classification searches one hash table per distinct rule mask
("tuple").  Software walks the tuples one by one; HALO's ``LOOKUP_NB``
dispatches every tuple's lookup to the distributed accelerators at once and
collects results with a single ``SNAPSHOT_READ`` per batch — Figure 11.

Run:  python examples/tuple_space_scaling.py
"""

from repro.analysis.experiments.fig11_tuple_space import run_point


def main() -> None:
    print("tuple space search, 1024 megaflows per tuple "
          "(normalised throughput vs software)\n")
    print(f"{'tuples':>7} {'software':>10} {'HALO-B':>8} {'HALO-NB':>8} "
          f"{'TCAM':>8}")
    for tuples in (2, 5, 10, 15, 20):
        point = run_point(tuples, packets=30)
        normalized = point.normalized_throughput()
        print(f"{tuples:>7} {normalized['software']:>9.1f}x "
              f"{normalized['halo-b']:>7.1f}x "
              f"{normalized['halo-nb']:>7.1f}x "
              f"{normalized['tcam']:>7.0f}x")
    print("\nblocking mode serialises per-tuple lookups and flatlines;\n"
          "non-blocking mode scales with tuple count (paper: up to 23.4x\n"
          "at 20 tuples); TCAM holds all wildcards in one search but costs\n"
          "~48x more energy per query (see `python -m repro run tab04`).")


if __name__ == "__main__":
    main()
