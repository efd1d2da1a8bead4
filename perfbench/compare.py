"""Compare saved benchmark outputs of two commits, workload by workload.

    python3 perfbench/compare.py --base base-*.out --change change-*.out

Each file is the stdout of one `perfbench/run.py` run.  For every
workload and metric this prints both sides' medians and quartiles and
the change's median relative to the base's.  Results from hosts whose
facts differ (Python, core count, mpmath backend, numpy) are flagged:
the mpmath backend alone moves root-finding time several-fold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HOST_KEYS = ("python", "nproc", "mpmath_backend", "numpy")


def load(paths):
    """{(workload, trace): {metric: [values]}} and the set of host facts seen."""
    values = defaultdict(lambda: defaultdict(list))
    hosts = set()
    for path in paths:
        record, result = (json.loads(line) for line in
                          Path(path).read_text().strip().splitlines()[-2:])
        hosts.add(tuple((k, record["host"][k]) for k in HOST_KEYS))
        for name, metric in result["metrics"].items():
            values[(record["workload"], record["trace"])][name].append(metric["value"])
    return values, hosts


def summary(xs) -> str:
    if len(xs) < 2:
        return f"{xs[0]:.4g}"
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    base, base_hosts = load(args.base)
    change, change_hosts = load(args.change)
    if len(base_hosts | change_hosts) > 1:
        print("WARNING: results come from differing hosts; compare with care:")
        for host in sorted(base_hosts | change_hosts):
            print("   ", dict(host))
    for key in sorted(base.keys() & change.keys()):
        print(f"{key[0]} (trace {key[1]})")
        for name in sorted(base[key].keys() & change[key].keys()):
            b, c = base[key][name], change[key][name]
            mb, mc = statistics.median(b), statistics.median(c)
            rel = f"{mc / mb - 1:+.1%}" if mb else "n/a"
            print(f"  {name:28s} base {summary(b):28s} change {summary(c):28s} {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
