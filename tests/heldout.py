"""Held-out pass rates of acceptance criteria 6-8.

The pinned suites of test_acceptance.py run each criterion once, at fixed run
seeds.  This script runs the same suites at offsets k = 1..K: each keeps the
instances and adds k * 10000 to the run seeds.  For each criterion it prints
the pinned verdict, the held-out pass count, and the mean and sd of each
statistic over the offsets: over its finite values, with a count of the
infinite ones (a median of shots to a threshold never reached).  The output
is deterministic, so two versions of the library can be compared by diffing
it.  pytest does not collect this file.

    PYTHONPATH=src python3 tests/heldout.py [--quality-offsets 20] [--noise-offsets 10]
"""
import argparse
import math
import statistics

from test_acceptance import (
    criterion_6, criterion_7, criterion_8, noise_runs, quality_runs,
)


def summarize(num, pinned, held_out):
    """Print one criterion's verdicts; each verdict is (pass, statistics)."""
    passes = sum(ok for ok, _ in held_out)
    print(f"criterion {num}: pinned {'PASS' if pinned[0] else 'FAIL'}, "
          f"held out {passes}/{len(held_out)}")
    for name in pinned[1]:
        values = [float(stats[name]) for _, stats in held_out]
        finite = [v for v in values if math.isfinite(v)]
        mean = statistics.fmean(finite) if finite else math.nan
        sd = statistics.stdev(finite) if len(finite) > 1 else 0.0
        infinite = f"  inf {len(values) - len(finite)}" if len(finite) < len(values) else ""
        print(f"  {name:<16} pinned {float(pinned[1][name]):12.4f}  "
              f"mean {mean:12.4f}  sd {sd:10.4f}{infinite}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quality-offsets", type=int, default=20,
                        help="held-out offsets of criteria 6-7's suite")
    parser.add_argument("--noise-offsets", type=int, default=10,
                        help="held-out offsets of criterion 8's suite")
    args = parser.parse_args(argv)
    quality = [quality_runs(k) for k in range(args.quality_offsets + 1)]
    for num, check in ((6, criterion_6), (7, criterion_7)):
        verdicts = [check(runs) for runs in quality]
        summarize(num, verdicts[0], verdicts[1:])
    verdicts = [criterion_8(noise_runs(k)) for k in range(args.noise_offsets + 1)]
    summarize(8, verdicts[0], verdicts[1:])


if __name__ == "__main__":
    main()
