"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {sweep,serve-warm,serve-mixed} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: it simulates with the checkout's own
``src/``.  It prints every metric by name with its unit and sample
count, then, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer breakdown of a separate traced run.  ``failed`` counts
operations that failed, were refused (429/503) or answered wrongly;
``error_ratio`` is ``failed / attempted``.  README.md says what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    END_TO_END, PER_LAYER, SRC, WORKLOADS, BenchError, Outcome,
)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    if workload == "sweep":
        import sweep

        return sweep.run(seed, seconds, traced)
    import serve

    return serve.run(workload, seed, seconds, traced)


def report(outcome: Outcome, traced: bool) -> dict:
    """Print every figure for humans; return the result line."""
    schema = PER_LAYER if traced else END_TO_END
    missing = [name for name, _ in schema if name not in outcome.metrics]
    if missing:
        raise BenchError(f"workload did not measure {missing}")
    failed = len(outcome.failed)
    for name, unit in schema:
        samples = outcome.samples.get(name)
        count = f"  (n={samples})" if samples is not None else ""
        print(f"{name:34s} {outcome.metrics[name]:14.6g} {unit}{count}")
    for name, (value, unit, samples) in sorted(outcome.extra.items()):
        print(f"{name:34s} {value:14.6g} {unit}  (n={samples})")
    print(f"{'error_ratio':34s} {failed / outcome.attempted:14.6g} ratio"
          f"  ({failed} of {outcome.attempted})")
    return {
        "correct": failed == 0 and outcome.clean,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in schema
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        result = report(outcome, bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
