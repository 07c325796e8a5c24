"""Regenerate ``digests.json``: the sweep's reference answers.

Each digest is the SHA-256 of the canonical ``stats_payload`` bytes of
one (app, design) result, computed by the frozen seed engine
(``SeedFrontendSimulator`` over ``seed_counterpart`` of the design's
BTB) -- an independent referee, not the engines under test.  The
sweep fails any run whose answer differs.  Regenerate only when the
simulated semantics change on purpose (``RESULT_VERSION`` bumps)::

    PYTHONPATH=src python3 perfbench/gen_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")

#: The sweep's apps and scale (``sweep.py`` reads them from the file).
APPS = ("server_oltp_00",)
SCALE = "default"
WARMUP = 0.3


def main() -> int:
    from repro.experiments.designs import design_registry
    from repro.experiments.diskcache import RESULT_VERSION
    from repro.frontend.seedref import SeedFrontendSimulator, seed_counterpart
    from repro.serve.protocol import stats_payload
    from repro.workloads.suite import get_trace

    digests: dict[str, dict[str, str]] = {}
    for app in APPS:
        trace = get_trace(app, SCALE)
        for name, design in design_registry().items():
            btb, kwargs = design.build()
            stats = SeedFrontendSimulator(seed_counterpart(btb), **kwargs).run(
                trace, warmup_fraction=WARMUP
            )
            digests.setdefault(app, {})[name] = hashlib.sha256(
                stats_payload(stats)
            ).hexdigest()
            print(f"{app} {name} {digests[app][name]}", file=sys.stderr)
    DIGESTS.write_text(json.dumps({
        "scale": SCALE,
        "warmup": WARMUP,
        "result_version": RESULT_VERSION,
        "digests": digests,
    }, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
