"""Regenerate the reference digests the benchmark checks outputs against.

For every cell of the full and the shrunken grid of each grid workload
(serve_mixed's pre-warm cells are fig5_models cells), this evaluates
the ISS, MESH and analytical estimators in-process without a store and
records each queueing-cycle count as a hex float::

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter simulated results; the
digests are what proves every other change leaves them bit-identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main() -> int:
    common.require_source()
    from repro.engine.session import ESTIMATORS, ExecutionSession
    from repro.scenario.spec import ScenarioSpec

    session = ExecutionSession()
    builders = {"fig5_models": common.fig5_docs,
                "explore_mesh": common.pareto_docs}
    common.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, build in builders.items():
        cells = {}
        for doc in build(quick=False) + build(quick=True):
            spec = ScenarioSpec.from_dict(doc)
            comparison = session.comparison(spec, include=ESTIMATORS)
            cells[spec.spec_hash()] = {
                est: float(comparison.queueing(est)).hex()
                for est in ESTIMATORS}
        path = common.reference_path(workload)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": workload, "cells": cells}, handle,
                      indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path} ({len(cells)} cells)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
