"""Shared pieces of the end-to-end benchmark: inputs, metrics, statistics.

Everything the harness (``run.py``) and its worker processes
(``grid.py``) must agree on lives here: where the package source is,
how a workload's inputs are generated from the benchmark seed, the
reference digests, and the small statistics helpers every metric is
reported with.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
#: Scratch stores and spec files of a run (removed when it ends).
WORK_DIR = ROOT / ".perfbench_work"
#: Run records and the traced runs' spans (kept).
OUT_DIR = ROOT / ".perfbench_out"

GRID_WORKLOADS = ("fig5_models", "explore_mesh")
WORKLOADS = GRID_WORKLOADS + ("serve_mixed",)

#: The standing ``fig5`` grid's workload seeds (``repro sweep --grid
#: fig5``).  Fixed rather than drawn from the benchmark seed: the mean
#: MESH error over one seed triple varies by a quartile spread of 25-63%
#: of its median across triples, so a seed-drawn grid could not hold any
#: bound on ``mesh_err_pct``.  The benchmark seed instead orders the
#: grid, seeds the shard plan, and draws serve_mixed's never-seen specs.
FIG5_SEEDS = (1, 2, 3)
FIG5_BUS_DELAYS = (2, 4, 6, 8, 10, 12, 16, 20)
#: Contention models of fig5_models; ``None`` is the kernel default
#: (Chen-Lin), whose cells are the Fig. 5 accuracy claim.
FIG5_MODELS = (None, "mm1", "md1", "constant")


def require_source() -> None:
    """Make the package importable, or exit non-zero without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: package source not found under "
                         f"{SRC}; run from the repository root\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """This process's environment with the package source importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- inputs ------------------------------------------------------------

def fig5_docs(quick: bool = False, models=FIG5_MODELS) -> List[Dict]:
    """Spec documents of the Fig. 5 grid under each contention model."""
    from repro.experiments.fig5 import fig5_specs

    delays = (4, 12) if quick else FIG5_BUS_DELAYS
    seeds = FIG5_SEEDS[:1] if quick else FIG5_SEEDS
    if quick:
        models = models[:2]
    return [spec.to_dict()
            for model in models for seed in seeds
            for spec in fig5_specs(bus_delays=delays, seed=seed,
                                   model=model)]


def pareto_docs(quick: bool = False) -> List[Dict]:
    """Spec documents of the FFT design-space grid explore_mesh sweeps."""
    from repro.sweepfabric.grids import pareto_grid

    if quick:
        specs = pareto_grid(points=256, procs=(2, 4), bus_delays=(2, 8))
    else:
        specs = pareto_grid(points=1024, procs=(2, 4, 8, 16),
                            bus_delays=(2, 3, 4, 6, 8, 12))
    return [spec.to_dict() for spec in specs]


def grid_inputs(workload: str, seed: int, quick: bool = False) -> Dict:
    """A grid workload's inputs: seed-ordered spec documents + include."""
    if workload == "fig5_models":
        docs, include = fig5_docs(quick), ["iss", "mesh", "analytical"]
    elif workload == "explore_mesh":
        docs, include = pareto_docs(quick), ["mesh"]
    else:
        raise ValueError(f"not a grid workload: {workload}")
    random.Random(seed).shuffle(docs)
    return {"workload": workload, "seed": seed, "include": include,
            "specs": docs}


def fresh_uniform_doc(spec_seed: int) -> Dict:
    """A never-seen serve_mixed spec (the service load generator's shape)."""
    return {"generator": "uniform",
            "params": {"threads": 4, "phases": 20, "accesses": 200,
                       "seed": spec_seed}}


# -- reference digests ---------------------------------------------------

def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> Dict[str, Dict[str, float]]:
    """spec_hash -> estimator -> queueing cycles, from the stored digest."""
    with open(reference_path(workload), "r", encoding="utf-8") as handle:
        cells = json.load(handle)["cells"]
    return {spec_hash: {est: float.fromhex(value)
                        for est, value in runs.items()}
            for spec_hash, runs in cells.items()}


def digest_mismatches(reference: Dict[str, Dict[str, float]],
                      spec_hash: str,
                      runs: Dict[str, float]) -> List[str]:
    """Estimators of one cell whose queueing differs from the digest."""
    expected = reference.get(spec_hash)
    if expected is None:
        return [f"{spec_hash[:12]}: not in the reference digest"]
    return [f"{spec_hash[:12]} {est}: {value!r} != {expected[est]!r}"
            for est, value in runs.items() if value != expected.get(est)]


def mean_mesh_error(cells: Sequence[Dict[str, float]]) -> float:
    """Mean |MESH - ISS| / ISS in percent over cells with both runs."""
    errors = [100.0 * abs(runs["mesh"] - runs["iss"]) / abs(runs["iss"])
              for runs in cells if runs.get("iss")]
    return statistics.fmean(errors) if errors else float("nan")


# -- host-speed calibration ------------------------------------------------

#: Seconds one ``calibrate()`` call takes on the reference host at its
#: usual speed.  A fixed constant of the benchmark: a host metric is
#: scaled by the measured time over this (``slowdown``), so it reads as
#: the value at the reference host's speed (README.md, "Noise").
CALIBRATION_REF_S = 1.2e-3


def _calibration_text() -> str:
    """Fixed JSON documents shaped like run-store payloads (the
    benchmark's own data: no program output goes into them)."""
    rng = random.Random(20260)
    docs = []
    for i in range(16):
        threads = [{"thread": t, "busy_cycles": rng.randrange(10 ** 6),
                    "regions": rng.randrange(500),
                    "penalties": [rng.random() * 100 for _ in range(12)],
                    "resource": "bus"}
                   for t in range(4)]
        docs.append({"spec_hash": "%064x" % rng.getrandbits(256),
                     "estimator": ("iss", "mesh", "analytical")[i % 3],
                     "queueing_cycles": rng.random() * 10 ** 5,
                     "percent_queueing": rng.random() * 100,
                     "wall_seconds": rng.random(),
                     "detail": {"makespan": rng.random() * 10 ** 6,
                                "threads": threads}})
    return json.dumps(docs)


_CALIBRATION_TEXT = _calibration_text()


def calibrate() -> float:
    """Seconds of one JSON round trip of the fixed documents.

    The workloads spend their host time building and walking small
    Python objects (dicts, lists, floats, strings); so does this call,
    and it slows down and speeds up with them as the host's speed
    changes.  Run it in the measuring process, next to the work it
    calibrates."""
    start = time.perf_counter()
    json.dumps(json.loads(_CALIBRATION_TEXT))
    return time.perf_counter() - start


#: Seconds ``calibrate_files`` takes on the reference host at its usual
#: speed (a fixed constant, like ``CALIBRATION_REF_S``).
CALIBRATION_FILES_REF_S = 2.0e-3


def calibrate_files(directory: Path) -> float:
    """Seconds of one round of small-file work in ``directory``: one of
    the fixed documents written to a temp file and renamed over
    another, a scan of the directory, and every document read back and
    parsed.

    A warm pass over the run store does the same kind of work (store
    reads, a manifest rewrite, directory scans), whose speed on the
    host moves apart from that of ``calibrate``'s object work, so warm
    passes are calibrated by both."""
    docs = json.loads(_CALIBRATION_TEXT)[:8]
    if not directory.is_dir():
        directory.mkdir(parents=True)
        for i, doc in enumerate(docs):
            (directory / f"doc{i}.json").write_text(json.dumps(doc),
                                                    encoding="utf-8")
    start = time.perf_counter()
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(docs[0]))
    os.replace(tmp, directory / "doc0.json")
    for entry in os.scandir(directory):
        with open(entry.path, "r", encoding="utf-8") as handle:
            json.loads(handle.read())
    return time.perf_counter() - start


def slowdown(seconds: float) -> float:
    """How many times slower than the reference host a calibration
    ran: 1.0 at the reference speed, 1.3 when the host is 30% slower.
    A rate times this, or a time divided by it, reads as the value at
    the reference speed."""
    return seconds / CALIBRATION_REF_S


def median_slowdown(calls: int = 3) -> float:
    """``slowdown`` of the median of a few back-to-back calibrations."""
    return slowdown(statistics.median(calibrate() for _ in range(calls)))


# -- statistics ----------------------------------------------------------

def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of a sample (quartiles per
    ``statistics.quantiles(n=4)``; a single value is its own quartiles)."""
    values = [float(v) for v in values]
    if not values:
        return {"median": float("nan"), "q1": float("nan"),
                "q3": float("nan"), "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of an unsorted sample."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]
