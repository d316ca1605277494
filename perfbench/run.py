"""ACORN path benchmark: cold configure, campus timeline replay, open-loop serving.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload configure --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each run derives its inputs from ``--seed``, measures for about
``--seconds`` seconds, checks the program's outputs and prints, as its
last line, one JSON object: the end-to-end metrics with ``--trace 0``,
the per-layer ledger with ``--trace 1``. ``--workload all`` runs the
three workloads one after another, each in its own process, and ends
with every path metric by name. The exit code is 0 only when every
check passed. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("configure", "timeline", "serve")
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "unit_ms": "ms",
    "rate_per_s": "1/s",
}
# Set-up imports the stack the three paths use and builds one model, so
# work moved to import or model construction shows in setup_s.
IMPORT_PROGRAM = (
    "import importlib, time\n"
    "t0 = time.perf_counter()\n"
    "for name in ('repro.net', 'repro.core.controller', 'repro.sim.scenario',\n"
    "             'repro.sim.timeline', 'repro.service'):\n"
    "    importlib.import_module(name)\n"
    "importlib.import_module('repro.net').ThroughputModel()\n"
    "elapsed = time.perf_counter() - t0\n"
)
IMPORT_REPEATS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> float:
    """Import the program in this process; return the seconds it took."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    namespace: dict = {}
    exec(IMPORT_PROGRAM, namespace)
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported {repro.__file__}, not the checkout's sources")
    return namespace["elapsed"]


def import_in_fresh_process() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROGRAM + "print(elapsed)\n"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    """Every workload in its own process, then every path metric by name."""
    named, correct, attempted, failed = {}, True, 0, 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0, "failed": 0}
        correct = correct and done.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for line in lines:
            if line.startswith("path-metrics "):
                for name, entry in json.loads(line[len("path-metrics "):]).items():
                    named[name if name.startswith(WORKLOADS) else f"{workload}.{name}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": named}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    in_process_import_s = import_program()
    if args.workload == "all":
        return run_all(args)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    from calibrate import Calibrated

    # Import times at reference host speed, like the closed-loop units.
    import_s = Calibrated()
    import_s.add(in_process_import_s)
    for _ in range(IMPORT_REPEATS):
        import_s.add(import_in_fresh_process())

    from ledger import print_layer_table
    from serve import run_serve
    from workloads import PER_LAYER, layer_unit, run_configure, run_timeline_workload

    runner = {"configure": run_configure, "timeline": run_timeline_workload, "serve": run_serve}
    outcome = runner[args.workload](args.seed, args.seconds, bool(args.trace))
    setup_s = import_s.median() + outcome.setup_build_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    path_metrics = {
        "setup_s": {"value": setup_s, "unit": "s", "samples": len(import_s.scaled)},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "samples": 1},
    }
    for name, value, unit, samples in outcome.named:
        path_metrics[name] = {"value": value, "unit": unit, "samples": samples}
    print(f"{args.workload} seed {args.seed}: {outcome.attempted} attempted, {outcome.failed} failed")
    for name, entry in path_metrics.items():
        print(f"  {name:<28}{entry['value']:>14.4f} {entry['unit']:<5} n={entry['samples']}")
    print("path-metrics " + json.dumps(path_metrics))
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        print_layer_table(args.workload, outcome.layer_table, outcome.traced_wall_s)
        artifact = HERE / "results" / f"trace-{args.workload}-seed{args.seed}.json"
        outcome.ledger.write(artifact, {"workload": args.workload, "seed": args.seed})
        print(f"spans written to {artifact.relative_to(ROOT)}")
        metrics = {
            name: {"value": outcome.layers[name], "unit": layer_unit(name)} for name in PER_LAYER
        }
    else:
        values = dict(outcome.e2e, setup_s=setup_s, peak_rss_mb=peak_rss_mb)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
