"""The repository benchmark: one command for every workload.

Run from the repository root::

    python3 repobench/run.py --workload fig1c_replay [--seed N]
        [--seconds S] [--trace 0|1]

Workloads: ``fig1c_replay`` and ``k32_storm`` (fluid engine replays,
:mod:`engine_load`) and ``service_storm`` (the recovery service under
open-loop load, :mod:`service_load`).  The seed makes the inputs; each
workload has a pinned default.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``; with ``--trace 1`` they are its ``per_layer`` list,
measured with wrappers around the program's layers, and every span is
written to ``.bench_traces/``.  A metric a workload does not exercise
reads 0.  Lines before the last carry the run's accounting (offered,
sent and failed counts, generator lateness) and any failed check.

The program itself is imported from ``src/`` next to this directory;
without it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    "fig1c_replay": 13,
    "k32_storm": 17,
    "service_storm": 0,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    program = ROOT / "src" / "repro" / "__init__.py"
    if not program.is_file() or not spec_path.is_file():
        print(f"error: no program under {ROOT / 'src'} to measure", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seed = WORKLOADS[args.workload] if args.seed is None else args.seed
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
    sys.path.insert(0, str(ROOT / "src"))

    from spans import Tracer

    tracer = Tracer() if args.trace else None
    if args.workload == "service_storm":
        import service_load

        outcome = service_load.run(seed, seconds, tracer, ROOT / ".bench_tmp")
    else:
        import engine_load

        expected = json.loads((HERE / "expected.json").read_text())[args.workload]
        outcome = engine_load.run(args.workload, seed, seconds, tracer, expected)
    problems, e2e, layers, attempted, failed, accounting = outcome

    if tracer is None:
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted, measured = spec["end_to_end"], e2e
    else:
        layers["ops_failed_frac"] = failed / attempted
        tracer.write(ROOT / ".bench_traces" / f"{args.workload}-{seed}.jsonl")
        wanted, measured = spec["per_layer"], layers
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in measured and tracer is None:
            problems.append(f"metric {name} was not measured")
        value = float(measured.get(name, 0.0))
        metrics[name] = {"value": value, "unit": metric["unit"]}

    accounting.update(attempted=attempted, failed=failed)
    print("accounting " + json.dumps(accounting, sort_keys=True))
    for problem in problems:
        print("check failed: " + problem)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
