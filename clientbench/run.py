"""End-to-end benchmark of the ``repro.connect`` client.

Usage, from the repository root::

    python3 clientbench/run.py --workload embedded-hot --seed 1 \\
        --seconds 15 --trace 0

``--workload`` is one of ``embedded-hot``, ``embedded-faults``,
``fleet-process-1cpu`` (see ``workloads.py`` for why each exists), or
``all`` to run the three in turn.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a traced run, the
tracing overhead against an untraced run, and writes the traced run's
spans under ``clientbench-out/``.  Every metric is printed by name with
its unit and kind (``metrics.py`` describes each); the last line of
standard output is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

Each measurement runs in a fresh child process, so one run's heap
cannot slow the next.  The exit code is 0 only if every operation
returned what the in-benchmark model of acknowledged writes predicts;
it is 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "clientbench-out"
#: a run must end within 180 s; leave room to report
BUDGET_S = 170.0
#: set-ups timed per run, each in a fresh process (median reported)
SETUP_SAMPLES = 3

sys.path.insert(0, str(HERE))
from metrics import END_TO_END, LAYERS, PER_LAYER, UNBOUNDED  # noqa: E402

WORKLOAD_NAMES = ("embedded-hot", "embedded-faults", "fleet-process-1cpu")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="time exactly this many ops instead of "
                             "--seconds (simulated metrics then repeat "
                             "exactly for a seed)")
    parser.add_argument("--keys", type=int, default=None,
                        help="preloaded keys (default 20000)")
    parser.add_argument("--plant-wrong-value", action="store_true",
                        help="write one key behind the oracle's back; "
                             "the run must then fail (oracle self-check)")
    parser.add_argument("--phase", choices=("measure", "setup"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=0,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import repro from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"repro was imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    keys = args.keys or workloads.KEY_COUNT
    if args.phase == "setup":
        result = {"setup_s": workloads.setup_time(workload, args.seed, keys)}
    else:
        result = workloads.measure(
            workload, args.seed, args.seconds, ops=args.ops, keys=keys,
            traced=bool(args.traced),
            plant_wrong_value=args.plant_wrong_value)
        tracer = result.pop("tracer", None)
        if tracer is not None:
            path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
            tracer.write(path)
            result["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


def run_child(args: argparse.Namespace, deadline: float,
              *extra: str) -> dict:
    """Run one phase in a fresh interpreter; returns its JSON result."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), *extra]
    if args.ops is not None:
        command += ["--ops", str(args.ops)]
    if args.keys is not None:
        command += ["--keys", str(args.keys)]
    if args.plant_wrong_value:
        command.append("--plant-wrong-value")
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise RuntimeError("time budget exhausted before " + " ".join(extra))
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=remaining, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(args: argparse.Namespace, deadline: float) -> dict:
    """Measure one workload; returns the report for it."""
    plain = run_child(args, deadline, "--phase", "measure")
    runs = [plain]
    report = {"metrics": {}, "samples": dict(plain["samples"])}
    if args.trace:
        traced = run_child(args, deadline, "--phase", "measure",
                           "--traced", "1")
        runs.append(traced)
        layers = dict(traced["layers"])
        untraced_rate = plain["metrics"]["ops_per_s"]
        overhead = untraced_rate - traced["metrics"]["ops_per_s"]
        layers["trace.overhead_ops_per_s"] = overhead
        layers["trace.overhead_share"] = overhead / untraced_rate
        for name in PER_LAYER:
            report["metrics"][name] = (layers[name] if name in LAYERS
                                       else plain["metrics"][name])
        report["spans_file"] = traced.get("spans_file")
    else:
        setups = [plain["metrics"]["setup_s"]]
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_child(args, deadline, "--phase",
                                    "setup")["setup_s"])
        report["samples"]["setup_s"] = len(setups)
        for name in END_TO_END:
            report["metrics"][name] = plain["metrics"][name]
        report["metrics"]["setup_s"] = statistics.median(setups)
        report["extra"] = {name: plain["metrics"][name]
                           for name in UNBOUNDED}
    report["correct"] = all(r["correct"] for r in runs)
    report["attempted"] = sum(r["attempted"] for r in runs)
    report["failed"] = sum(r["failed"] for r in runs)
    report["errors"] = [e for r in runs for e in r["errors"]]
    return report


def print_report(name: str, report: dict) -> None:
    catalogue = {**END_TO_END, **UNBOUNDED, **LAYERS}
    shown = {**report["metrics"], **report.get("extra", {})}
    for metric, value in shown.items():
        info = catalogue[metric]
        n = report["samples"].get(metric)
        count = f"  n={n}" if n is not None else ""
        print(f"{name:16} {metric:44} {value:14.4f} {info['unit']:7} "
              f"{info['kind']:5}{count}")
    if report.get("spans_file"):
        print(f"{name:16} spans written to {report['spans_file']}")
    for error in report["errors"]:
        print(f"{name:16} FAILED {error}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.phase:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    start = monotonic()
    reports = {}
    for name in names:
        args.workload = name
        try:
            reports[name] = run_workload(args, start + BUDGET_S * len(names))
        except (RuntimeError, subprocess.TimeoutExpired,
                json.JSONDecodeError, IndexError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print_report(name, reports[name])
    catalogue = {**END_TO_END, **PER_LAYER}
    metrics = {}
    for name, report in reports.items():
        prefix = "" if len(names) == 1 else name + "."
        for metric, value in report["metrics"].items():
            metrics[prefix + metric] = {"value": value,
                                        "unit": catalogue[metric]["unit"]}
    correct = all(r["correct"] for r in reports.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
