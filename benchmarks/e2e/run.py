"""End-to-end benchmark: one command per workload.

    python3 benchmarks/e2e/run.py --workload <name> [--seed N]
        [--seconds S] [--trace 0|1] [--out DIR]
    python3 benchmarks/e2e/run.py --check-repeat --workload <name>
    python3 benchmarks/e2e/run.py --selftest

A run repeats a fixed-size *pass* — fresh stack, timed set-up, the
measured rounds, then the correctness checks — until ``--seconds`` of
measured host time have accumulated.  Sizes are record and query counts,
never durations, and every pass of a run gets the same seeded inputs, so
counts and sim figures repeat bit for bit (a pass that disagrees with
the first is a failure) while host figures are medians over rounds and
passes.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the library is used from source: nothing is installed
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.common.context import ExecutionContext, use_context  # noqa: E402

import metrics  # noqa: E402
from ingest import IngestTenants  # noqa: E402
from pipeline import PipelineMixed  # noqa: E402
from queries import QueryCold, QueryWarm  # noqa: E402
from trace import NullTracer, Tracer  # noqa: E402

WORKLOADS = {cls.name: cls for cls in (IngestTenants, PipelineMixed,
                                       QueryCold, QueryWarm)}
SELFTEST_SCALE = 1 / 50


def load_spec() -> dict:
    """The contract with the PR driver, at the repository root."""
    return json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


class Run:
    """Everything one invocation measured."""

    def __init__(self, workload, seconds: float, traced: bool,
                 passes: int | None = None) -> None:
        self.workload = workload
        self.traced = traced
        self.setups: list[float] = []
        self.untraced: list = []
        self.traced_passes: list = []
        self.tracer: Tracer | None = None
        self.extras: dict[str, float] = {}
        #: failures beyond the first pass's own: later passes' problems,
        #: passes that disagree, a malformed span tree
        self.problems: list[str] = []
        started = time.perf_counter()
        self.data = workload.make_inputs()
        self.inputs_host_s = time.perf_counter() - started
        self.peak_rss_mb = 0.0
        measured = 0.0
        count = 0
        # --trace 1 needs one pass of each kind; otherwise time decides
        least = passes if passes is not None else (2 if traced else 1)
        while count < least or (passes is None and measured < seconds):
            result = self._one_pass(trace_this=traced and count % 2 == 1)
            measured += result.pass_host_s
            count += 1

    def _one_pass(self, trace_this: bool):
        workload = self.workload
        context = ExecutionContext(name=f"{workload.name}-pass")
        tracer = Tracer() if trace_this else NullTracer()
        gc.collect()
        with use_context(context):
            started = time.perf_counter()
            state = workload.setup(self.data, context)
            self.setups.append(time.perf_counter() - started)
            if trace_this:
                tracer.install()
            try:
                result = workload.run_pass(self.data, state, tracer)
            finally:
                if trace_this:
                    tracer.restore()
            if not self.peak_rss_mb:
                # the first pass's high-water mark: a fixed amount of work,
                # read before any reference database exists
                self.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            wrong = workload.verify(self.data, state, result)
            result.problems += wrong
            result.failed += len(wrong)
            result.pending = None
            self.extras.setdefault("train_host_s",
                                   state.get("train_host_s", 0.0))
            if trace_this and self.tracer is None:
                if hasattr(workload, "parallel_probe"):
                    self.extras.update(
                        workload.parallel_probe(self.data, state))
        if not self.untraced and not trace_this:
            self.untraced.append(result)
            return result  # its own problems are in its ``failed``
        self.problems += result.problems
        self.problems += [
            f"pass disagrees with the first: {issue}"
            for issue in metrics.disagreements(self.first, result)]
        if not trace_this:
            self.untraced.append(result)
            return result
        self.traced_passes.append(result)
        if self.tracer is None:
            self.tracer = tracer  # later traced passes only time rounds
            self.problems += [f"span tree: {issue}"
                              for issue in tracer.malformed()]
        return result

    # --- reporting ----------------------------------------------------------

    @property
    def first(self):
        return self.untraced[0]

    def values(self) -> dict[str, float]:
        if self.traced:
            return metrics.per_layer(self.untraced, self.traced_passes,
                                     self.tracer, self.extras)
        return metrics.end_to_end(self.setups, self.untraced,
                                  self.peak_rss_mb)

    def result(self, values: dict[str, float]) -> dict:
        specs = metrics.PER_LAYER if self.traced else metrics.END_TO_END
        failed = self.first.failed + len(self.problems)
        return {
            "correct": failed == 0,
            "attempted": max(1, self.first.attempted),
            "failed": failed,
            "metrics": {spec.name: {"value": values[spec.name],
                                    "unit": spec.unit} for spec in specs},
        }

    def describe(self, values: dict[str, float]) -> None:
        workload, first = self.workload, self.first
        specs = metrics.PER_LAYER if self.traced else metrics.END_TO_END
        print(f"workload {workload.name}  seed {workload.seed}  "
              f"nproc {os.cpu_count()}  passes {len(self.setups)} "
              f"({len(self.untraced)} untraced)  "
              f"rounds/pass {len(first.round_host_s)}")
        print("frozen sizes: " + ", ".join(
            f"{name}={value}" for name, value in workload.sizes.items()))
        print(f"inputs_sha256 {self.data['sha256']}")
        print(f"state_sha256  {first.state_sha256}")
        print(f"input generation {self.inputs_host_s:.3f} s host "
              "(benchmark's own, outside setup_s)")
        width = max(len(spec.name) for spec in specs)
        for spec in specs:
            print(f"  {spec.name:<{width}}  {values[spec.name]:>16.6f}  "
                  f"{spec.unit:<7} {spec.currency:<5} "
                  f"{spec.better} is better")
        for issue in (first.problems + self.problems)[:20]:
            print(f"PROBLEM: {issue}")


def run_command(args) -> int:
    workload = WORKLOADS[args.workload](args.seed)
    run = Run(workload, args.seconds, traced=bool(args.trace))
    values = run.values()
    run.describe(values)
    result = run.result(values)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if run.tracer is not None:
            run.tracer.dump(out / f"trace_{workload.name}.json")
        runs_path = out / "runs.json"
        runs = json.loads(runs_path.read_text()) if runs_path.exists() else []
        runs.append({"workload": workload.name, "seed": args.seed,
                     "trace": args.trace, **result,
                     "facts": run.first.facts,
                     "inputs_sha256": run.data["sha256"],
                     "state_sha256": run.first.state_sha256})
        runs_path.write_text(json.dumps(runs, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def check_repeat(args) -> int:
    """One workload twice on one seed: every count, every sim figure and
    both hashes must be identical."""
    runs = [Run(WORKLOADS[args.workload](args.seed), 0.0, traced=False,
                passes=1) for _ in range(2)]
    issues = metrics.disagreements(runs[0].first, runs[1].first)
    if runs[0].data["sha256"] != runs[1].data["sha256"]:
        issues.append("inputs_sha256 differs")
    for run in runs:
        issues += run.first.problems + run.problems
    for issue in issues:
        print(f"PROBLEM: {issue}")
    print(f"check-repeat {args.workload} seed {args.seed}: "
          f"{len(runs[0].first.facts)} facts, inputs {runs[0].data['sha256'][:12]}"
          f", state {runs[0].first.state_sha256[:12]}: "
          + ("identical" if not issues else "DIFFERENT"))
    return 1 if issues else 0


def selftest() -> int:
    """Every workload at 1/50 size: every declared metric emitted once
    with its unit, traced and untraced counts agree, span tree sound."""
    issues: list[str] = []
    spec = load_spec()
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if set(WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        issues.append("BENCHMARK.json workloads differ from run.py's")
    for name, cls in WORKLOADS.items():
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            run = Run(cls(1, SELFTEST_SCALE), 0.0, traced=traced,
                      passes=2)
            result = run.result(run.values())
            emitted = {metric: value["unit"] for metric, value
                       in result["metrics"].items()}
            if emitted != declared[key]:
                issues.append(
                    f"{name}: {key} metrics differ from BENCHMARK.json: "
                    f"{sorted(set(emitted) ^ set(declared[key]))}")
            issues += [f"{name}: {issue}"
                       for issue in run.first.problems + run.problems]
            if not result["correct"]:
                issues.append(f"{name}: run not correct")
        print(f"selftest {name}: ok" if not issues else
              f"selftest {name}: {len(issues)} issue(s) so far")
    for issue in issues:
        print(f"PROBLEM: {issue}")
    return 1 if issues else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(load_spec()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--out", help="directory for trace_<workload>.json "
                        "and the runs.json that compare.py reads")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.check_repeat:
        return check_repeat(args)
    return run_command(args)


if __name__ == "__main__":
    sys.exit(main())
