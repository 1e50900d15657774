"""sr2kit benchmark: time to epsilon, solve time and harness throughput on
three workloads, plus a separate traced run that splits the time by layer.

Run from the repository root:

    python3 bench/run.py --workload lasso-fullbatch --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

--workload is one of lasso-fullbatch, logistic-minibatch, harness-grid or
all. The report is printed to stdout; its last line is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. The exit code
is 0 whenever a result is printed, also when an output check failed.

End-to-end metrics (timings are medians; the report also gives the sample
count and the highest percentile with ten samples above it, else the max):
  setup_s        building the program's problem objects (power iteration
                 included; parse_config + build_problem for harness-grid),
                 repeated several times in the run
  solve_s        wall time of all the workload's solver runs, each to its
                 own stop; for harness-grid the --jobs 1 plus the --jobs 2
                 matrix run
  time_to_eps_s  wall time of the SR2 runs with max_iter = k_eps, the first
                 iteration whose audited objective gap is <= eps
  iters_to_eps   sum of k_eps over those runs
  epochs_to_eps  sum over those runs of the batch sizes of their first
                 k_eps iterations, divided by N
  peak_rss_mb    peak resident memory of this process plus its largest
                 child (the harness pool workers); with --workload all, the
                 peak so far in the process
"""

import os

# Pin BLAS to one thread before numpy loads; pool workers inherit this.
# Unpinned, OpenBLAS threads turn the timings into scheduler measurements.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# the harness lets this variable replace its seed list; inputs come from --seed
os.environ.pop("SR2KIT_SEED", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("time_to_eps_s", "s"),
    ("iters_to_eps", "count"),
    ("epochs_to_eps", "epochs"),
    ("peak_rss_mb", "MB"),
)

#: per-layer metrics of a traced run, each with the end-to-end metric it
#: should move and on which workload (what it should leave alone after ";").
#: Metrics of layers a workload does not reach read 0. Counts are exact and
#: repeat run to run: they tell fewer iterations apart from cheaper ones.
PER_LAYER = (
    ("problems.sampled_grad.calls", "count", "solve_s, time_to_eps_s on lasso"),
    ("problems.sampled_grad.self_s", "s", "solve_s, time_to_eps_s on lasso"),
    ("problems.sampled_value.calls", "count", "solve_s, time_to_eps_s on lasso"),
    ("problems.sampled_value.self_s", "s", "solve_s, time_to_eps_s on lasso"),
    ("problems.full_value.calls", "count", "solve_s, time_to_eps_s on lasso"),
    ("problems.full_value.self_s", "s", "solve_s, time_to_eps_s on lasso"),
    ("problems.draw_sample.calls", "count", "solve_s on logistic"),
    ("problems.draw_sample.self_s", "s", "solve_s on logistic; not lasso"),
    ("problems.margins.self_s", "s", "solve_s on harness (accuracy, prune sweep)"),
    ("problems.grad_data_passes", "passes",
     "solve_s on lasso (a) when g is cached across rejections; same count on "
     "logistic"),
    ("problems.value_data_passes", "passes",
     "solve_s on lasso (a) when F is cached across rejections; same count on "
     "logistic"),
    ("problems.self_s", "s", "solve_s, time_to_eps_s on lasso"),
    ("regularizers.shifted_prox.calls", "count", "-"),
    ("regularizers.shifted_prox.self_s", "s", "- (<=10% everywhere; L0 only on "
     "harness)"),
    ("regularizers.reg_value.calls", "count", "-"),
    ("regularizers.reg_value.self_s", "s", "-"),
    ("regularizers.self_s", "s", "-"),
    ("sr2.iterations", "count", "iters_to_eps; with accept_ratio, fewer vs "
     "cheaper iterations"),
    ("sr2.sr2_step.self_s", "s", "solve_s on logistic"),
    ("sr2.run.self_s", "s", "solve_s on logistic"),
    ("sr2.self_s", "s", "solve_s on logistic"),
    ("sr2.iter_us", "us", "solve_s on logistic and lasso"),
    ("sr2.accept_ratio", "ratio", "iters_to_eps, epochs_to_eps"),
    ("sr2.zero_step_iters", "count", "solve_s on lasso; time_to_eps_s"),
    ("sr2.sigma_nonfinite_iters", "count", "solve_s on lasso; time_to_eps_s"),
    ("baselines.step.calls", "count", "-"),
    ("baselines.step.self_s", "s", "solve_s on logistic, solve_s on harness"),
    ("baselines.run.self_s", "s", "solve_s on logistic, solve_s on harness"),
    ("baselines.self_s", "s", "solve_s on logistic, solve_s on harness"),
    ("baselines.iter_us", "us", "solve_s on logistic, solve_s on harness"),
    ("diagnostics.accuracy.self_s", "s", "solve_s on harness; 0 on solver "
     "workloads"),
    ("diagnostics.prune.self_s", "s", "solve_s on harness; 0 on solver "
     "workloads"),
    ("diagnostics.sparsity_report.self_s", "s", "solve_s on harness; 0 on "
     "solver workloads"),
    ("diagnostics.self_s", "s", "solve_s on harness; 0 on solver workloads"),
    ("harness.parse_config.self_s", "s", "setup_s on harness"),
    ("harness.build_problem.self_s", "s", "setup_s and solve_s on harness"),
    ("harness.run_experiments.self_s", "s", "solve_s on harness"),
    ("harness.write_trace_csv.self_s", "s", "solve_s on harness (cells/s at "
     "--jobs 1)"),
    ("harness.emit_plot_data.self_s", "s", "solve_s on harness (cells/s at "
     "--jobs 1)"),
    ("harness.save_model.self_s", "s", "solve_s on harness (cells/s at "
     "--jobs 1)"),
    ("harness.self_s", "s", "solve_s on harness"),
    ("harness.output_bytes", "bytes", "solve_s on harness (cells/s at --jobs 1)"),
    ("harness.cell_payload_bytes", "bytes", "cells/s at --jobs 2 only; not "
     "cells/s at --jobs 1"),
    ("harness.pool_overhead_s", "s", "cells/s at --jobs 2 only; not cells/s "
     "at --jobs 1"),
    ("harness.parallel_efficiency", "ratio", "cells/s at --jobs 2 only; not "
     "cells/s at --jobs 1"),
    ("harness.cells_per_s.jobs1", "1/s", "solve_s on harness"),
    ("harness.cells_per_s.jobs2", "1/s", "solve_s on harness"),
    ("cli.self_s", "s", "-"),
    ("traced_wall_s", "s", "-"),
    ("untraced_wall_s", "s", "-"),
    ("trace_overhead_pct", "%", "-"),
    ("unattributed_s", "s", "-"),
)

SETUP_MIN_REPS = 7
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 200


def say(line):
    print(line, flush=True)


def describe(samples):
    """'median of n, <high percentile>' for a list of timings."""
    n = len(samples)
    ordered = sorted(samples)
    if n > 10:
        pct = 100 * (n - 10) // n
        high = f"p{pct} {ordered[n - 11]:.4g}"
    else:
        high = f"max {ordered[-1]:.4g}"
    return f"median of {n}, {high}"


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ["OPENBLAS_NUM_THREADS"]
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas['name']} {blas['version']} pinned to {threads} thread, "
            f"nproc {os.cpu_count()}")


def time_setup(workload):
    samples = []
    start = time.perf_counter()
    while len(samples) < SETUP_MIN_REPS or (
            time.perf_counter() - start < SETUP_MIN_SECONDS
            and len(samples) < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        workload.setup()
        samples.append(time.perf_counter() - t0)
    return samples


def run_pass(workload, ops, names):
    parts = workload.parts()
    times, results = {}, {}
    for name in names:
        times[name], results[name] = parts[name](ops)
    return times, results


def repeat(seconds, one):
    """Call one() until another call would end past `seconds`; at least once."""
    outs = []
    start = time.perf_counter()
    while True:
        outs.append(one())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(outs) > seconds:
            return outs


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def harness_rates(workload, times):
    from workloads import HARNESS_CELLS

    cells = len(HARNESS_CELLS)
    return cells / times["jobs1"], cells / times["jobs2"]


def end_to_end(workload, ops, seconds, setup_samples):
    names = list(workload.parts())
    passes = repeat(seconds, lambda: run_pass(workload, ops, names)[0])
    samples = {
        "solve_s": [sum(p[n] for n in workload.solve_parts) for p in passes],
        "time_to_eps_s": [p["tte"] for p in passes],
    }
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "solve_s": statistics.median(samples["solve_s"]),
        "time_to_eps_s": statistics.median(samples["time_to_eps_s"]),
        "iters_to_eps": sum(k for k, _ in workload.k_eps),
        "epochs_to_eps": sum(e for _, e in workload.k_eps),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": describe(setup_samples),
        "solve_s": describe(samples["solve_s"]),
        "time_to_eps_s": describe(samples["time_to_eps_s"]),
        "iters_to_eps": f"sum over {len(workload.k_eps)} SR2 runs",
        "epochs_to_eps": f"sum over {len(workload.k_eps)} SR2 runs",
        "peak_rss_mb": "this process + its largest child",
    }
    for name, unit in END_TO_END:
        say(f"  {name:<24s} {metrics[name]:>12.6g} {unit:<7s} {notes[name]}")
    if "jobs1" in names:
        rates = [harness_rates(workload, p) for p in passes]
        for j, label in enumerate(("cells_per_s.jobs1", "cells_per_s.jobs2")):
            values = [r[j] for r in rates]
            say(f"  {label:<24s} {statistics.median(values):>12.6g} {'1/s':<7s} "
                f"{describe(values)} (within solve_s)")
    return metrics


def per_layer(workload, ops, seconds):
    from tracer import LAYERS, Tracer

    names = list(workload.parts())
    traced = list(workload.traced_parts)

    pairs = []

    def pair():
        # alternate which pass goes first so drift does not bias the overhead;
        # the first pass is untraced, as lasso-fullbatch audits it
        tracer = Tracer()
        for traced_turn in ((False, True) if len(pairs) % 2 == 0 else (True, False)):
            if traced_turn:
                with tracer:
                    traced_times, results = run_pass(workload, ops, traced)
            else:
                plain_times, _ = run_pass(workload, ops, names)
        pairs.append((plain_times, traced_times, layer_metrics(
            workload, tracer, traced_times, plain_times, results, LAYERS)))

    repeat(seconds, pair)
    metrics = {}
    for name, _, _ in PER_LAYER:
        metrics[name] = statistics.median(p[2][name] for p in pairs)
    closure = max(abs(sum(m[f"{layer}.self_s"] for layer in LAYERS)
                      + m["unattributed_s"] - m["traced_wall_s"]) for _, _, m in pairs)
    for name, unit, moves in PER_LAYER:
        say(f"  {name:<36s} {metrics[name]:>14.6g} {unit:<6s} moves: {moves}")
    say(f"  medians of {len(pairs)} traced passes; in each pass |sum of layer "
        f"self times + unattributed_s - traced_wall_s| <= {closure:.1e} s")
    return metrics


def layer_metrics(workload, tracer, traced_times, plain_times, results, layers):
    self_s, incl_s, calls, top_s = tracer.summary()
    m = {}
    for span in ("problems.sampled_grad", "problems.sampled_value",
                 "problems.full_value", "problems.draw_sample",
                 "regularizers.shifted_prox", "regularizers.reg_value",
                 "baselines.step"):
        m[f"{span}.calls"] = calls[span]
    for span in ("problems.sampled_grad", "problems.sampled_value",
                 "problems.full_value", "problems.draw_sample", "problems.margins",
                 "regularizers.shifted_prox", "regularizers.reg_value",
                 "sr2.sr2_step", "sr2.run", "baselines.step", "baselines.run",
                 "diagnostics.accuracy", "diagnostics.prune",
                 "diagnostics.sparsity_report", "harness.parse_config",
                 "harness.build_problem", "harness.run_experiments",
                 "harness.write_trace_csv", "harness.emit_plot_data",
                 "harness.save_model"):
        m[f"{span}.self_s"] = self_s[span]
    layer_self = defaultdict(float)
    for span, seconds in self_s.items():
        layer_self[span.split(".", 1)[0]] += seconds
    for layer in layers:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["problems.grad_data_passes"] = tracer.counts["problems.grad_data_passes"]
    m["problems.value_data_passes"] = tracer.counts["problems.value_data_passes"]

    stats = workload.sr2_stats(results)
    iters = stats["iterations"]
    m["sr2.iterations"] = iters
    m["sr2.iter_us"] = 1e6 * incl_s["sr2.run"] / iters if iters else 0.0
    m["sr2.accept_ratio"] = stats["accepted"] / iters if iters else 0.0
    m["sr2.zero_step_iters"] = stats["zero_step_iters"]
    m["sr2.sigma_nonfinite_iters"] = stats["sigma_nonfinite_iters"]
    steps = calls["baselines.step"]
    m["baselines.iter_us"] = 1e6 * incl_s["baselines.run"] / steps if steps else 0.0

    traced_wall = sum(traced_times.values())
    plain_wall = sum(plain_times[name] for name in traced_times)
    m["traced_wall_s"] = traced_wall
    m["untraced_wall_s"] = plain_wall
    m["trace_overhead_pct"] = 100.0 * (traced_wall - plain_wall) / plain_wall
    m["unattributed_s"] = traced_wall - top_s

    harness_keys = ("harness.output_bytes", "harness.cell_payload_bytes",
                    "harness.pool_overhead_s", "harness.parallel_efficiency",
                    "harness.cells_per_s.jobs1", "harness.cells_per_s.jobs2")
    m.update(dict.fromkeys(harness_keys, 0.0))
    if "jobs1" in plain_times:
        rate1, rate2 = harness_rates(workload, plain_times)
        m["harness.output_bytes"] = workload.output_bytes()
        m["harness.cell_payload_bytes"] = workload.cell_payload_bytes
        m["harness.pool_overhead_s"] = plain_times["jobs2"] - plain_times["jobs1"] / 2
        m["harness.parallel_efficiency"] = rate2 / (2.0 * rate1)
        m["harness.cells_per_s.jobs1"] = rate1
        m["harness.cells_per_s.jobs2"] = rate2
    return m


def run_workload(name, seed, seconds, trace):
    from workloads import WORKLOADS, Ops

    workload = WORKLOADS[name](seed, str(WORKDIR))
    ops = Ops()
    try:
        say(f"== {name}  seed={seed}  seconds={seconds}  trace={trace}")
        say(f"env: {environment()}")
        setup_samples = time_setup(workload)
        workload.audit(ops)
        if trace:
            metrics = per_layer(workload, ops, seconds)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics = end_to_end(workload, ops, seconds, setup_samples)
            units = dict(END_TO_END)
    finally:
        workload.close()
    for line in workload.info:
        say(f"  {line}")
    for label, ok, detail in workload.checks:
        if not ok:
            say(f"  CHECK FAILED {label} {detail}")
    for failure in ops.failures:
        say(f"  FAILED {failure}")
    checks_ok = all(ok for _, ok, _ in workload.checks)
    say(f"  checks: {sum(ok for _, ok, _ in workload.checks)}/"
        f"{len(workload.checks)} passed; error_rate = {ops.failed}/{ops.attempted}"
        f" = {ops.failed / ops.attempted:.4g}")
    return {
        "correct": checks_ok and ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("lasso-fullbatch", "logistic-minibatch",
                                 "harness-grid", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sr2kit" / "__init__.py").is_file():
        print(f"bench: sr2kit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = (("lasso-fullbatch", "logistic-minibatch", "harness-grid")
             if args.workload == "all" else (args.workload,))
    results = {name: run_workload(name, args.seed, args.seconds, args.trace)
               for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    try:
        WORKDIR.rmdir()
    except OSError:  # absent, or left non-empty by a failed run
        pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
