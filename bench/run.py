"""maxcone benchmark: one workload per run, one op at a time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics (tracing off); --trace 1 runs the
workload again with every layer's public functions wrapped and prints the
per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Workloads are described in
workloads.py and in BENCHMARK.json.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import SpanStats, Tracer  # noqa: E402
from workloads import ACCURACY_FAILED, ACCURACY_FLOOR, WORKLOADS, Outcome  # noqa: E402

# setup_s is the median of cold set-ups, each in a fresh interpreter started
# one at a time, timed from process start until the child reports its inputs
# ready: this many before the ops and as many after them, so that the median
# does not rest on the host's speed at a single moment.
SETUP_REPS = 4
MODULES = ("errors", "params", "core", "integrate", "singular", "catalog", "mesh", "minimal", "report", "cli")

# (README (2,1) surface, default grid): work counts of sample_fundamental and assemble
ANCHOR = {"legs": 31730, "panels": 31976, "vertices": 63161, "triangles": 125410}
READY = "inputs ready"


def import_package(src: str):
    """Import maxcone from `src` and return its modules."""
    if src not in sys.path:
        sys.path.insert(0, src)
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"maxcone.{name}") for name in MODULES}
    )


def set_up(wl, src, seed, workdir):
    """Import maxcone and make the workload's inputs: (modules, ops)."""
    m = import_package(src)
    return m, wl.make_ops(m, seed, workdir)


def cold_setup_seconds(workload: str, seed: int, workdir: str) -> list[float]:
    """Wall times of SETUP_REPS fresh interpreters, started one at a time, each
    from its start until it has made the inputs in its own directory under `workdir`."""
    times = []
    for k in range(SETUP_REPS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--setup-only", os.path.join(workdir, f"setup{k}")]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            seconds = time.perf_counter() - t0
            child.stdout.read()
            rc = child.wait()
        if line.strip() != READY or rc != 0:
            raise RuntimeError(f"set-up child exited {rc} after {line!r}")
        times.append(seconds)
    return times


def measure(wl, m, ops, seconds, min_ops, tracer=None):
    """Closed loop: min_ops ops, then whole steps of ops until `seconds` have passed."""
    outcomes = []
    seen = {}
    t0 = time.perf_counter()
    for op in ops:
        done = len(outcomes)
        if done >= min_ops and (done - min_ops) % wl.step == 0:
            if time.perf_counter() - t0 >= seconds:
                break
        if tracer is not None:
            tracer.op_id = op.index
        result, error = None, None
        ts = time.perf_counter()
        try:
            result = wl.run(m, op)
        except m.errors.MaxconeError as exc:
            error = Outcome(ok=False, error=f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # an untyped error is a defect: record it, keep measuring
            traceback.print_exc(file=sys.stderr)
            error = Outcome(ok=False, wrong=True, error=f"untyped {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - ts
        if tracer is not None:
            tracer.op_id = -2  # gate work is not part of any op
        outcome = error
        if outcome is None:
            try:
                outcome = wl.check(m, op, result, seen)
            except Exception as exc:  # output the gate cannot read is a wrong answer
                traceback.print_exc(file=sys.stderr)
                outcome = Outcome(ok=False, wrong=True, error=f"gate: {type(exc).__name__}: {exc}")
        outcome.seconds = dt
        outcomes.append(outcome)
        status = "ok" if outcome.ok else f"FAILED ({outcome.error})"
        print(f"op {op.index:3d} {op.label:24s} {dt:8.3f} s  {status}", flush=True)
    return outcomes


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    lat = sorted(latencies)
    n = len(lat)
    if n < 11:
        return lat[-1], 100.0, n
    k = n - 11
    return lat[k], 100.0 * (k + 1) / n, n


def end_to_end(ops, outcomes, setup_times):
    window = sum(o.seconds for o in outcomes)
    ok = [o for o in outcomes if o.ok]
    # a failed op misses every latency limit: it ranks slowest
    latencies = [o.seconds if o.ok else window for o in outcomes]
    tail_value, pct, n = tail(latencies)
    ref = [o for op, o in zip(ops, outcomes) if op.reference]
    accuracy = ref[0].accuracy if ref and ref[0].ok else {k: ACCURACY_FAILED for k in ACCURACY_FLOOR}
    q = statistics.quantiles(latencies, n=4) if n >= 2 else [latencies[0]] * 3
    print(f"ops: {n} attempted, {len(ok)} ok, {n - len(ok)} failed; op wall time {window:.3f} s")
    print(f"op latency quartiles (within this run): {q[0]:.3f} / {q[1]:.3f} / {q[2]:.3f} s")
    if n >= 11:
        print(f"op_tail_s is the p{pct:.1f} of {n} ops (10 beyond it)")
    else:
        print(f"op_tail_s is the slowest of {n} ops (fewer than 11: no percentile has 10 beyond)")
    print("cold set-up times (s): " + ", ".join(f"{t:.4f}" for t in setup_times))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(ok) / window, "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_ratio": (len(ok) / n, "ratio"),
    }
    metrics.update({k: (v, "1") for k, v in accuracy.items()})
    return metrics


def per_layer(wl, ops, outcomes, tracer, overhead_s):
    s = SpanStats(tracer)
    n = len(outcomes)
    run_ops = range(n)

    def per(x):
        return x / n
    legs = s.mask("integrate.adaptive_leg", run_ops)
    in_sample = s.under("mesh.sample_fundamental")
    in_minimal = s.under("minimal.measure_period")

    def ratio(a, b):
        return a / b if b else 0.0

    wv_calls = s.calls("core.w_values", run_ops)
    wv_points = s.counted("core.w_values", run_ops)
    leg_calls = int(legs.sum())
    panels = s.counted("integrate.adaptive_leg", run_ops)
    gc_s = s.seconds("mesh.graph_check", run_ops)
    gc_tris = s.counted("mesh.graph_check", run_ops)
    catalog_s = sum(
        s.seconds(f"catalog.{f}", [-1]) for f in ("enumerate_types", "classes_for_type", "instantiate")
    )
    metrics = {
        "core.w_values.calls": (per(wv_calls), "count"),
        "core.w_values.points": (per(wv_points), "count"),
        "core.w_values.points_per_call": (ratio(wv_points, wv_calls), "count"),
        "core.w_values.s": (per(s.seconds("core.w_values", run_ops)), "s"),
        "core.gauss.calls": (per(s.calls("core.gauss", run_ops)), "count"),
        "core.gauss.s": (per(s.seconds("core.gauss", run_ops)), "s"),
        "integrate.adaptive_leg.calls": (per(leg_calls), "count"),
        "integrate.panels": (per(panels), "count"),
        "integrate.panels_per_leg": (ratio(panels, leg_calls), "count"),
        "integrate.adaptive_leg.s": (per(s.seconds("integrate.adaptive_leg", run_ops)), "s"),
        "integrate.adaptive_leg.self_s": (per(s.self_seconds("integrate.adaptive_leg", run_ops)), "s"),
        "integrate.errors": (per(s.raised_in("integrate.")), "count"),
        "integrate.immersion.calls": (per(s.calls("integrate.immersion", run_ops)), "count"),
        "integrate.immersion.s": (per(s.seconds("integrate.immersion", run_ops)), "s"),
        "integrate.apex.calls": (per(s.calls("integrate.apex", run_ops)), "count"),
        "integrate.apex.s": (per(s.seconds("integrate.apex", run_ops)), "s"),
        "integrate.loop_period.s": (per(s.seconds("integrate.loop_period", run_ops)), "s"),
        "singular.singular_set.s": (per(s.seconds("singular.singular_set", run_ops)), "s"),
        "singular.classify_cone.calls": (per(s.calls("singular.classify_cone", run_ops)), "count"),
        "singular.classify_cone.s": (per(s.seconds("singular.classify_cone", run_ops)), "s"),
        "singular.classify_cone.self_s": (per(s.self_seconds("singular.classify_cone", run_ops)), "s"),
        "singular.nondegeneracy.s": (per(s.seconds("singular.nondegeneracy", run_ops)), "s"),
        "singular.embedded_neighborhood_proxy.s": (
            per(s.seconds("singular.embedded_neighborhood_proxy", run_ops)), "s"),
        "mesh.sample_fundamental.s": (per(s.seconds("mesh.sample_fundamental", run_ops)), "s"),
        "mesh.sample_fundamental.legs": (per(int((legs & in_sample).sum())), "count"),
        "mesh.assemble.s": (per(s.seconds("mesh.assemble", run_ops)), "s"),
        "mesh.graph_check.s": (per(gc_s), "s"),
        "mesh.graph_check.triangles": (per(gc_tris), "count"),
        "mesh.graph_check.triangles_per_s": (ratio(gc_tris, gc_s), "1/s"),
        "minimal.standard_loops.s": (per(s.seconds("minimal.standard_loops", run_ops)), "s"),
        "minimal.measure_period.calls": (per(s.calls("minimal.measure_period", run_ops)), "count"),
        "minimal.legs": (per(int((legs & in_minimal).sum())), "count"),
        "catalog.s": (catalog_s, "s"),
        "report.run_checks.s": (per(s.seconds("report.run_checks", run_ops)), "s"),
        "report.run_checks.self_s": (per(s.self_seconds("report.run_checks", run_ops)), "s"),
        "cli.main.s": (per(s.seconds("cli.main", run_ops)), "s"),
        "cli.self_s": (per(s.self_seconds("cli.main", run_ops)), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "fail_ratio": (sum(not o.ok for o in outcomes) / n, "ratio"),
    }
    anchor = anchor_counts(wl, s, ops, legs, in_sample)
    for key, value in anchor.items():
        metrics[f"anchor.{key}"] = (value, "count")
    return metrics, s


def anchor_counts(wl, s, ops, legs, in_sample):
    """sample_fundamental and assemble work of the reference op, on workloads that pin it."""
    if not wl.anchored:
        return {k: 0 for k in ANCHOR}
    ref = next(op.index for op in ops if op.reference)
    sel = legs & in_sample & (s.a["op"] == ref)
    return {
        "legs": int(sel.sum()),
        "panels": int(s.a["count"][sel].sum()),
        "vertices": s.counted("mesh.assemble", [ref]),
        "triangles": s.counted("mesh.assemble", [ref], second=True),
    }


def trace_checks(wl, ops, outcomes, s, probe_digest, anchor):
    """Problems found by the traced run; each one makes the run incorrect."""
    problems = []
    run_ops = [-1, *range(len(outcomes))]  # set-up (catalog) and the ops, not gate work
    for name in wl.expected_spans():
        if s.calls(name, run_ops) == 0:
            problems.append(f"no span {name} on {wl.name}")
    ref = next(i for i, op in enumerate(ops) if op.reference)
    if ref < len(outcomes) and outcomes[ref].digest != probe_digest:
        problems.append("tracing changed the output digest of the reference op")
    if wl.anchored and anchor != ANCHOR:
        problems.append(f"anchor counts {anchor} differ from {ANCHOR}")
    # leg and panel counts of a repeated surface must repeat exactly
    legs = s.mask("integrate.adaptive_leg")
    counts = {}
    for op in ops[: len(outcomes)]:
        sel = legs & (s.a["op"] == op.index)
        counts.setdefault(repr(op.surface), set()).add((int(sel.sum()), int(s.a["count"][sel].sum())))
    for surface, seen in counts.items():
        if len(seen) > 1:
            problems.append(f"leg and panel counts differ across repeats of {surface}: {sorted(seen)}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="WORKDIR", help="make the inputs in WORKDIR and exit")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "maxcone", "__init__.py")):
        print(f"error: no maxcone sources under {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    if args.setup_only:
        os.makedirs(args.setup_only)
        set_up(wl, src, args.seed, args.setup_only)
        print(READY, flush=True)
        return 0
    workdir = os.path.join(root, ".bench_work", f"{wl.name}-{os.getpid()}")
    try:
        os.makedirs(workdir)
        m, ops = set_up(wl, src, args.seed, workdir)
        print(f"workload {wl.name}, seed {args.seed}, {len(ops)} ops prepared", flush=True)

        if not args.trace:
            setup_times = cold_setup_seconds(wl.name, args.seed, os.path.join(workdir, "before"))
            outcomes = measure(wl, m, ops, args.seconds, wl.min_ops)
            setup_times += cold_setup_seconds(wl.name, args.seed, os.path.join(workdir, "after"))
            metrics = end_to_end(ops, outcomes, setup_times)
            problems = []
        else:
            ref = next(op for op in ops if op.reference)
            (probe,) = measure(wl, m, [ref], 0.0, 1)  # untraced, for overhead and digest
            tracer = Tracer()
            tracer.install()
            tracer.op_id = -1
            ops = wl.make_ops(m, args.seed, workdir)  # traced set-up: catalog spans
            outcomes = measure(wl, m, ops, args.seconds, wl.min_ops, tracer)
            tracer.uninstall()
            overhead = outcomes[ref.index].seconds - probe.seconds
            metrics, stats = per_layer(wl, ops, outcomes, tracer, overhead)
            anchor = {k: metrics[f"anchor.{k}"][0] for k in ANCHOR}
            problems = trace_checks(wl, ops, outcomes, stats, probe.digest, anchor)
            os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
            tracer.write(os.path.join(root, ".bench_out", f"trace-{wl.name}.tsv"))
        for problem in problems:
            print(f"INCORRECT: {problem}")
        correct = not problems and not any(o.wrong for o in outcomes)
        correct &= all(o.ok for op, o in zip(ops, outcomes) if op.reference)
        for name, (value, unit) in metrics.items():
            print(f"{name:42s} {value:.6g} {unit}")
        result = {
            "correct": bool(correct),
            "attempted": len(outcomes),
            "failed": sum(not o.ok for o in outcomes),
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
