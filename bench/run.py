"""Benchmark of hjcomplete: build, verify and query complete solutions, and
classify analytic (H, F) pairs.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload harmonic_s1 --seed 1 --seconds 20 --trace 0

The run repeats whole rounds of its workload (see workloads.py) until
--seconds have passed, one caller in a closed loop, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end figures; with --trace 1 the
layer entry points are wrapped (spans.py), the per-layer figures per
round are printed, and the spans and counts go to bench/out/.  The line
before the last carries a breakdown by query kind.

--control perturbed (harmonic workloads) or --control label
(classify_analytic) injects a known fault to show that the checks catch
it: the run must then report failed operations and correct = false.
"""

import os

# BLAS threads are fixed before numpy is first imported in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

sys.dont_write_bytecode = True


def _manifest_names(key):
    """Metric names listed under `key` in BENCHMARK.json."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[key]]


def _steal_s() -> float:
    """Machine-wide CPU time the hypervisor gave to other guests, if known."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return math.nan


def _percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _end_to_end(rounds):
    # Each round makes at least 100 queries, so p90 has ten samples beyond it.
    ms = [1e3 * t for r in rounds for t in r.query_s]
    return {
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "verify_s": (statistics.median(r.verify_s for r in rounds), "s"),
        "query_ms_p50": (_percentile(ms, 0.5), "ms"),
        "query_ms_p90": (_percentile(ms, 0.9), "ms"),
        "queries_s": (statistics.median(r.queries_s for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _breakdown(rounds):
    out = {"rounds": len(rounds), "query_samples": sum(len(r.query_s) for r in rounds)}
    kinds = {k for r in rounds for k in r.other_s}
    for kind in sorted(kinds):
        samples = [1e3 * t for r in rounds for t in r.other_s.get(kind, [])]
        out[f"{kind}_samples"] = len(samples)
        out[f"{kind}_ms_p50"] = _percentile(samples, 0.5)
        if len(samples) >= 100:
            out[f"{kind}_ms_p90"] = _percentile(samples, 0.9)
        out[f"{kind}_s_per_round"] = statistics.median(
            sum(r.other_s.get(kind, [])) for r in rounds
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--control", choices=("perturbed", "label"), default=None)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "hjcomplete", "__init__.py")):
        print("error: run from the repository root; src/hjcomplete not found", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import workloads  # noqa: E402  (needs hjcomplete on the path)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if args.control and (args.control == "label") != (args.workload == "classify_analytic"):
        print(f"error: --control {args.control} does not apply to {args.workload}", file=sys.stderr)
        return 2
    run_round = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import spans  # noqa: E402

        tracer = spans.Tracer()
        spans.install(tracer)

    rounds = []
    steal = _steal_s()
    cpu = time.process_time()
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.enter("bench.round")
        try:
            rounds.append(run_round(args.seed, args.control))
        finally:
            if tracer is not None:
                tracer.exit()
        if time.perf_counter() - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start
    cpu = time.process_time() - cpu
    steal = _steal_s() - steal

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    wrong = sum(r.wrong for r in rounds)
    for r in rounds[:1]:
        for message in r.messages:
            print(f"failed: {message}", file=sys.stderr)

    # CPU and steal time show how much of the wall time the host took away.
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "elapsed_s": elapsed,
        "cpu_s": cpu,
        "steal_s": steal,
    }
    detail.update(_breakdown(rounds))
    complete = not any(math.isnan(r.setup_s) or math.isnan(r.verify_s) for r in rounds)
    e2e = _end_to_end(rounds) if complete else {}
    if tracer is None:
        metrics = e2e
        if e2e and sorted(e2e) != sorted(_manifest_names("end_to_end")):
            raise RuntimeError("end-to-end metrics differ from BENCHMARK.json")
    else:
        per_layer = _manifest_names("per_layer")
        totals = spans.layer_metrics(tracer)
        per_round = {}
        for name, (unit, value) in totals.items():
            # Rounds repeat the same calls, so a count divides evenly.
            if unit == "count" and value % len(rounds) == 0:
                value //= len(rounds)
            elif unit != "ratio":
                value /= len(rounds)
            per_round[name] = (unit, value)
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {**detail, "per_round": {k: v[1] for k, v in per_round.items()}})
        detail["trace_file"] = os.path.relpath(path)
        detail["traced_end_to_end"] = {k: v[0] for k, v in e2e.items()}
        detail["other_layers"] = {
            k: v[1] for k, v in per_round.items() if k not in per_layer
        }
        metrics = {name: (per_round[name][1], per_round[name][0]) for name in per_layer}

    print(json.dumps(detail))
    result = {
        "correct": wrong == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
