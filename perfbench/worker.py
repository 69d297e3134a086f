"""One fresh workload process; ``run.py`` starts it and reads its stdout.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE SPAWN_TIME PROBE_ITEM

MODE is ``run`` (untraced closed loop), ``trace`` (the same loop with every
listed function wrapped by ``tracing.Tracer``) or ``probe`` (set up, then run
item PROBE_ITEM alone and exit; ``cli-corpus`` probes only set up).

The process imports ``hyperpoly`` before anything else so that the import is
timed as a fresh interpreter pays for it.  SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide), so ``setup_s`` runs from process start to the first timed item.
Times are reported as measured, together with the calibration bursts
(``speed.py``) taken around them, each as ``[items done before it, seconds]``;
``run.py`` scales them.  The process prints
one JSON result line at the end.
"""

import os
import sys
import time

# one calibration burst per this much item time
BURST_EVERY_S = 0.05


def _import_hyperpoly(root: str) -> float:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import hyperpoly
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(hyperpoly.__file__))) != src:
        raise SystemExit(f"hyperpoly imported from {hyperpoly.__file__}, not {src}")
    return elapsed


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    import_s = _import_hyperpoly(root)

    import json
    import resource
    from collections import Counter

    import speed
    import tracing
    import workloads

    workload, seed, seconds, mode = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    spawn_time, probe_item = float(sys.argv[5]), int(sys.argv[6])
    workdir = os.path.join(here, "out")
    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)

    tracer = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[workload](seed, workdir)
    stream = wl.items()
    setup_s = time.monotonic() - spawn_time

    latencies, cold, bursts = [], [], []
    attempted = failed = 0
    failures = []
    mix = Counter()

    def run_item(k: int, item) -> float:
        nonlocal attempted, failed
        if tracer is not None:
            tracer.item = k
            tracer.on = True
        t0 = time.perf_counter()
        try:
            err = item.run()
        except Exception as exc:      # a failed item is counted, never fatal
            err = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.on = False
        attempted += 1
        if err is not None:
            failed += 1
            if len(failures) < 10:
                failures.append(f"item {k} ({item.kind}): {err}")
        return dt

    def cold_pass() -> None:
        # fresh subprocesses (cli-corpus only), each with its own calibration
        for item in getattr(wl, "cold_pass", list)():
            before = speed.bursts()
            dt = run_item(-1, item)
            cold.append([dt, speed.factor(before + speed.bursts())])

    if mode == "probe":
        if workload != "cli-corpus":
            for _ in range(probe_item):
                next(stream)
            run_item(probe_item, next(stream))
    else:
        bursts += [[0, b] for b in speed.bursts()]
        cold_pass()
        deadline = time.perf_counter() + seconds
        k = 0
        since_burst = 0.0
        while time.perf_counter() < deadline:
            item = next(stream)
            dt = run_item(k, item)
            latencies.append(dt)
            mix.update((key, str(v)) for key, v in item.props.items())
            k += 1
            since_burst += dt
            if since_burst >= BURST_EVERY_S:
                bursts.append([k, speed.burst()])
                since_burst = 0.0
        bursts += [[k, b] for b in speed.bursts()]
        cold_pass()

    result = {
        "setup_s": setup_s,
        "import_ms": import_s * 1000.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "latencies": latencies,
        "bursts": bursts,
        "cold": cold,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mix": [[key, value, n] for (key, value), n in sorted(mix.items())],
        "counts": wl.counts,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        spans = os.path.join(workdir, f"spans-{workload}-seed{seed}.json")
        tracer.write_spans(spans)
        result["spans_file"] = spans
    print(json.dumps({"result": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
