"""The hyperpoly benchmark: one seeded, closed-loop workload, checked end to end.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``workloads.py`` for why each exists): ``oracle-family``,
``st-pairs``, ``exact-finite`` and ``cli-corpus``.  Every workload process is
fresh and runs from this checkout's ``src/``; nothing is installed.

Every time is reported at reference speed (see ``speed.py``): the run
interleaves a fixed calibration burst with its measurements and scales each
time by how much slower than the reference the burst ran around it.  The
values as measured are in the context line under ``measured``.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: process start to the first timed item (import plus input
  generation); median over the workload process and ``PROBES`` set-up probes.
* ``items_per_s``, ``item_p50_ms``, ``item_p90_ms``: closed-loop throughput
  over the summed item time, and item latency percentiles.
* ``peak_rss_mb``: peak resident memory of the workload process.
* ``import_ms``: ``import hyperpoly`` timed inside each fresh interpreter
  (median, same processes as ``setup_s``).
* ``cold_p50_ms``: median wall time of a fresh process doing one item: for
  ``cli-corpus`` each corpus command as ``python -m hyperpoly.cli``, for the
  others a probe that sets up and runs one item.

``--trace 1`` runs the workload untraced and then traced (two fresh
processes) and prints the per-layer metrics of ``tracing.metric_names()``;
``trace.overhead_frac`` is untraced over traced items per second, minus one,
on the items both processes ran.

Before the result line the run prints a ``context`` line (Python, nproc,
commit, ``src/`` line count, seeds, sample counts, failures, measured values
and speed factor) and a ``composition`` line (the mix of inputs the timed
items covered, and in a traced run the repeat ratios with their bases).
The last line is ``{"correct", "attempted", "failed", "metrics"}``; a failed item is
a wrong verdict, a check that does not hold, an exception, or CLI output or
exit code that differs from ``golden/cli.json``.

The default seed is not one of the acceptance seeds (101/202/404/606/707);
``HOLDOUT_SEED`` is kept for re-checking a claim on inputs it was not tuned on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import speed  # noqa: E402  (stdlib only, like tracing; neither imports hyperpoly)
import tracing  # noqa: E402

WORKLOADS = ("oracle-family", "st-pairs", "exact-finite", "cli-corpus")
DEFAULT_SEED = 1
HOLDOUT_SEED = 9001
PROBES = 14
WORKER_TIMEOUT_S = 120


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, probe_item: int = 0) -> dict:
    """Run one fresh worker; return its result with ``wall_s`` (spawn to exit),
    ``near`` (speed factor from bursts just before and after it) and
    ``start`` (speed factor around its set-up)."""
    before = speed.bursts()
    t0 = time.monotonic()
    argv = [sys.executable, WORKER, workload, str(seed), repr(seconds), mode,
            repr(t0), str(probe_item)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=seconds + WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    wall = time.monotonic() - t0
    after = speed.bursts()
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}")
    result = json.loads(lines[-1])["result"]
    result["wall_s"] = wall
    result["near"] = speed.factor(before + after)
    loop = [b for _, b in result["bursts"]]
    result["start"] = speed.factor(before + loop[:len(before)]) if loop else result["near"]
    result["loop"] = speed.factor(loop) if loop else result["near"]
    return result


def scaled_latencies(result: dict) -> list[float]:
    """Item latencies at reference speed, each scaled by the bursts nearest to
    it (two before, two after), so a slow spell only scales the items in it."""
    pos = [k for k, _ in result["bursts"]]
    dur = [b for _, b in result["bursts"]]
    out, j = [], 0
    for k, t in enumerate(result["latencies"]):
        while j < len(pos) and pos[j] <= k:
            j += 1
        out.append(t * speed.factor(dur[max(0, j - 2):j + 2]))
    return out


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def e2e_values(main: dict, probes: list[dict], scaled: bool) -> dict:
    """End-to-end metrics, at reference speed or (``scaled`` false) as measured."""
    def f(run: dict, key: str) -> float:
        return run[key] if scaled else 1.0

    starts = [main] + probes
    lat = scaled_latencies(main) if scaled else main["latencies"]
    if main["cold"]:
        cold = [t * (k if scaled else 1.0) for t, k in main["cold"]]
    else:
        cold = [p["wall_s"] * f(p, "near") for p in probes]
    return {
        "setup_s": (statistics.median(r["setup_s"] * f(r, "start") for r in starts), "s"),
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "item_p90_ms": (p90(lat) * 1e3, "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "import_ms": (statistics.median(r["import_ms"] * f(r, "start") for r in starts), "ms"),
        "cold_p50_ms": (statistics.median(cold) * 1e3, "ms"),
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    # half the probes before the timed run and half after, so that one slow
    # spell of a shared machine does not move every sample
    probes = [spawn(workload, seed, seconds, "probe", k) for k in range(PROBES // 2)]
    main = spawn(workload, seed, seconds, "run")
    probes += [spawn(workload, seed, seconds, "probe", k) for k in range(PROBES // 2, PROBES)]
    raw = {k: v for k, (v, _) in e2e_values(main, probes, scaled=False).items()}
    return e2e_values(main, probes, scaled=True), [main] + probes, raw


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    plain = spawn(workload, seed, seconds, "run")
    traced = spawn(workload, seed, seconds, "trace")
    units = dict(tracing.metric_names())
    values = {k: v * traced["loop"] if units[k] == "s" else v
              for k, v in traced["layers"].items()}
    counts = traced["counts"]
    calls = counts.get("unbounded_oracle_calls", 0)
    values["classify.sampling_oracle.witness_frac"] = (
        counts["unbounded_witnesses"] / calls if calls else 0.0)
    # both processes start the same item stream; compare them on the same items
    n = min(len(plain["latencies"]), len(traced["latencies"]))
    values["trace.overhead_frac"] = (
        sum(scaled_latencies(traced)[:n]) / sum(scaled_latencies(plain)[:n]) - 1.0)
    return {name: (values[name], units[name]) for name in units}, [traced, plain], {}


def src_line_count() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def git_commit() -> str:
    """HEAD of this checkout, or ``unknown`` where it is not a git repository."""
    # the ceiling keeps git from taking the commit of an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def composition(main: dict) -> dict:
    n = len(main["latencies"])
    out: dict = {"items": n}
    for key, value, count in main["mix"]:
        out.setdefault(key, {})[value] = count / n
    out["counts"] = main["counts"]
    layers = main.get("layers")
    if layers:
        for ratio, bases in tracing.REPEATS.items():
            out[ratio] = {"value": layers[ratio],
                          "base_calls": sum(layers[f"{b}.calls"] for b in bases)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hyperpoly", "__init__.py")):
        print(f"no hyperpoly sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, runs, raw = per_layer(args.workload, args.seed, args.seconds)
        else:
            metrics, runs, raw = end_to_end(args.workload, args.seed, args.seconds)
    except (BenchError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    main_run = runs[0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    n = len(main_run["latencies"])
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "default_seed": DEFAULT_SEED, "holdout_seed": HOLDOUT_SEED,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(), "src_lines": src_line_count(),
        "samples": {"items": n, "beyond_p90": n - -(-9 * n // 10),
                    "cold": len(main_run["cold"]) or (0 if args.trace else PROBES),
                    "setup": 1 + PROBES if not args.trace else 1},
        "failed_frac": {"value": failed / attempted if attempted else 0.0,
                        "failed": failed, "attempted": attempted},
        "failures": failures[:10],
        "measured": raw,
        "speed_factor": main_run["loop"],
    }
    if args.trace:
        layers = main_run["layers"]
        context["self_sum_s"] = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
        context["timed_wall_s"] = sum(main_run["latencies"]) + sum(t for t, _ in main_run["cold"])
        context["spans_file"] = os.path.relpath(main_run["spans_file"], ROOT)
    for f in failures[:10]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps({"composition": composition(main_run)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
