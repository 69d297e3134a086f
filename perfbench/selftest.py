"""Short self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, on the current code:

* every workload, untraced and traced, emits exactly the metrics that
  ``BENCHMARK.json`` names, each with its unit, and no item fails;
* in the traced run, self times sum to no more than the timed wall time;
* one corrupted golden byte makes that command's in-process and cold runs
  fail, while an untouched command still passes.

Exits 0 when every check holds; prints each failed check otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_bench(workload: str, trace: int) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=170, check=True)
    return [json.loads(line) for line in proc.stdout.decode().splitlines()]


def check_metrics(spec: dict) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            context, _, result = run_bench(w["name"], trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            where = f"{w['name']} --trace {trace}"
            if got != want:
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} "
                                f"missing or extra, or units differ")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} items failed")
            if trace and context["context"]["self_sum_s"] > context["context"]["timed_wall_s"]:
                problems.append(f"{where}: self times exceed the timed wall time")
    return problems


def check_golden_corruption() -> list[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    with open(workloads.GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    text = golden["kochen"]["stdout"]
    golden["kochen"]["stdout"] = text[:5] + chr(ord(text[5]) ^ 1) + text[6:]
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as workdir:
        cli = workloads.CliCorpus(1, workdir, golden=golden)
        by_name = {item.kind: item for item in cli.cold_pass()}
        problems = []
        if by_name["kochen"].run() is None:
            problems.append("corrupted golden byte not caught on the cold run")
        if cli.compare("kochen", *cli.in_process("kochen")) is None:
            problems.append("corrupted golden byte not caught in process")
        if by_name["delta"].run() is not None:
            problems.append("an untouched command failed against its golden copy")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    problems = check_golden_corruption() + check_metrics(spec)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
