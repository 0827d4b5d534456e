#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --workload <name> --seed <n> --record

Run from the root of a checkout. The first call builds the simulator
libraries and the perfbench program (perfbench/CMakeLists.txt) into
.bench_build/perfbench; later calls reuse the build.

Every metric of the run is printed by name with its unit (the
perfbench_report line). The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}, where "metrics" holds the
end-to-end metrics of BENCHMARK.json with --trace 0 and its per-layer
metrics with --trace 1.

"correct" requires that the program's own output checks hold (gateway
conservation, convergence, identical simulated outputs across the
replays of the run, traced or not) and, for a seed recorded in
perfbench/expected.json, that every simulated metric equals the
recorded value. --record stores the simulated metrics of a run there.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_JSON = os.path.join(HERE, "expected.json")
PROGRAM = os.path.join(BUILD, "perfbench")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
# Relative tolerance for recorded floating-point values; counts are
# compared exactly.
REL_TOL = 1e-9
# Environment knobs that would change the cluster shape (shards, lane
# groups, threads). perfbench fixes all three in ClusterConfig; they
# are also kept out of the child's environment.
CLUSTER_ENV_KNOBS = ("KD_SHARDS", "KD_LANES", "KD_THREADS")


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def clean_env():
    env = dict(os.environ)
    for knob in CLUSTER_ENV_KNOBS:
        env.pop(knob, None)
    return env


def build():
    """Configures (once) and builds the program; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no simulator sources under src/; nothing to build")
        return False
    env = clean_env()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode == 0


def load_json(path, default=None):
    if not os.path.isfile(path):
        return default
    with open(path) as f:
        return json.load(f)


def same(recorded, measured):
    if recorded is None or measured is None:
        return recorded == measured
    if float(recorded).is_integer() and float(measured).is_integer():
        return recorded == measured
    return abs(recorded - measured) <= REL_TOL * max(abs(recorded), abs(measured))


def compare_expected(report):
    """Mismatches against the recorded simulated outputs (empty when
    none or when the seed is not recorded)."""
    recorded = (load_json(EXPECTED_JSON, {}).get(report["workload"], {})
                .get(str(report["seed"])))
    if recorded is None:
        return None, []
    metrics = report["metrics"]
    bad = []
    for name, want in sorted(recorded.items()):
        got = metrics.get(name, {}).get("value")
        if not same(want, got):
            bad.append(f"{name}: recorded {want}, measured {got}")
    for name, m in sorted(metrics.items()):
        if m["exact"] and name not in recorded:
            bad.append(f"{name}: measured {m['value']}, not recorded")
    return recorded, bad


def write_expected(expected):
    """One line per (workload, seed), so a diff shows which one moved."""
    rows = []
    for workload in sorted(expected):
        seeds = sorted(expected[workload], key=int)
        body = ",\n".join(f"    {json.dumps(seed)}: "
                          f"{json.dumps(expected[workload][seed], sort_keys=True)}"
                          for seed in seeds)
        rows.append(f"  {json.dumps(workload)}: {{\n{body}\n  }}")
    with open(EXPECTED_JSON, "w") as f:
        f.write("{\n" + ",\n".join(rows) + "\n}\n")


def run_program(args, spans):
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=clean_env(), timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith('{"perfbench_report"'):
        log(f"perfbench exited {proc.returncode} without a report")
        return None
    return json.loads(lines[-1])["perfbench_report"], lines[-1]


def result_line(report, bench, correct):
    section = "per_layer" if report["trace"] else "end_to_end"
    out = {}
    for spec in bench[section]:
        m = report["metrics"].get(spec["name"])
        if m is None or m["unit"] != spec["unit"] or m["value"] is None:
            raise SystemExit(f"[perfbench] metric {spec['name']} missing or "
                             f"not in {spec['unit']}")
        out[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    replays = len(report["replays"])
    return {"correct": correct, "attempted": replays,
            "failed": 0 if report["ok"] else replays, "metrics": out}


def benchmark(args):
    bench = load_json(BENCHMARK_JSON)
    if bench is None:
        log("BENCHMARK.json not found")
        return 1
    ignored = [k for k in CLUSTER_ENV_KNOBS if k in os.environ]
    if ignored:
        log(f"ignoring {', '.join(ignored)}: the cluster shape is fixed")
    if not build():
        log("build failed")
        return 1
    spans = None
    if args.trace:
        os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
        spans = os.path.join(BUILD, "spans", f"{args.workload}-seed{args.seed}.jsonl")
    got = run_program(args, spans)
    if got is None:
        return 1
    report, line = got
    print(line)
    host = report["host"]
    log(f"host: nproc={host['nproc']} compiler={host['compiler']} "
        f"build={host['build_type']}")
    correct = bool(report["ok"])
    if not report["ok"]:
        log(f"output check failed: {report['why']}")
    recorded, bad = compare_expected(report)
    if recorded is None:
        log(f"seed {args.seed} has no recorded outputs; invariants checked only")
    for b in bad:
        log(f"simulated output mismatch: {b}")
    correct = correct and not bad
    if args.record:
        if not report["ok"]:
            log("not recording a run whose checks failed")
            return 1
        expected = load_json(EXPECTED_JSON, {})
        expected.setdefault(args.workload, {})[str(args.seed)] = {
            name: m["value"] for name, m in sorted(report["metrics"].items())
            if m["exact"]}
        write_expected(expected)
        log(f"recorded {args.workload} seed {args.seed}")
        correct = report["ok"]
    print(json.dumps(result_line(report, bench, correct)))
    return 0 if correct else 1


def selftest():
    """The metric-code unit checks, plus agreement between the names and
    units the program prints and BENCHMARK.json / expected.json."""
    if not build():
        log("build failed")
        return 1
    failures = []
    if subprocess.run([SELFTEST]).returncode != 0:
        failures.append("perfbench_selftest failed")
    listing = subprocess.run([PROGRAM, "--list-metrics"], stdout=subprocess.PIPE,
                             text=True, check=True)
    catalogue = {m["name"]: m for m in json.loads(listing.stdout)}
    bench = load_json(BENCHMARK_JSON)
    for section in ("end_to_end", "per_layer"):
        listed = {m["name"]: m for m in bench[section]}
        printed = {n for n, m in catalogue.items() if m["kind"] == section}
        for name, spec in listed.items():
            if name not in catalogue:
                failures.append(f"{section} {name} is not printed by perfbench")
            elif catalogue[name]["unit"] != spec["unit"]:
                failures.append(f"{name}: unit {spec['unit']} in BENCHMARK.json, "
                                f"{catalogue[name]['unit']} printed")
        for name in sorted(printed - set(listed)):
            failures.append(f"{section} {name} is printed but not in BENCHMARK.json")
    for workload, seeds in load_json(EXPECTED_JSON, {}).items():
        for seed, values in seeds.items():
            for name in values:
                if not catalogue.get(name, {}).get("exact"):
                    failures.append(f"expected.json {workload}/{seed}: {name} "
                                    "is not an exact metric")
    for f in failures:
        print(f"FAIL: {f}")
    print(f"run.py --selftest: {'ok' if not failures else 'FAILED'}")
    return 0 if not failures else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        p.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
