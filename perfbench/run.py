#!/usr/bin/env python3
"""Run one workload of the flowgen benchmark and print its result.

    python3 perfbench/run.py --workload label_engine|label_fleet|pipeline_cnn
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call builds the driver
(perfbench/CMakeLists.txt, Release) into .bench_build/perfbench; later calls
reuse the build. Every repetition runs in a fresh driver process, so each
starts from cold process-wide state with its own evaluator, fleet and store
directory.

--trace 0 repeats the workload until --seconds are spent and reports the
end-to-end metrics of BENCHMARK.json (medians over the repetitions of
each repetition's value).
--trace 1 runs one untraced and one traced repetition and reports the
per-layer metrics. Either way the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it list
every metric with its unit and the host facts. See perfbench/README.md.

Exit status: 0 when every label check passed, 1 when a check failed or a
repetition errored, 2 when the checkout holds no flowgen sources.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("label_engine", "label_fleet", "pipeline_cnn")
SETUP_SAMPLES = 15       # extra set-up-only processes per run
RUN_LIMIT_S = 170        # a run must end within 180 s once built
BUILD_LIMIT_S = 850


class Interrupted(Exception):
    pass


def on_signal(signum, _frame):
    raise Interrupted(f"signal {signum}")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_group(cmd, timeout):
    """Run cmd in a process group of its own and kill the whole group when
    it ends, fails or is interrupted, so no forked worker or compiler
    outlives it. Returns (exit status, stdout, stderr)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out, err


def build():
    """Configure and build the driver; serialised by a lock file."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "perfbench_driver", "-j", "4"])
        for cmd in steps:
            code, out, err = run_group(cmd, BUILD_LIMIT_S)
            if code != 0:
                sys.stderr.write(out[-4000:] + err[-4000:])
                raise RuntimeError("build failed: " + " ".join(cmd))


def build_type():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.strip().split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


class Driver:
    """Runs one driver process per repetition, all before one deadline."""

    def __init__(self, args, work_dir, deadline):
        self.args = args
        self.work_dir = work_dir
        self.deadline = deadline

    def run(self, mode, rep, extra=()):
        cmd = [DRIVER, "--workload", self.args.workload, "--mode", mode,
               "--seed", str(self.args.seed), "--rep", str(rep),
               "--work-dir", self.work_dir, *extra]
        if self.args.plant_wrong_label:
            cmd.append("--plant-wrong-label")
        start = time.monotonic()
        code, out, err = run_group(cmd, max(1.0, self.deadline - start))
        elapsed = time.monotonic() - start
        sys.stderr.write("".join(l + "\n" for l in err.splitlines()
                                 if "INFO" not in l))
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            raise RuntimeError(f"{mode} rep {rep} exited with {code}")
        return json.loads(lines[-1]), elapsed


def spread(values):
    """Interquartile range over the median (0 for fewer than 2 values)."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def percentile(values, q):
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def flows_per_s(rep):
    # pipeline_cnn labels inside a longer run: rate over its labeling time.
    return rep["flows"] / rep.get("label_s", rep["wall_s"])


def end_to_end(driver, seconds):
    setups = [driver.run("setup", 0)[0]["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    reps, spent = [], 0.0
    while True:
        rep, elapsed = driver.run("timed", len(reps))
        reps.append(rep)
        spent += elapsed
        if spent + spent / len(reps) > seconds:
            break
    setups += [r["setup_s"] for r in reps]
    per_rep = {
        "wall_s": [r["wall_s"] for r in reps],
        "label_flows_per_s": [flows_per_s(r) for r in reps],
        "batch_ms_p50": [percentile(r["batch_ms"], 0.5) for r in reps],
        "batch_ms_p90": [percentile(r["batch_ms"], 0.9) for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    metrics = {"setup_s": statistics.median(setups),
               **{k: statistics.median(v) for k, v in per_rep.items()}}
    facts = {
        "reps": len(reps),
        "setup_samples": len(setups),
        "batch_samples_per_rep": len(reps[0]["batch_ms"]),
        "checked_flows": sum(r["checked"] for r in reps),
        "threads": reps[0]["threads"],
        "workers": reps[0]["workers"],
        "spread": {"setup_s": spread(setups),
                   **{k: spread(v) for k, v in per_rep.items()}},
    }
    return metrics, reps, facts


def per_layer(driver, names):
    qor_file = os.path.join(driver.work_dir, "timed-qor.txt")
    timed, _ = driver.run("timed", 0, ["--qor-file", qor_file])
    traced, _ = driver.run("traced", 0, ["--qor-file", qor_file])
    merged = {**timed, **traced}
    merged["trace.overhead_ratio"] = (traced["traced_wall_s"] /
                                      timed["wall_s"] - 1)
    # A layer this workload never calls did no work: it reports 0.
    metrics = {n: float(merged.get(n, 0.0)) for n in names}
    facts = {"reps": 1, "traced_reps": 1, "trace_file": traced["trace_file"],
             "checked_flows": timed["checked"], "threads": timed["threads"],
             "workers": timed["workers"]}
    if "replay_identical" in traced:
        facts["replay_identical"] = traced["replay_identical"] == 1
    return metrics, [timed, traced], facts


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--plant-wrong-label", action="store_true",
                   help="corrupt one returned label before the check "
                        "(the benchmark's own test)")
    args = p.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no flowgen sources in {ROOT}; run from a source checkout")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)
    work_dir = os.path.join(BUILD_DIR, f"work-{os.getpid()}")
    trace_dir = os.path.join(BUILD_DIR, "traces")
    try:
        build()
        os.makedirs(work_dir, exist_ok=True)
        os.makedirs(trace_dir, exist_ok=True)
        driver = Driver(args, work_dir, time.monotonic() + RUN_LIMIT_S)
        if args.trace:
            metrics, reps, facts = per_layer(driver, list(units))
            dest = os.path.join(trace_dir,
                                os.path.basename(facts["trace_file"]))
            shutil.move(facts["trace_file"], dest)
            facts["trace_file"] = os.path.relpath(dest, ROOT)
        else:
            metrics, reps, facts = end_to_end(driver, args.seconds)
    except (Interrupted, RuntimeError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log(f"run failed: {e}")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = int(sum(r["attempted"] for r in reps))
    failed = int(sum(r["failed"] for r in reps))
    host = {"nproc": os.cpu_count(), "build_type": build_type(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, **facts}
    print("host " + json.dumps(host, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"error_rate {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
