"""sheetsentry audit benchmark.

Generates a seeded workbook for one workload and audits it through the
real CLI, one child at a time (a closed loop with one client: a CI gate
auditing files one by one). Every report is checked against the results
the generator knows. Usage, from the repository root::

    python3 perfbench/run.py --workload copy_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced CLI audits; the
bounded timings are rescaled to a reference machine speed (see calibrate()).
``--trace 1`` reports per-layer metrics from a separate in-process traced
audit (see tracer.py) and the tracing overhead against an untraced
in-process audit of the same file. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it describe the machine, the workload and
each metric's median, quartiles and sample count. The full record, spans
included, is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "sheetsentry") + os.sep
WORK = os.path.join(HERE, ".work")
RESULTS = os.path.join(HERE, "results")
SETUP_SPAWNS_FIRST = 3   # --version spawns before the first audit ...
SETUP_SPAWNS_EACH = 2    # ... and after every audit, so set-up is sampled across the run
CHILD_TIMEOUT_S = 150
CAL_ENTRIES = 40_000  # dict entries the calibration loop allocates and reads
CAL_REPEATS = 3       # timings of the loop per calibration; their mean is used
REF_CAL_S = 0.034     # the loop's mean time on the reference machine (see README.md)

# Bounded metrics: the last line of a --trace 0 run carries these ...
END_TO_END = {
    "audit_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# ... and these are printed beside them and kept in the record.
WALL = {
    "audit_s": "s",
    "formula_cells_per_s": "1/s",
    "setup_wall_s": "s",
    "cal_s": "s",
}
PER_LAYER_UNITS = {"self_s": "s", "total_s": "s", "maxrss_mb": "MB", "frac": "ratio",
                   "bytes": "bytes", "per_formula": "ratio", "per_class": "ratio"}


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONHOME", None)
    return env


def check_checkout(env: dict) -> None:
    """Refuse to measure anything but this checkout's package."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise BenchError(f"no sheetsentry package under {SRC}")
    proc = subprocess.run(
        [sys.executable, "-c", "import sheetsentry, sys; sys.stdout.write(sheetsentry.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    where = os.path.realpath(proc.stdout.strip())
    if proc.returncode != 0 or not where.startswith(os.path.realpath(PACKAGE)):
        raise BenchError(f"sheetsentry resolves to {where or proc.stderr.strip()!r}, not {PACKAGE}")


def spawn(argv: list[str], env: dict, stdout_path: str) -> tuple[float, int, float]:
    """Run one child to completion; returns (wall seconds, exit code, its own
    peak RSS in MB). ``os.wait4`` reads that child's rusage alone, unlike
    RUSAGE_CHILDREN, which keeps the maximum over every child so far."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if elapsed >= CHILD_TIMEOUT_S:
        raise BenchError(f"{argv[1:]} ran past {CHILD_TIMEOUT_S} s")
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def calibrate() -> float:
    """Mean time of a fixed pure-Python loop: the machine's speed right now.

    A shared VM slows down and speeds up as a whole, in phases of
    milliseconds to minutes. The benchmark calibrates after every child, and
    rescales a run's wall times by ``REF_CAL_S`` / (mean calibration of the
    run), which gives them at the reference speed: that is what the bounded
    metrics report. The loop allocates and reads small objects in a dict of
    a few MB, as an audit does; it tracked audit times more closely than
    integer arithmetic did (see README.md)."""
    times = []
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        table = {}
        for i in range(CAL_ENTRIES):
            table[i, i & 7] = [i]
        total = 0
        for key in table:
            total += table[key][0]
        times.append(time.perf_counter() - start)
    return statistics.fmean(times)


def check_report(text: bytes, exit_code: int, truth: dict) -> list[str]:
    """Differences between one audit's output and the generator's truth."""
    try:
        doc = json.loads(text)
    except ValueError:
        return [f"stdout is not JSON (exit code {exit_code})"]
    problems = []
    if exit_code != truth["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {truth['exit_code']}")
    try:
        metrics = doc["metrics"]
        got = {
            "formula_cells": metrics["formula_cells"],
            "unique_formulae": metrics["unique_formulae"],
            "error_probability_pct": metrics["error_probability_pct"],
            "stale": sorted(f"{e['location']['sheet']}!{e['location']['cell']}"
                            for e in doc["staleness"]["entries"]),
            "findings": dict(sorted(collections.Counter(f["rule_id"] for f in doc["findings"]).items())),
        }
    except (KeyError, TypeError) as exc:
        return problems + [f"report lacks {exc}"]
    for key, value in got.items():
        if value != truth[key]:
            shown = (len(value), len(truth[key])) if key == "stale" else (value, truth[key])
            problems.append(f"{key}: got {shown[0]}, expected {shown[1]}")
    return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def loadavg() -> list[str] | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_start": loadavg(),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout; None when the checkout is not a git repository
    (the ceiling stops git from reporting a repository that encloses it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Run:
    """One workload, one seed: generation, measurement and checking."""

    def __init__(self, workload: str, seed: int, seconds: float, env: dict, work: str) -> None:
        self.seconds, self.env, self.work = seconds, env, work
        data, self.truth = workloads.generate(workload, seed)
        self.path = os.path.join(work, f"{workload}-{seed}.wbjson")
        with open(self.path, "wb") as fh:
            fh.write(data)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []   # one line per failed audit or failed run-level check
        self.digests: set[str] = set()
        self.sizes = {k: v for k, v in self.truth.items() if k != "stale"}
        self.sizes["stale_cells"] = len(self.truth["stale"])

    def judge(self, text: bytes, exit_code: int, label: str) -> None:
        self.attempted += 1
        problems = check_report(text, exit_code, self.truth)
        self.digests.add(hashlib.sha256(text).hexdigest())
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: " + "; ".join(problems))

    def finish_digests(self) -> None:
        if len(self.digests) > 1:
            self.failures.append(f"report bytes differ across repetitions: {len(self.digests)} digests")

    def measure(self, argv: list[str], out: str, samples: dict[str, list[float]],
                wall: str) -> tuple[int, float]:
        """Spawn one child and calibrate after it; appends its wall time to
        ``samples[wall]`` and returns (exit code, peak RSS in MB)."""
        elapsed, code, rss = spawn(argv, self.env, out)
        samples["cal_s"].append(calibrate())
        samples[wall].append(elapsed)
        return code, rss

    def setup_s(self, spawns: int, samples: dict[str, list[float]]) -> None:
        """Time ``sheetsentry --version``: interpreter start-up plus importing
        the whole package, with no work."""
        argv = [sys.executable, "-m", "sheetsentry.cli", "--version"]
        out = os.path.join(self.work, "version.out")
        for _ in range(spawns):
            code, _ = self.measure(argv, out, samples, "setup_wall_s")
            with open(out, "rb") as fh:
                banner = fh.read()
            if code != 0 or not banner.startswith(b"sheetsentry"):
                raise BenchError(f"--version exited {code} with {banner[:80]!r}")

    def end_to_end(self) -> dict[str, list[float]]:
        argv = [sys.executable, "-m", "sheetsentry.cli", "audit", "--format", "json", self.path]
        out = os.path.join(self.work, "audit.out")
        samples: dict[str, list[float]] = {name: [] for name in (*END_TO_END, *WALL)}
        start = time.perf_counter()
        samples["cal_s"].append(calibrate())
        self.setup_s(SETUP_SPAWNS_FIRST, samples)
        while True:
            code, rss = self.measure(argv, out, samples, "audit_s")
            with open(out, "rb") as fh:
                self.judge(fh.read(), code, f"audit {self.attempted + 1}")
            samples["peak_rss_mb"].append(rss)
            self.setup_s(SETUP_SPAWNS_EACH, samples)
            # start another audit only if it is expected to end within the budget
            if time.perf_counter() - start + statistics.median(samples["audit_s"]) > self.seconds:
                break
        self.finish_digests()
        cells = self.truth["formula_cells"]
        samples["formula_cells_per_s"] = [cells / t for t in samples["audit_s"]]
        # the run's wall times at the reference speed
        scale = REF_CAL_S / statistics.fmean(samples["cal_s"])
        samples["audit_ref_s"] = [t * scale for t in samples["audit_s"]]
        samples["setup_s"] = [t * scale for t in samples["setup_wall_s"]]
        return samples

    def traced(self) -> tuple[dict[str, list[float]], list[dict]]:
        script = os.path.join(HERE, "tracer.py")
        layers: dict[str, list[float]] = {}
        traces = []
        overheads = []
        start = time.perf_counter()
        while True:
            pair_start = time.perf_counter()
            results = {}
            for mode in ("traced", "plain"):
                out = os.path.join(self.work, f"{mode}.json")
                _, code, _ = spawn([sys.executable, script, "--mode", mode, self.path, out],
                                   self.env, out + ".log")
                if code != 0:
                    with open(out + ".log.err", "rb") as fh:
                        err = fh.read().decode(errors="replace").strip().splitlines()
                    raise BenchError(f"{mode} audit exited {code}: {err[-1] if err else ''}")
                with open(out) as fh:
                    results[mode] = json.load(fh)
                with open(out + ".report", "rb") as fh:
                    # the in-process audit has no exit code; use the expected one
                    self.judge(fh.read(), self.truth["exit_code"], f"{mode} audit")
            traces.append(results["traced"]["trace"])
            for key, value in results["traced"]["metrics"].items():
                layers.setdefault(key, []).append(value)
            overheads.append(results["traced"]["audit_s"] / results["plain"]["audit_s"] - 1.0)
            pair_s = time.perf_counter() - pair_start
            if time.perf_counter() - start + pair_s > self.seconds:
                break
        self.finish_digests()
        for key, values in layers.items():
            if layer_unit(key) in ("count", "bytes") and len(set(values)) > 1:
                self.failures.append(f"counter {key} differs across traced runs: {sorted(set(values))}")
        layers["trace.overhead_frac"] = overheads
        return layers, traces


def summarize(samples: dict[str, list[float]], units) -> dict[str, dict]:
    out = {}
    for name, values in samples.items():
        q1, med, q3 = quartiles([float(v) for v in values])
        out[name] = {"value": med, "unit": units(name), "q1": q1, "q3": q3, "n": len(values),
                     "samples": values}
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    # a fixed path, so the report (which names the file) is the same on every run
    work = os.path.join(WORK, f"{workload}-{seed}")
    os.makedirs(work, exist_ok=True)
    try:
        run = Run(workload, seed, seconds, env, work)
        if trace:
            layers, traces = run.traced()
            metrics = summarize(layers, layer_unit)
        else:
            traces = []
            metrics = summarize(run.end_to_end(), {**END_TO_END, **WALL}.get)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "sizes": run.sizes, "attempted": run.attempted,
        "failed": run.failed, "failures": run.failures, "metrics": metrics,
    }
    if traces:
        result["spans"] = traces
    return result


def print_result(result: dict) -> None:
    sizes = result["sizes"]
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{sizes['formula_cells']:,} formula cells in {sizes['unique_formulae']:,} copy classes, "
          f"{sizes['cells']:,} cells, {sizes['file_bytes']:,} bytes, "
          f"{sizes['stale_cells']:,} stale, findings {sizes['findings']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<38} {m['value']:>14.6g} {m['unit']:<6} "
              f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':<38} {failed / attempted if attempted else 1.0:>14.6g} ratio  "
          f"({failed}/{attempted} audits failed the correctness check)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sheetsentry audit benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = child_env()
    machine = machine_info()
    try:
        check_checkout(env)
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace), env)
                   for name in names]
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    machine["loadavg_end"] = loadavg()

    print("machine " + json.dumps(machine, sort_keys=True))
    for result in results:
        print_result(result)
    os.makedirs(RESULTS, exist_ok=True)
    record_path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json")
    with open(record_path, "w") as fh:
        json.dump({"machine": machine, "results": results}, fh, indent=1)
    print(f"record written to {os.path.relpath(record_path, ROOT)}")

    prefix = len(results) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + k: {"value": m["value"], "unit": m["unit"]}
               for r in results for k, m in r["metrics"].items() if args.trace or k in END_TO_END}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = not any(r["failures"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
