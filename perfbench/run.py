"""End-to-end and per-layer benchmark of vhcert.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is the checkout's src/vhcert.
Each pass runs in its own fresh interpreter, one at a time, so nothing
cached in the library survives from one pass to the next and the peak RSS
is that of one pass.  A closed loop: one client, one request at a time.

--trace 0 reports the end-to-end metrics: setup_s (median of set-up-only
children spread over the run), pass_s, verdict_p50_s, verdict_tail_s and
peak_rss_mb (medians over the passes or requests of the run; pass_s and
verdict_p50_s count an input that the run met twice, as closure-enum's
fixed panel allows, once).  --trace 1 runs each
pass traced and then untraced and reports the per-layer metrics of
spans.py; counts come from pass 0, times are medians over the passes.
The last stdout line is one JSON object; a wrong answer makes it read
"correct": false and the exit code 1.  Without vhcert sources the run
exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
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
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

import gen  # noqa: E402
import spans  # noqa: E402
from worker import CERT_ARGS, GOLDEN, Mismatch, check_certificate  # noqa: E402

WORKLOADS = ("sigma-cert", "local-groups", "closure-enum", "cap-exhaust")
SETUP_PROBES = 15
# A run has to end within 180 s, whatever --seconds asks for.
DEADLINE_S = 170.0
TAIL_BEYOND = 10


class ChildFailed(Exception):
    pass


class Child:
    """One finished child process: its exit code, wall time and peak RSS."""

    def __init__(self, argv, limit, log_prefix):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        out_path, err_path = log_prefix + ".out", log_prefix + ".err"
        timed_out = []
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            self.spawned = time.monotonic()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )

            def kill(signum, frame):
                if proc.returncode is None:
                    timed_out.append(True)
                    proc.kill()

            previous = signal.signal(signal.SIGALRM, kill)
            signal.setitimer(signal.ITIMER_REAL, max(limit, 0.001))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self.wall = time.monotonic() - self.spawned
        self.code = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(out_path, "rb") as fh:
            self.stdout = fh.read()
        with open(err_path, "rb") as fh:
            self.stderr = fh.read().decode("utf-8", "replace")
        if timed_out:
            raise ChildFailed(f"{' '.join(argv[1:4])}: killed at the run's deadline")

    def result(self):
        """The worker's JSON line, or ChildFailed."""
        lines = self.stdout.decode("utf-8", "replace").strip().splitlines()
        if self.code != 0 or not lines:
            tail = self.stderr.strip().splitlines()[-1:] or ["no output"]
            raise ChildFailed(f"worker exited with {self.code}: {tail[0]}")
        return json.loads(lines[-1])


class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + DEADLINE_S
        self.dir = os.path.join(WORK, workload)
        self.attempted = 0
        self.errors = []

    def limit(self):
        return self.deadline - time.monotonic()

    def inputs(self, index):
        path = os.path.join(self.dir, f"pass_{index}")
        if not os.path.isdir(path):
            gen.write_pass(ROOT, self.workload, self.seed, index, path)
        return path

    def worker(self, mode, index, spans_file=None):
        argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, self.workload,
                self.inputs(index)]
        if spans_file is not None:
            argv += ["--trace", spans_file]
        tag = f"{mode}_{index}{'_traced' if spans_file else ''}"
        child = Child(argv, self.limit(), os.path.join(self.dir, tag))
        return child, child.result()

    def setup_probe(self):
        child, result = self.worker("setup", 0)
        return result["ready"] - child.spawned

    def cli_request(self, index):
        """One untraced sigma-cert request: a fresh `python -m vhcert`."""
        child = Child([sys.executable, "-m", "vhcert", *CERT_ARGS], self.limit(),
                      os.path.join(self.dir, f"cli_{index}"))
        self.attempted += 1
        try:
            if child.code != 0:
                raise Mismatch(f"exit code {child.code}")
            with open(GOLDEN, "rb") as fh:
                if child.stdout != fh.read():
                    raise Mismatch("certificate differs from the golden file")
            check_certificate(json.loads(child.stdout))
        except (Mismatch, ValueError) as exc:
            self.errors.append(f"simple-cert: {exc}")
        return {"pass_s": child.wall, "requests": [child.wall], "inputs": [index],
                "rss_mb": child.rss_mb}

    def worker_pass(self, index, spans_file=None):
        child, result = self.worker("pass", index, spans_file)
        for label, _, error in result["requests"]:
            self.attempted += 1
            if error is not None:
                self.errors.append(f"{label}: {error}")
        result["inputs"] = [self.input_key(index, label) for label, _, _ in result["requests"]]
        result["requests"] = [seconds for _, seconds, _ in result["requests"]]
        result["rss_mb"] = child.rss_mb
        result["wall"] = child.wall
        return result

    def input_key(self, index, label):
        """What identifies a request's input: closure-enum's labels name
        members of the fixed panel, which a run can meet more than once;
        every other pass has inputs of its own."""
        return label if self.workload == "closure-enum" else f"{index}:{label}"

    def untraced_pass(self, index):
        if self.workload == "sigma-cert":
            return self.cli_request(index)
        return self.worker_pass(index)

    def measure(self, one_iteration):
        """Repeat one_iteration(index) while the next one fits in --seconds."""
        begin = time.monotonic()
        walls = []
        index = 0
        while True:
            t0 = time.monotonic()
            one_iteration(index)
            walls.append(time.monotonic() - t0)
            index += 1
            elapsed = time.monotonic() - begin
            if elapsed + statistics.median(walls) > self.seconds:
                return index


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0, len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def end_to_end(run):
    setups, passes = [], []
    begin = time.monotonic()

    def iteration(i):
        # Set-up probes are spread over the run, so that their median sees
        # the machine in the same state as the passes do.
        due = 1 + SETUP_PROBES * (time.monotonic() - begin) / run.seconds
        while len(setups) < due:
            setups.append(run.setup_probe())
        passes.append(run.untraced_pass(i))

    count = run.measure(iteration)
    while len(setups) < SETUP_PROBES:
        setups.append(run.setup_probe())
    requests = [s for p in passes for s in p["requests"]]
    # An input (or a pass's inputs) met twice counts once, with its median
    # time, so that a run which stops part-way through closure-enum's panel
    # is not weighted towards the labellings it happened to meet twice.
    by_input, by_pass = {}, {}
    for p in passes:
        by_pass.setdefault(tuple(p["inputs"]), []).append(p["pass_s"])
        for key, seconds in zip(p["inputs"], p["requests"]):
            by_input.setdefault(key, []).append(seconds)
    with open(os.path.join(run.dir, "samples.json"), "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setups, "passes": passes}, fh)
    value, pct, n = tail(requests)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(statistics.median(v) for v in by_pass.values()), "s"),
        "verdict_p50_s": (statistics.median(statistics.median(v) for v in by_input.values()), "s"),
        "verdict_tail_s": (value, "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    notes = (f"passes={count} inputs={len(by_input)} verdict_tail=p{pct:.1f} of {n} requests,"
             f" setup probes={len(setups)}")
    return metrics, notes


def per_layer(run):
    traced, overheads = [], []

    def iteration(i):
        spans_file = os.path.join(run.dir, f"spans_{i}.jsonl")
        t = run.worker_pass(i, spans_file)
        u = run.untraced_pass(i)
        key = "wall" if run.workload == "sigma-cert" else "pass_s"
        overheads.append(t[key] - u["pass_s"])
        traced.append(t)

    count = run.measure(iteration)
    first = traced[0]["layers"]
    metrics = {}
    for name, (unit, _) in spans.METRICS.items():
        if name == "cli.import_s":
            value = statistics.median(t["import_s"] for t in traced)
        elif name == "trace.overhead_s":
            value = statistics.median(overheads)
        elif unit == "s":
            value = statistics.median(t["layers"][name] for t in traced)
        else:
            value = first[name]
        metrics[name] = (value, unit)
    return metrics, f"traced passes={count} (counts from pass 0, times are medians)"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for need in (os.path.join(SRC, "vhcert", "__init__.py"), GOLDEN):
        if not os.path.isfile(need):
            print(f"perfbench: {need} is missing; run from a vhcert checkout", file=sys.stderr)
            return 2

    run = Run(args.workload, args.seed, args.seconds, args.trace)
    shutil.rmtree(run.dir, ignore_errors=True)
    os.makedirs(run.dir)
    try:
        metrics, notes = (per_layer if args.trace else end_to_end)(run)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    failed = len(run.errors)
    for error in run.errors[:20]:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    print(f"perfbench workload={run.workload} seed={run.seed} trace={run.trace} {notes}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_ratio = {failed / run.attempted:.6g} ({failed} of {run.attempted} requests)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
