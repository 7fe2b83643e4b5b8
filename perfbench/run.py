"""Benchmark of ballharm: time to a certificate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --summary [--seed N] [--seconds S]

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: zonal-deep, full-kind, sweep-small (see perfbench/README.md).

One run generates the workload's inputs from the seed, times set-up (fresh
interpreters importing ballharm), then runs the fixed request list in a
fresh worker process -- again, each time in a new process, while another
pass still fits in ``--seconds`` -- and checks every answer with the
oracle.  With ``--trace 1`` it runs one untraced and one traced pass and
reports the per-layer metrics instead.  The last line of standard output is
a JSON object with the keys correct, attempted, failed and metrics.

``--summary`` runs each workload untraced and traced, prints every metric
with its unit and failed_frac, and checks that report digests match
between the two runs.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_p50_s", "s"),
    ("req_p90_s", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_PROBES = 2  # import-only interpreters per run, besides each pass's own
RUN_DEADLINE_S = 170.0  # a run gives up (exit 1) rather than overrun 180 s
WORK_ROOT = ".perfbench_work"
RECORD_ROOT = ".perfbench_out"


class BenchError(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    # one BLAS thread (never more than nproc): the program's products are
    # matrix-vector sized, and a second thread only adds spin-wait noise
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def metadata():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(worker_env()["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc(),
        "cpu": cpu,
    }


class Runner:
    def __init__(self, deadline):
        self.deadline = deadline
        self.env = worker_env()

    def _wait(self, proc):
        try:
            return proc.wait(timeout=max(self.deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("run deadline exceeded") from None

    def spawn(self, args, stderr_path):
        """Start a worker; returns (process, seconds until it was ready)."""
        t0 = time.perf_counter()
        with open(stderr_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py")] + args,
                stdout=subprocess.PIPE, stderr=err, env=self.env,
            )
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != b"ready":
            self._wait(proc)
            raise BenchError(f"worker failed to start: {_tail(stderr_path)}")
        return proc, ready

    def finish(self, proc, stderr_path):
        proc.stdout.read()
        proc.stdout.close()
        if self._wait(proc) != 0:
            raise BenchError(f"worker exited {proc.returncode}: {_tail(stderr_path)}")

    def setup_probe(self, workdir):
        err = os.path.join(workdir, "probe.err")
        proc, ready = self.spawn(["--ready-only"], err)
        self.finish(proc, err)
        return ready

    def run_pass(self, workdir, index, trace, references):
        req = os.path.join(workdir, "requests.json")
        res = os.path.join(workdir, f"pass-{index}.json")
        err = os.path.join(workdir, f"pass-{index}.err")
        args = [req, res] + (["--trace"] if trace else []) + (["--references"] if references else [])
        proc, ready = self.spawn(args, err)
        self.finish(proc, err)
        with open(res, encoding="utf-8") as fh:
            out = json.load(fh)
        out["ready_s"] = ready
        return out


def _tail(path):
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            lines = fh.read().strip().splitlines()
    except OSError:
        return ""
    return " | ".join(lines[-3:])


def write_inputs(wl):
    if os.path.exists(wl.workdir):
        shutil.rmtree(wl.workdir)
    os.makedirs(wl.workdir)
    for path, payload in wl.files.items():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    with open(os.path.join(wl.workdir, "requests.json"), "w", encoding="utf-8") as fh:
        json.dump({"requests": wl.requests, "references": wl.references}, fh)


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def judge(wl, passes):
    """Per-request oracle verdicts, plus digest agreement across passes."""
    first = passes[0]
    refs = {r["id"]: r for r in first.get("references", [])}
    rows = []
    for i, result in enumerate(first["results"]):
        try:
            failed, wrong, reason = oracle.check(wl.expect[result["id"]], result, refs)
        except (KeyError, TypeError, ValueError) as exc:
            failed, wrong, reason = True, True, f"report not understood: {exc!r}"
        digests = {p["results"][i]["digest"] for p in passes}
        if len(digests) > 1:
            failed, wrong = True, True
            reason = (reason + "; " if reason else "") + "report digest differs between passes"
        rows.append({"id": result["id"], "failed": failed, "wrong": wrong, "reason": reason,
                     "seconds": result["seconds"], "digest": result["digest"],
                     "request": _describe(wl.requests[i])})
    return rows


def _describe(request):
    if request["kind"] == "cli":
        argv = request["argv"]
        if request["out"]:
            argv = argv[:-2]  # drop "--out PATH"
        return " ".join(argv)
    return f"{request['kind']} {request['multiplier']}"


def end_to_end(setup, passes):
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "req_p50_s": statistics.median(
            statistics.median(r["seconds"] for r in p["results"]) for p in passes),
        "req_p90_s": statistics.median(
            percentile([r["seconds"] for r in p["results"]], 90) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced, traced):
    out = dict(traced["layers"])
    out["proc.cpu_s"] = untraced["cpu_s"]
    out["proc.trace_overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    return out


def run_once(name, seed, seconds, trace):
    wl = workloads.build(name, seed, f"{WORK_ROOT}/{name}-{seed}")
    runner = Runner(time.monotonic() + RUN_DEADLINE_S)
    write_inputs(wl)
    try:
        setup = [runner.setup_probe(wl.workdir) for _ in range(SETUP_PROBES)]
        t_start = time.perf_counter()
        passes = [runner.run_pass(wl.workdir, 0, False, True)]
        if trace:
            passes.append(runner.run_pass(wl.workdir, 1, True, False))
        else:
            while time.perf_counter() - t_start + passes[-1]["wall_s"] <= seconds:
                passes.append(runner.run_pass(wl.workdir, len(passes), False, False))
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)
    setup += [p["ready_s"] for p in passes]

    rows = judge(wl, passes)
    meta = dict(metadata(), have_numba=passes[0]["have_numba"], workload=name, seed=seed,
                passes=len(passes), requests=len(rows), setup_samples=len(setup))
    if trace:
        values, units = per_layer(passes[0], passes[1]), dict(PER_LAYER)
    else:
        values, units = end_to_end(setup, passes), dict(END_TO_END)
    failed = sum(r["failed"] for r in rows)
    result = {
        "correct": not any(r["wrong"] for r in rows),
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {"meta": meta, "result": result, "requests": rows}
    if trace:
        record["self_by_layer"] = passes[1]["self_by_layer"]
        record["span_count"] = passes[1]["span_count"]
    os.makedirs(RECORD_ROOT, exist_ok=True)
    with open(f"{RECORD_ROOT}/{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(record):
    meta, result = record["meta"], record["result"]
    print("meta " + json.dumps(meta, sort_keys=True))
    for key, m in result["metrics"].items():
        print(f"  {key:40s} {m['value']:>16.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':40s} {frac:>16.6g} fraction "
          f"({result['failed']} of {result['attempted']} requests)")
    for row in record["requests"]:
        if row["failed"]:
            tag = "WRONG" if row["wrong"] else "refused"
            print(f"  {tag} #{row['id']} {row['request']}: {row['reason']}")
    if "self_by_layer" in record:
        wall = result["metrics"]["trace.wall_s"]["value"]
        print(f"  self time by layer (traced wall {wall:.3f} s, {record['span_count']} spans):")
        for name, t in sorted(record["self_by_layer"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:32s} {t:10.3f} s {100 * t / wall:6.1f} %")


def summary(seed, seconds):
    """Untraced and traced run of every workload; digests must match."""
    ok = True
    for name in workloads.WORKLOADS:
        records = [run_once(name, seed, seconds, trace) for trace in (False, True)]
        print(f"== {name} (seed {seed})")
        for record in records:
            print_record(record)
        same = sum(a["digest"] == b["digest"]
                   for a, b in zip(records[0]["requests"], records[1]["requests"]))
        print(f"  report digests equal between the untraced and traced runs: "
              f"{same} of {len(records[0]['requests'])}")
        ok &= same == len(records[0]["requests"]) and all(r["result"]["correct"] for r in records)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "ballharm", "__init__.py")):
        print("error: run from the root of a ballharm checkout (src/ballharm is missing)",
              file=sys.stderr)
        return 2
    try:
        if args.summary:
            return summary(args.seed, args.seconds)
        if args.workload is None:
            parser.error("--workload is required")
        record = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
