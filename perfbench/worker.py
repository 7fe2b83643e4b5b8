"""One closed-loop client in a fresh interpreter.

    python3 perfbench/worker.py --ready-only
    python3 perfbench/worker.py REQUESTS.json RESULTS.json [--trace] [--references]

Imports ``ballharm`` (from ``src/`` through PYTHONPATH), prints ``ready`` and,
unless ``--ready-only``, runs the requests one after another: the next one
starts only when the previous one has returned.  Each request is timed on
its own; its report is digested and kept for the oracle outside the timed
region.  With ``--trace`` the layer boundaries are wrapped and the spans
aggregated into per-layer metrics; with ``--references`` the untimed
oracle requests run after the timed ones.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import ballharm
import scipy.special
from ballharm import _zonalseries, cli, expansion, lemmas, multipliers, quadrature, reports, specfun


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _theorem_params(d):
    return multipliers.TheoremParams(
        p=d["p"], alpha=d["alpha"], beta=d["beta"], m=d["m"], dim=d["dim"]
    )


def execute(request):
    """Run one request; returns (exit code, stdout, stderr, report object)."""
    kind = request["kind"]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(request["argv"])
        return rc, out.getvalue(), err.getvalue(), None
    if kind == "condition2_sup":
        mult = expansion.load_multiplier(request["multiplier"])
        report = multipliers.condition2_sup(
            mult,
            _theorem_params(request["params"]),
            j_levels=request["j_levels"],
            direction_count=request["direction_count"],
        )
        return 0, "", "", report
    if kind == "probe":
        report = multipliers.probe_operator_norm(
            multipliers.multiplier_family(request["multiplier"]),
            _theorem_params(request["params"]),
            family=request["family"],
            sizes=tuple(request["sizes"]),
            seed=request["seed"],
        )
        return 0, "", "", report
    raise ValueError(f"unknown request kind {kind!r}")


def _collect(request, rc, stdout, report):
    """Digest and payload of a finished request (outside the timed region)."""
    digest = hashlib.sha256(stdout.encode("utf-8"))
    payload = None
    if report is not None:
        text = reports.dumps(report.to_payload())
        digest.update(text.encode("utf-8"))
        payload = report.to_payload()
    out = request.get("out")
    if out and os.path.exists(out):
        with open(out, "rb") as fh:
            data = fh.read()
        digest.update(data)
        if request.get("report") == "out":
            payload = json.loads(data)
    if request.get("report") == "stdout" and "{" in stdout:
        payload = json.loads(stdout[stdout.index("{"):])
    return digest.hexdigest(), payload


def run(requests, tracer=None):
    results = []
    for request in requests:
        if request.get("out") and os.path.exists(request["out"]):
            os.remove(request["out"])
        scope = tracer.request(request["id"]) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with scope:
            try:
                rc, stdout, stderr, report = execute(request)
            except Exception:
                rc, stdout, report = -1, "", None
                stderr = traceback.format_exc(limit=4)
        seconds = time.perf_counter() - t0
        digest, payload = _collect(request, rc, stdout, report)
        results.append({"id": request["id"], "rc": rc, "seconds": seconds,
                        "digest": digest, "payload": payload, "stderr": stderr.strip()})
    return results


def timed(requests, tracer=None):
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    results = run(requests, tracer)
    return {"results": results, "wall_s": time.perf_counter() - t0,
            "cpu_s": _cpu_seconds() - cpu0}


def main(argv):
    print("ready", flush=True)
    if "--ready-only" in argv:
        return 0
    src = os.path.abspath("src")
    if not os.path.abspath(ballharm.__file__).startswith(src + os.sep):
        print(f"ballharm was not imported from {src}", file=sys.stderr)
        return 2
    requests_path, results_path = argv[0], argv[1]
    with open(requests_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {"have_numba": bool(_zonalseries._HAVE_NUMBA)}
    if "--trace" in argv:
        from layers import aggregate, self_time_by_layer, targets
        from spans import Tracer

        modules = {
            "_zonalseries": _zonalseries, "cli": cli, "expansion": expansion,
            "lemmas": lemmas, "multipliers": multipliers, "quadrature": quadrature,
            "reports": reports, "specfun": specfun,
        }
        with Tracer().patch(targets(modules, scipy.special), "ballharm") as tracer:
            out.update(timed(spec["requests"], tracer))
        out["layers"] = aggregate(tracer.spans)
        out["self_by_layer"] = self_time_by_layer(tracer.spans)
        out["span_count"] = len(tracer.spans)
    else:
        out.update(timed(spec["requests"]))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if "--references" in argv:
        out["references"] = run(spec["references"])
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
