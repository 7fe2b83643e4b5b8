"""Correctness oracle, applied outside the timed region.

A request fails when it got no correct answer: a nonzero exit code
(refusals included), a traceback, a wrong verdict, a value off its closed
form or reference, or a report whose digest differs between passes.  A
failure is also *wrong* -- the run is not correct -- unless it is a refusal:
exit 3 (``EXIT_ACCURACY``), where the program declines to give an answer.
Exits 4 and 5 of ``mult-check`` (the two verdicts disagree, or the check is
inconclusive) come with a report, whose verdicts are checked like any other;
every other nonzero exit is wrong.
"""

import math

REFUSAL_EXIT = 3  # EXIT_ACCURACY: no answer given
VERDICT_EXITS = (4, 5)  # EXIT_DISAGREE, EXIT_INCONCLUSIVE: mult-check report written
# |closed form - norm| / norm for q = p = 2 under the definition convention
NORM_RTOL = 1e-9
# |reference - value| / |reference| for raw integrals of constant-block full
# multipliers against the zonal sequence of the block constants
FULL_ZONAL_RTOL = 1e-2
# |closed form - value| / max(1, |closed form|) for Poisson kernel values
KERNEL_TOL = 1e-7
PQ_CONSISTENCY = 1e-8


def _verdicts(payload):
    """(condition2, probe, equivalence) verdicts from a report payload."""
    if "verdicts" in payload:  # mult-check report
        v = payload["verdicts"]
        return v["condition2"], v["probe"], v["equivalence"]
    return payload["verdict"], None, None


def _check_verdict(expect, payload):
    want = "bounded" if expect["bounded"] else "unbounded"
    cond2, probe, equivalence = _verdicts(payload)
    if expect["equivalence"]:
        if (cond2, probe, equivalence) != (want, want, "PASS"):
            return f"verdicts {cond2}/{probe}/{equivalence}, theory says {want}/{want}/PASS"
    elif cond2 != want:
        return f"verdict {cond2}, theory says {want}"
    return None


def _check_reference(payload, ref):
    if ref is None or ref["rc"] != 0 or ref["payload"] is None:
        return "reference computation failed"
    got, want = payload["raw_integrals"], ref["payload"]["raw_integrals"]
    worst = max(abs(g - w) / abs(w) for g, w in zip(got, want))
    if not worst <= FULL_ZONAL_RTOL:
        return f"raw integrals differ from the zonal reference by {worst:.3g}"
    return None


def _check_norm(expect, payload):
    values = payload["values"]
    norm = values["norm"]
    if not (math.isfinite(norm) and norm > 0.0):
        return f"norm {norm!r}"
    closed = expect["closed_form"]
    if closed is not None and not abs(norm - closed) <= NORM_RTOL * closed:
        return f"norm {norm!r} differs from the closed form {closed!r}"
    if "pq_consistency" in values and not values["pq_consistency"] <= PQ_CONSISTENCY:
        return f"pq_consistency {values['pq_consistency']!r}"
    return None


def _check_kernel(expect, payload):
    if payload is None:
        return "no report"
    value = payload["values"]["value"]
    if not math.isfinite(value):
        return f"kernel value {value!r}"
    want = expect["value"]
    if want is not None and not abs(value - want) <= KERNEL_TOL * max(1.0, abs(want)):
        return f"kernel value {value!r} differs from the closed form {want!r}"
    return None


def check(expect, result, references):
    """(failed, wrong, reason) for one request result."""
    rc = result["rc"]
    last = ((result["stderr"] or "").splitlines()[-1:] or [""])[0][:160]
    if rc == REFUSAL_EXIT:
        return True, False, f"refused, exit {rc}: {last}"
    payload = result["payload"]
    kind = expect["check"]
    if rc != 0 and not (rc in VERDICT_EXITS and kind == "verdict" and payload is not None):
        return True, True, f"traceback: {last}" if rc == -1 else f"exit {rc}: {last}"
    if kind == "ok":
        reason = None
    elif payload is None:
        reason = "no report"
    elif kind == "verdict":
        reason = _check_verdict(expect, payload)
        if reason is None and "reference" in expect:
            reason = _check_reference(payload, references.get(expect["reference"]))
    elif kind == "norm":
        reason = _check_norm(expect, payload)
    elif kind == "lemma":
        reason = None if payload["verdicts"]["pass"] is True else "lemma check did not pass"
    elif kind == "kernel":
        reason = _check_kernel(expect, payload)
    else:
        raise ValueError(f"unknown check {kind!r}")
    if rc != 0:
        reason = f"exit {rc}: " + (reason or "verdicts match theory, exit code does not")
    return reason is not None, reason is not None, reason
