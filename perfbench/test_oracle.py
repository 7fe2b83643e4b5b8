"""Tests of the correctness oracle: which exit codes make a run incorrect.
Run with ``python3 -m pytest perfbench``."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _mult_check_payload(cond2, probe, equivalence):
    return {"verdicts": {"condition2": cond2, "probe": probe, "equivalence": equivalence}}


def _judge_one(rc, payload, expect, stderr=""):
    """Correctness of a one-request run whose result is (rc, payload)."""
    wl = workloads.Workload("test", 1, "w")
    wl.cli(["mult-check", "--multiplier", "ones"], expect, out="w/out.json")
    result = {"id": 0, "rc": rc, "seconds": 1.0, "digest": "d", "payload": payload,
              "stderr": stderr}
    rows = run.judge(wl, [{"results": [result]}])
    return not any(r["wrong"] for r in rows), rows[0]


BOUNDED = {"check": "verdict", "bounded": True, "equivalence": True}


def test_exit_4_disagreement_makes_the_run_incorrect():
    correct, row = _judge_one(4, _mult_check_payload("bounded", "unbounded", "FAIL"), BOUNDED)
    assert not correct and row["failed"]
    assert row["reason"].startswith("exit 4: verdicts bounded/unbounded/FAIL")


def test_exit_5_inconclusive_makes_the_run_incorrect():
    correct, row = _judge_one(5, _mult_check_payload("bounded", "inconclusive", "INCONCLUSIVE"),
                              BOUNDED)
    assert not correct and row["failed"]


def test_exit_4_without_a_report_makes_the_run_incorrect():
    correct, _ = _judge_one(4, None, BOUNDED)
    assert not correct


def test_usage_exit_and_traceback_make_the_run_incorrect():
    for rc in (1, 2, -1):
        correct, row = _judge_one(rc, None, BOUNDED, stderr="error: boom")
        assert not correct and row["failed"], rc


def test_accuracy_refusal_fails_the_request_but_not_the_run():
    expect = {"check": "norm", "closed_form": None}
    result = {"rc": 3, "payload": None, "stderr": "accuracy failure: not settled"}
    failed, wrong, reason = oracle.check(expect, result, {})
    assert failed and not wrong
    assert "accuracy failure" in reason


def test_matching_verdicts_pass():
    correct, row = _judge_one(0, _mult_check_payload("bounded", "bounded", "PASS"), BOUNDED)
    assert correct and not row["failed"]
