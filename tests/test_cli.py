import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ballharm import HarmonicExpansion, reports, save_expansion
from ballharm.cli import main


@pytest.fixture
def const_file(tmp_path):
    path = tmp_path / "const.json"
    save_expansion(HarmonicExpansion(2, "full", [[1.0]]), path)
    return str(path)


def test_norm_constant_file(const_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["norm", "--input", const_file, "--p", "1", "--q", "1", "--alpha", "0",
         "--out", str(out)]
    )
    assert code == 0
    rep = reports.load_from(out)
    assert rep["command"] == "norm"
    assert rep["values"]["norm"] == pytest.approx(0.5, rel=1e-12)
    assert rep["values"]["pq_consistency"] <= 1e-10
    assert "norm = 0.5" in capsys.readouterr().out


def test_norm_report_roundtrips(const_file, tmp_path):
    out = tmp_path / "report.json"
    main(["norm", "--input", const_file, "--out", str(out)])
    text = out.read_text()
    assert reports.dumps(reports.loads(text)) == text
    assert list(reports.loads(text).keys()) == [
        "command", "version", "seed", "parameters", "tolerances", "values", "verdicts",
    ]


def test_norm_malformed_block_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "kind": "full", "coeffs": [[1.0], [1.0, 2.0, 3.0]]}')
    code = main(["norm", "--input", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "block 1" in err and "d_1 = 2" in err
    for text, what in (('{"dim": 3, "kind": "full", "coeffs": 5}', "sequence of blocks"),
                       ('{"dim": 3, "kind": "full", "coeffs": [[1.0], {"a": 1}]}', "block 1")):
        bad.write_text(text)
        assert main(["norm", "--input", str(bad)]) == 2
        assert what in capsys.readouterr().err


def test_norm_nan_coefficient_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"dim": 3, "kind": "zonal", "pole": [0.0, 0.0, 1.0], "coeffs": [1.0, NaN]}')
    assert main(["norm", "--input", str(bad)]) == 2
    assert "finite" in capsys.readouterr().err


def test_mult_check_infinite_multiplier_exits_2(tmp_path, capsys):
    bad = tmp_path / "inf.json"
    bad.write_text('{"dim": 3, "kind": "zonal", "coeffs": [1.0, Infinity, 0.5]}')
    code = main(["mult-check", "--alpha", "0.5", "--beta", "0.25", "--multiplier", str(bad)])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    bad.write_text('{"dim": 3, "kind": "full", "coeffs": 5}')
    code = main(["mult-check", "--alpha", "0.5", "--beta", "0.25", "--multiplier", str(bad)])
    assert code == 2
    assert "sequence of blocks" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["norm", "mult-check"])
@pytest.mark.parametrize(
    "text,what",
    [
        ('{"dim": null, "kind": "zonal", "pole": [0.0, 0.0, 1.0], "coeffs": [1.0]}',
         "'dim' must be an integer"),
        ('{"dim": 3.7, "kind": "zonal", "pole": [0.0, 0.0, 1.0], "coeffs": [1.0]}',
         "'dim' must be an integer"),
        ('{"dim": 3, "kind": "zonal", "pole": [0.0, 0.0, 1.0], "coeffs": {"0": 1}}',
         "flat sequence"),
        ('{"dim": 3, "kind": "zonal", "pole": [0.0, 0.0, 1.0], "coeffs": [1.0, {"a": 1}]}',
         "numbers only"),
        ("5", "JSON object"),
    ],
)
def test_malformed_file_exits_2(command, text, what, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if command == "norm":
        argv = ["norm", "--input", str(bad)]
    else:
        argv = ["mult-check", "--alpha", "0.5", "--beta", "0.25", "--multiplier", str(bad)]
    assert main(argv) == 2
    assert what in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec,what",
    [
        ("powerlaw:-1", "got -1"),
        ("powerlaw:nan", "got nan"),
        ("powerlaw:inf", "got inf"),
        ("powerlaw:x", "'powerlaw:x'"),
        ("finite:abc", "'finite:abc'"),
        ("finite:-1", "got -1"),
        ("finite:1000000", "got 1000000"),
        ("gibberish", "'gibberish'"),
    ],
)
def test_mult_check_bad_family_exits_2(spec, what, capsys):
    # a spec that is not an existing file reports the family's own error
    argv = ["mult-check", "--alpha", "0.5", "--beta", "0.25", "--multiplier", spec,
            "--rho-levels", "4"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert what in err and "No such file" not in err


def test_norm_non_finite_series_exits_3(tmp_path, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text('{"dim": 3, "kind": "zonal", "pole": [0.0, 0.0, 1.0], '
                    '"coeffs": [1e308, -1e308, 1e308, -1e308]}')
    assert main(["norm", "--input", str(huge), "--p", "1", "--q", "1", "--alpha", "0.5"]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_norm_missing_file_exits_2(tmp_path):
    assert main(["norm", "--input", str(tmp_path / "nope.json")]) == 2


def test_norm_accuracy_failure_exits_3(tmp_path):
    rng = np.random.default_rng(5)
    from ballharm import sph_dim

    f = HarmonicExpansion(
        2, "full", [rng.standard_normal(sph_dim(2, k)) for k in range(17)]
    )
    path = tmp_path / "wiggly.json"
    save_expansion(f, path)
    # a 2-point radial rule cannot integrate a degree-16 expansion
    code = main(["norm", "--input", str(path), "--p", "2", "--q", "2", "--radial-N", "2"])
    assert code == 3


def test_kernel_writes_loadable_file(tmp_path):
    out = tmp_path / "kernel.json"
    code = main(
        ["kernel", "--dim", "3", "--m", "2", "--r-max", "0.8", "--tol", "1e-8",
         "--out", str(out)]
    )
    assert code == 0
    from ballharm import load_expansion

    k = load_expansion(out)
    assert k.kind == "zonal" and k.dim == 3
    assert k.coeffs[0] == pytest.approx(2.0 * 6.5625, rel=1e-12)  # 2 gamma_0(3, 2)


def test_kernel_eval_poisson_closed_form(capsys, tmp_path):
    out = tmp_path / "p.json"
    code = main(
        ["kernel", "--dim", "2", "--r-max", "0.6", "--tol", "1e-12",
         "--eval-r", "0.5", "--eval-t", "1.0", "--out", str(out)]
    )
    assert code == 0
    # the value printed on save goes only to the report; reload and check
    rep_code = main(["kernel", "--dim", "2", "--r-max", "0.6", "--tol", "1e-12",
                     "--eval-r", "0.5", "--eval-t", "1.0"])
    assert rep_code == 0
    text = capsys.readouterr().out
    payload = reports.loads(text[text.index("{"):])
    assert payload["values"]["value"] == pytest.approx(3.0, rel=1e-10)


@pytest.mark.parametrize("eval_r", ["0.95", "1.5", "-0.1"])
def test_kernel_eval_outside_tail_bound_radius_exits_2(eval_r, capsys):
    # the tail-bound degree guarantees --tol only for |x| <= r_max
    argv = ["kernel", "--dim", "3", "--m", "2", "--r-max", "0.9", "--eval-r", eval_r]
    assert main(argv) == 2
    assert "r_max" in capsys.readouterr().err
    assert main(argv[:-1] + ["0.9"]) == 0


@pytest.mark.parametrize("eval_r,code", [("0.95", 0), ("1.0", 2), ("1.5", 2), ("-0.1", 2)])
def test_kernel_eval_with_max_degree_needs_unit_ball(eval_r, code):
    argv = ["kernel", "--dim", "3", "--m", "2", "--r-max", "0.9", "--max-degree", "10",
            "--eval-r", eval_r]
    assert main(argv) == code


def test_lemma_command(tmp_path):
    out = tmp_path / "lemma.json"
    code = main(["lemma", "--id", "4", "--dim", "3", "--m", "2", "--out", str(out)])
    assert code == 0
    rep = reports.load_from(out)
    assert rep["verdicts"]["pass"] is True
    assert rep["values"]["measured"]["max_rel_error"] <= 1e-10


def test_failed_lemma_exits_1_and_writes_its_report(tmp_path, monkeypatch, capsys):
    from ballharm import cli
    from ballharm.lemmas import LemmaReport

    failed = LemmaReport(4, "forced", {"max_rel_error": 1.0}, 1e-10, False)
    monkeypatch.setattr(cli, "check_lemma4", lambda n, m: failed)
    out = tmp_path / "lemma.json"
    assert main(["lemma", "--id", "4", "--out", str(out)]) == 1
    assert "lemma 4: FAIL" in capsys.readouterr().out
    rep = reports.load_from(out)
    assert rep["verdicts"]["pass"] is False
    assert rep["values"]["measured"]["max_rel_error"] == 1.0


def test_help_lists_every_exit_code(capsys):
    assert main(["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for code in ("0 success", "1 a lemma or selftest check failed", "2 usage",
                 "3 accuracy", "4 theorem", "5 inconclusive"):
        assert code in text


def test_lemma_bad_id_exits_2():
    assert main(["lemma", "--id", "7"]) == 2


def test_lemma2_precondition_exits_2():
    assert main(["lemma", "--id", "2", "--alpha", "0.5", "--lam", "1.2"]) == 2


@pytest.mark.parametrize("argv", [["--id", "1", "--beta", "nan"], ["--id", "2", "--lam", "inf"],
                                  ["--id", "5", "--p", "nan"], ["--id", "6", "--m", "inf"]])
def test_lemma_non_finite_parameter_exits_2(argv, capsys):
    assert main(["lemma"] + argv) == 2
    assert "expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--m", "--r-max", "--tol", "--eval-r", "--eval-t"])
def test_kernel_non_finite_option_exits_2(option, capsys):
    assert main(["kernel", option, "nan"]) == 2
    assert "expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("lemma_id", ["4", "6"])
def test_lemma_rule_past_degree_cap_exits_2_quickly(lemma_id, capsys):
    # lemmas 4 and 6 size a Gauss-Jacobi rule by m; past the degree cap the
    # build would run for hours, so it is refused before it starts
    start = time.perf_counter()
    assert main(["lemma", "--id", lemma_id, "--m", "1e6"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "degree cap" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["300", "300.5", "1e6"])
def test_lemma1_overflowing_bound_exits_3_before_any_kernel(beta, monkeypatch, capsys):
    from ballharm import lemmas

    def kernel(*args):
        raise AssertionError("lemma 1 evaluated a kernel")

    monkeypatch.setattr(lemmas, "_growth_kernel", kernel)
    assert main(["lemma", "--id", "1", "--beta", beta]) == 3
    assert "bound terms are not finite" in capsys.readouterr().err


def test_mult_check_hypothesis_violation_quotes_constraint(capsys):
    code = main(["mult-check", "--alpha", "0.5", "--beta", "0.25", "--p", "1.5"])
    assert code == 2
    assert "0 < p <= 1" in capsys.readouterr().err


def test_mult_check_pass_and_exit_codes(tmp_path):
    out = tmp_path / "mc.json"
    code = main(
        ["mult-check", "--dim", "3", "--p", "1", "--m", "2",
         "--alpha", "0.25", "--beta", "0.5", "--multiplier", "finite:4",
         "--rho-levels", "8", "--out", str(out)]
    )
    assert code == 0
    rep = reports.load_from(out)
    assert rep["verdicts"]["equivalence"] == "PASS"
    assert rep["verdicts"]["condition2"] == "bounded"


def test_mult_check_multiplier_file(tmp_path):
    from ballharm import MultiplierSequence, save_multiplier

    mpath = tmp_path / "mult.json"
    save_multiplier(MultiplierSequence(3, "zonal", np.ones(6)), mpath)
    out = tmp_path / "mc.json"
    code = main(
        ["mult-check", "--dim", "3", "--p", "1", "--m", "2",
         "--alpha", "0.5", "--beta", "0.25", "--multiplier", str(mpath),
         "--rho-levels", "8", "--out", str(out)]
    )
    # a degree-5 multiplier is bounded for any weights: verdicts agree
    assert code == 0


def test_mult_check_reports_byte_identical(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(
            ["mult-check", "--dim", "3", "--p", "1", "--m", "2",
             "--alpha", "0.5", "--beta", "0.25", "--multiplier", "ones",
             "--rho-levels", "7", "--out", str(out)]
        )
        assert code == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_mult_check_deep_ladder_exits_0(tmp_path):
    # grid levels to j = 14, where the truncated series would pass its
    # degree cap: the closed-form kernel carries the ``ones`` curve there
    out = tmp_path / "mc.json"
    code = main(["mult-check", "--alpha", "0.5", "--beta", "0.25", "--multiplier", "ones",
                 "--rho-levels", "14", "--out", str(out)])
    assert code == 0
    rep = reports.load_from(out)
    assert rep["verdicts"] == {"condition2": "unbounded", "probe": "unbounded",
                               "equivalence": "PASS"}
    assert rep["values"]["condition2"]["rho_grid"][-1] == 1.0 - 2.0**-14


@pytest.mark.parametrize("levels", ["2", "3"])
def test_mult_check_too_few_grid_levels_exits_2(levels, capsys):
    # J = 3 leaves one grid point and J = 2 none: no growth fit is possible
    code = main(["mult-check", "--alpha", "0.75", "--beta", "0.25",
                 "--rho-levels", levels])
    assert code == 2
    assert "at least two grid levels" in capsys.readouterr().err


def test_cli_entrypoint_subprocess(const_file):
    proc = subprocess.run(
        [sys.executable, "-m", "ballharm.cli", "norm", "--input", const_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "norm = 0.5" in proc.stdout


def test_unknown_arguments_exit_2():
    assert main(["norm", "--nope"]) == 2
    assert main(["mult-check", "--alpha", "0.5"]) == 2  # --beta missing


def test_package_runs_as_a_module():
    # python -m ballharm exits with main's code
    run = lambda *argv: subprocess.run([sys.executable, "-m", "ballharm", *argv],
                                       capture_output=True, text=True).returncode
    assert run("--help") == 0
    assert run("lemma", "--id", "7") == 2


def test_norm_p_equals_q_integrates_each_radius_once(tmp_path, monkeypatch):
    # the direct p-norm reads the fine level's profile: 48 coarse and 96
    # fine radii, where it used to integrate the 96 fine ones again
    from ballharm import quadrature

    rows = []
    real = quadrature._zonal_abs_power_means

    def counted(dim, batch, power, rtol):
        batch = list(batch)
        rows.extend(batch)
        return real(dim, batch, power, rtol)

    monkeypatch.setattr(quadrature, "_zonal_abs_power_means", counted)
    path = tmp_path / "zonal.json"
    f = HarmonicExpansion(3, "zonal", [1.0, 0.5, -0.25, 0.125, -0.0625], pole=[0.0, 0.0, 1.0])
    save_expansion(f, path)
    out = tmp_path / "report.json"
    assert main(["norm", "--p", "2", "--q", "2", "--alpha", "0.5", "--input", str(path),
                 "--out", str(out)]) == 0
    assert len(rows) == 144
    assert reports.load_from(out)["values"]["pq_consistency"] <= 1e-10


def test_one_parser_serves_consecutive_commands(const_file, capsys):
    from ballharm import cli

    commands = [
        ["norm", "--input", const_file, "--p", "2", "--q", "2"],
        ["kernel", "--dim", "3", "--eval-r", "0.5", "--eval-t", "0.25"],
        ["lemma", "--id", "4"],
        ["mult-check", "--alpha", "0.5", "--beta", "0.25", "--rho-levels", "5"],
        ["lemma", "--id", "2", "--alpha", "0.25"],
    ]

    def run(argv):
        # every report goes to stdout
        code = main(argv)
        return code, capsys.readouterr().out

    fresh = []
    for argv in commands:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    parser = cli._parser()
    shared = [run(argv) for argv in commands]
    assert shared == fresh
    assert cli._parser() is parser
    assert main(["norm", "--nope"]) == 2
    assert main(["lemma", "--id", "4", "--beta", "nan"]) == 2
    assert run(commands[2]) == fresh[2]


def test_commands_load_no_interpolate_or_optimize(tmp_path):
    # a command process imports scipy.special and scipy.linalg (the Jacobi
    # rules need it); scipy.interpolate and scipy.optimize cost start-up
    # time and memory and no command needs them
    path = tmp_path / "zonal.json"
    save_expansion(HarmonicExpansion(3, "zonal", [1.0, 0.5, -0.25], pole=[0.0, 0.0, 1.0]), path)
    script = f"""
import sys
import ballharm
assert "scipy.linalg" in sys.modules, "scipy.linalg"
from ballharm.cli import main
for argv in (["mult-check", "--alpha", "0.5", "--beta", "0.25", "--rho-levels", "5",
              "--probe-family", "qm_kernels", "--out", {str(tmp_path / "mc.json")!r}],
             ["lemma", "--id", "1", "--fast", "--out", {str(tmp_path / "l1.json")!r}],
             ["norm", "--input", {str(path)!r}, "--p", "2", "--q", "2",
              "--out", {str(tmp_path / "n.json")!r}],
             ["selftest", "--fast", "--out", {str(tmp_path / "st.json")!r}]):
    assert main(argv) == 0, argv
print(sorted(m for m in ("scipy.interpolate", "scipy.optimize") if m in sys.modules))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
