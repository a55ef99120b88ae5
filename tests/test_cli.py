import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diagpair import cli
from diagpair.archimedean import unit_singular_integral
from diagpair.arcs import transfer_grid
from diagpair.budget import DEFAULT_LEDGER_BUDGET
from diagpair.moments import moment_T_shifted
from diagpair.oracles import brute_moment_T
from diagpair.solver import find_real_anchor
from diagpair.systems import format_system


SRC = str(Path(cli.__file__).resolve().parents[1])


def fresh(*args, timeout=120, **kw):
    """Run `python *args` in a new interpreter that imports this session's diagpair."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout, **kw)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_moments_T_json(capsys):
    doc = run_json(capsys, "moments", "--kind", "T", "--s", "2", "--x", "6")
    assert doc["result"]["value"] == str(brute_moment_T(2, 6))
    assert doc["config"]["subcommand"] == "moments"
    assert doc["header"]["tool"] == "diagpair"
    # timestamp is the only volatile field and sits alone in the header
    assert "timestamp" in doc["header"]
    assert not any("timestamp" in str(k) for k in doc["result"])


def test_exact_integers_are_decimal_strings(capsys):
    doc = run_json(capsys, "moments", "--kind", "J1", "--y", "6", "--h", "4")
    val = doc["result"]["value"]
    assert isinstance(val, str) and re.fullmatch(r"-?\d+", val)
    assert int(val) == 20448


def test_moments_mixed(capsys):
    doc = run_json(
        capsys, "moments", "--kind", "mixed", "--p", "10", "--factor", "0.4:1:1:2", "--factor", "0.3:1:0:4"
    )
    assert doc["result"]["value"] == "270"


@pytest.mark.parametrize(
    "factor", ["f:0.4:1:1:2", "0.4:1:1", "0.4:1:1:2:3:4"], ids=["old-kind", "3-field", "6-field"]
)
def test_moments_mixed_bad_factor(capsys, factor):
    code, _, err = run(capsys, "moments", "--kind", "mixed", "--p", "10", "--factor", factor)
    assert code == cli.EXIT_CONFIG
    assert "config error" in err


def test_anchor_follows_seed(capsys, sample5):
    thetas = []
    for seed in (1, 5):
        anchor = find_real_anchor(sample5, rng=np.random.default_rng(seed))
        want = anchor.theta
        doc = run_json(capsys, "solve", "--builtin", "sample5", "--anchor", "--seed", str(seed))
        assert doc["result"]["anchor"]["theta"] == list(want)
        doc = run_json(capsys, "arch", "--builtin", "sample5", "--q", "4", "--seed", str(seed))
        assert doc["result"]["theta"] == list(want)
        # W belongs to the sign-flipped system that the anchor solves
        assert doc["result"]["W"] == unit_singular_integral(anchor.system, want, 4.0)[0]
        assert doc["result"]["system"] == format_system(anchor.system)
        thetas.append(want)
    assert thetas[0] != thetas[1]


def test_csv_two_rows(capsys):
    code, out, _ = run(capsys, "moments", "--kind", "T", "--s", "2", "--x", "6", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 2
    header, data = rows[0].split(","), rows[1].split(",")
    assert len(header) == len(data)
    assert "value" in header


def test_global_flags_after_subcommand(capsys):
    code, out, _ = run(capsys, "moments", "--format", "csv", "--kind", "J", "--s", "2", "--x", "4")
    assert code == 0
    assert out.splitlines()[0].startswith("kind")


# arguments of each subcommand that reads --budget, refused at --budget 5
REFUSED_AT_BUDGET_5 = {
    "moments": ("--kind", "T", "--s", "3", "--x", "40"),
    "local": ("--builtin", "balanced11", "--series", "100"),
    "arch": ("--builtin", "ladder6"),
    "solve": ("--builtin", "balanced11", "--b", "3"),
    "smooth": ("--x", "10", "--r", "3"),
    "arcs": ("--transfer-report",),
}


@pytest.mark.parametrize("before", [True, False])
@pytest.mark.parametrize("subcommand", sorted(REFUSED_AT_BUDGET_5))
def test_budget_holds_before_or_after_the_subcommand(capsys, subcommand, before):
    args = (subcommand, *REFUSED_AT_BUDGET_5[subcommand])
    code, _, err = run(capsys, *(("--budget", "5", *args) if before else (*args, "--budget", "5")))
    assert code == cli.EXIT_BUDGET
    assert json.loads(err)["cap"] == "5"


def test_global_flags_before_subcommand(capsys):
    code, out, _ = run(capsys, "--format", "csv", "moments", "--kind", "J", "--s", "2", "--x", "4")
    assert code == 0
    assert out.splitlines()[0].startswith("kind")
    anchor = ("solve", "--builtin", "sample5", "--anchor")
    flags = ("--seed", "3", "--budget", "7000000")
    before, after, default = (run_json(capsys, *argv) for argv in ((*flags, *anchor), (*anchor, *flags), anchor))
    assert before["config"] == after["config"]
    assert (before["config"]["seed"], before["config"]["budget"]) == (3, 7_000_000)
    assert before["result"] == after["result"] != default["result"]


def test_out_file_and_stability(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "moments", "--kind", "T", "--s", "2", "--x", "5", "--out", str(path))
        assert code == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da["header"].pop("timestamp")
    db["header"].pop("timestamp")
    assert da == db
    # byte identical once the single timestamp line is dropped
    strip = lambda p: re.sub(r'^\s*"timestamp": "[^"]*",?\n', "", p.read_text(), flags=re.M)
    assert strip(a) == strip(b)


# (moments argv, its artifact's result): I and J1 are sums of squares too,
# as their generators are closed under negation; their tops form C(129, 2)
# and C(801, 2) pairs of 128 and 800 generators
TOP_COUNTED = [
    (("--kind", "T", "--s", "4", "--x", "80"),
     {"kind": "T", "value": "961516672", "top_pairs": "1837620", "top_bands": "2"}),
    (("--kind", "I", "--s", "2", "--y", "8", "--h", "8"),
     {"kind": "I", "value": "65744", "top_pairs": "8256", "top_bands": "1"}),
    (("--kind", "J1", "--y", "20", "--h", "20"),
     {"kind": "J1", "value": "26943744", "top_pairs": "320400", "top_bands": "1"}),
]


def test_moments_artifact_carries_top_counters(tmp_path, capsys):
    # the top step's key pairs and bands are deterministic, so they sit in
    # `result`, and config and result are byte-identical across runs
    for argv, result in TOP_COUNTED:
        paths = [tmp_path / f"{result['kind']}-a.json", tmp_path / f"{result['kind']}-b.json"]
        for path in paths:
            code, _, _ = run(capsys, "moments", *argv, "--out", str(path))
            assert code == 0
        doc = json.loads(paths[0].read_text())
        assert doc["result"] == result
        a, b = (p.read_text().split('\n  "config": ', 1)[1] for p in paths)
        assert a == b
    # a count with no sum of squares, a window past 0, has no top counters
    doc = run_json(capsys, "moments", "--kind", "T-shifted", "--s", "2", "--x", "6", "--hmax", "1")
    assert doc["result"] == {"kind": "T-shifted", "value": str(moment_T_shifted(2, 6, 1).value)}


def test_verify_artifact_is_deterministic(tmp_path, capsys):
    # the criteria's run times sit in the header with the timestamp; config
    # and result are byte-identical across runs
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, out, _ = run(capsys, "verify", "--profile", "smoke", "--out", str(path))
        # criterion 11 is the gate's strict expected failure
        assert code == cli.EXIT_ASSERT and "11/12 criteria passed" in out
        assert re.search(r"criterion  1 \[.*\] \(\d+\.\ds\): ", out)
    docs = [json.loads(p.read_text()) for p in paths]
    for doc in docs:
        assert len(doc["header"]["elapsed"]) == len(doc["result"]["criteria"]) == 12
        assert all("elapsed" not in c for c in doc["result"]["criteria"])
    a, b = (p.read_text().split('\n  "config": ', 1)[1] for p in paths)
    assert a == b


def test_solve_builtin_counts(capsys):
    doc = run_json(capsys, "solve", "--builtin", "tiny2", "--b", "10", "--witness-bound", "5")
    assert doc["result"]["count"]["N"] == "21"
    assert doc["result"]["count"]["witnesses"][0] == ["1", "1"]
    assert doc["result"]["witness"] == ["1", "1"]
    assert doc["result"]["count"]["witnesses_truncated"] is False
    # of 21 * 21 key pairs, each x1 != 0 meets x2 = x1 and x2 = -x1, and 0 meets 0
    assert doc["result"]["count"]["pairs"] == "41"
    # a ball count takes no smooth restriction, so none is echoed
    assert "restriction" not in doc["result"]["count"]


@pytest.mark.parametrize("flags", [("--r", "5"), ("--restriction", "none")])
def test_solve_has_no_restriction_flags(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--builtin", "tiny2", "--b", "2", *flags])
    assert exc.value.code == 2
    capsys.readouterr()


def test_solve_spec_file(tmp_path, capsys):
    spec = tmp_path / "sys.txt"
    spec.write_text("a = 1 -1\nb = 1 -1\n")
    doc = run_json(capsys, "solve", "--spec", str(spec), "--b", "4")
    assert doc["result"]["count"]["N"] == "9"
    assert doc["config"]["spec"] == str(spec)


def test_local_chi(capsys):
    doc = run_json(capsys, "local", "--builtin", "sample5", "--chi", "3", "2", "--q", "9")
    chi = doc["result"]["chi"]
    assert chi["M"] == "1539"
    assert float(chi["series_side"]) == pytest.approx(float(chi["count_side"]), rel=1e-9)
    assert doc["result"]["congruences"]["M"] == "1539"


def test_padic_witness_follows_budget(capsys):
    # M(p^t) is computed for the t whose congruence ledger, s p^(3t), fits
    # --budget: for balanced11 at p = 2 that is t <= 5 at 10^6, and t <= 7
    # (p^t <= 150) at the default
    for extra, ts in (((), 7), (("--budget", "1000000"), 5)):
        doc = run_json(capsys, "local", "--builtin", "balanced11", "--witness", "2", *extra)
        assert doc["result"]["padic_witness"]["t_checked"] == [str(t) for t in range(1, ts + 1)]
    # solve --conditions passes --budget to the witness search at every prime:
    # tiny2 at p = 2 fits t <= 2 (2 * 2^6 <= 1000), and nothing at p = 97
    doc = run_json(capsys, "solve", "--builtin", "tiny2", "--conditions", "--budget", "1000")
    witnesses = doc["result"]["conditions"]["padic_witnesses"]
    assert (witnesses["2"]["t_checked"], witnesses["97"]["t_checked"]) == (["1", "2"], [])


def test_local_series_counters(capsys):
    series = run_json(capsys, "local", "--builtin", "sample5", "--series", "40")["result"]["series"]
    # orbit rows at the 12 primes and the 7 composite prime powers q <= 40
    assert "tables" not in series
    assert (int(series["rows"]), int(series["cells"])) == (68, 1260)


def test_smooth_outputs(capsys):
    doc = run_json(capsys, "smooth", "--x", "10", "--r", "3", "--rho", "2.0")
    assert doc["result"]["count"] == "7"
    assert float(doc["result"]["rho"]) == pytest.approx(0.30685281944005469, abs=1e-8)
    # the tail once went negative from u = 10
    doc = run_json(capsys, "smooth", "--rho", "10", "--c-eta", "0.1")
    assert float(doc["result"]["rho"]) > 0 and float(doc["result"]["c_eta"]) > 0


def test_arcs_dirichlet(capsys):
    doc = run_json(capsys, "arcs", "--dirichlet", "0.14159265358979,10")
    approx = doc["result"]["dirichlet"]
    assert (approx["a"], approx["q"]) == ("1", "7")


def test_arcs_transfer_report(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, err = run(capsys, "arcs", "--transfer-report", "--seed", "7", "--out", str(path))
        assert code == 0, err
    # byte identical once the single timestamp line is dropped
    strip = lambda p: re.sub(r'^\s*"timestamp": "[^"]*",?\n', "", p.read_text(), flags=re.M)
    assert strip(paths[0]) == strip(paths[1])
    report = json.loads(paths[0].read_text())["result"]["transfer_report"]
    cells = [(H, Y) for H in (4, 8, 12) for Y in (4, 8, 12)]
    assert list(report) == [f"H={H},Y={Y}" for H, Y in cells]
    assert all(math.isfinite(c["C1"]) and math.isfinite(c["C2"]) for c in report.values())
    want = transfer_grid(cells, np.random.default_rng(7))
    assert report == {
        f"H={H},Y={Y}": {"C1": rep["C1_fitted"], "C2": rep["C2_observed"]} for (H, Y), rep in want.items()
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--spec", "/nonexistent/path.txt", "--b", "3"),
        # tiny2 has no nonsingular real point: no anchor
        ("solve", "--builtin", "tiny2", "--anchor"),
        ("arch", "--builtin", "tiny2", "--q", "4"),
        ("arch", "--builtin", "ladder6", "--theta", "0.3,0.3,0.25,0.25,0.35,0.35", "--q", "4",
         "--volume", "--mc-samples", "0"),
        # float flags that overflow where they are rounded to an integer
        ("arch", "--builtin", "ladder6", "--theta", "0.3,0.3,0.25,0.25,0.35,0.35", "--q", "inf"),
        ("moments", "--kind", "mixed", "--p", "inf", "--factor", "0.3:1:1:2"),
        # J and W are densities only at a finite positive P and theta
        ("arch", "--builtin", "ladder6", "--theta", "0.3,0.3,0.25,0.25,0.35,0.35", "--q", "8", "--p", "-10"),
        ("arch", "--builtin", "ladder6", "--theta", "0.3,0.3,0.25,0.25,0.35,0.35", "--q", "8", "--p", "0"),
        ("arch", "--builtin", "ladder6", "--theta", "0.3,0.3,0.25,0.25,0.35,0.35", "--q", "8", "--p", "nan"),
        ("arch", "--builtin", "ladder6", "--theta", "0.3,0.3,0.25,0.25,0.35,-0.35", "--q", "8"),
        # lambda would be NaN, which JSON cannot carry
        ("arcs", "--lam", "0.5,1,2,inf"),
        ("arcs", "--lam", "nan,1,2,3"),
        # nothing reads --eta or --series-q without --predict
        ("solve", "--builtin", "tiny2", "--b", "2", "--eta", "0.4"),
        ("solve", "--builtin", "tiny2", "--b", "2", "--series-q", "30"),
        # non-finite floats: each is refused by the range check of the value
        # it sets, not where it is rounded, and none reaches the artifact
        ("arch", "--builtin", "ladder6", "--theta", "0.3,0.3,0.25,0.25,0.35,0.35", "--q", "nan"),
        ("arcs", "--member", "0.1,0.2", "--q", "nan"),
        ("arcs", "--member", "0.1,0.2", "--p", "inf"),
        ("arcs", "--dirichlet", "inf,5"),
        ("arcs", "--dirichlet", "nan,5"),
        ("smooth", "--rho", "nan"),
        ("smooth", "--c-eta", "nan"),
        ("smooth", "--c-eta", "inf"),
        ("moments", "--kind", "mixed", "--factor", "nan:1:1:2"),
        ("solve", "--builtin", "ladder6", "--predict", "inf"),
        ("solve", "--builtin", "ladder6", "--predict", "10", "--eta", "inf"),
    ],
    ids=["missing-spec", "solve-anchor", "arch-anchor", "mc-samples", "arch-q-inf", "mixed-p-inf",
         "arch-p-negative", "arch-p-zero", "arch-p-nan", "arch-theta-negative", "lam-z-inf", "lam-alpha-nan",
         "eta-without-predict", "series-q-without-predict", "arch-q-nan", "member-q-nan", "member-p-inf",
         "dirichlet-inf", "dirichlet-nan", "rho-nan",
         "c-eta-nan", "c-eta-inf", "mixed-theta-nan", "predict-inf", "eta-inf"],
)
def test_config_error_exit_code(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == cli.EXIT_CONFIG
    assert err.startswith("config error") and err.count("\n") == 1
    assert "cannot convert" not in err


def test_non_finite_predict_is_refused_before_the_anchor_search(capsys, monkeypatch):
    from diagpair import solver

    def no_anchor(*args, **kwargs):
        raise AssertionError("the anchor search ran for a refused P or eta")

    monkeypatch.setattr(solver, "find_real_anchor", no_anchor)
    for flags in (("--predict", "inf"), ("--predict", "nan"), ("--predict", "10", "--eta", "inf")):
        code, _, err = run(capsys, "solve", "--builtin", "ladder6", *flags)
        assert code == cli.EXIT_CONFIG and "must be finite and positive" in err, err


@pytest.mark.parametrize(
    "argv",
    [("solve", "--builtin", "tiny2", "--b", "2"), ("local", "--builtin", "sample5", "--q", "4"), ("verify",)],
    ids=["solve", "local", "verify"],
)
def test_unopenable_out_is_a_config_error(tmp_path, capsys, argv):
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "x.json"))
    assert code == cli.EXIT_CONFIG
    assert err.startswith("config error") and "No such file or directory" in err


def test_series_q_is_recorded_only_when_given(capsys):
    doc = run_json(capsys, "solve", "--builtin", "tiny2", "--b", "2")
    assert "series_q" not in doc["config"]["params"]
    doc = run_json(capsys, "solve", "--builtin", "ladder6", "--predict", "10", "--series-q", "10")
    assert doc["config"]["params"]["series_q"] == 10
    assert doc["result"]["predict"]["Q"] == "10"


# the top step of T_16 at X = 14: the square of its 157870-key eighth power
# would form 12461547385 pairs and the multiset step C(29, 16) = 67863915,
# both past the default budget; refused on the fewer, before any is formed
T16_SQUARE = ("moments", "--kind", "T", "--s", "16", "--x", "14")


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "--kind", "T", "--s", "6", "--x", "200", "--budget", "100000"),
        T16_SQUARE,
        ("moments", "--kind", "I", "--s", "2", "--y", "8", "--h", "8", "--budget", "5"),
        ("moments", "--kind", "J", "--s", "3", "--x", "150", "--budget", "5"),
        ("moments", "--kind", "J1", "--y", "20", "--h", "20", "--budget", "5"),
        ("solve", "--builtin", "tiny2", "--b", "10", "--budget", "10"),
        # the series' orbit rows through q = 40 hold 1260 cells
        ("local", "--builtin", "sample5", "--series", "40", "--budget", "1259"),
        ("solve", "--builtin", "sample5", "--predict", "8", "--series-q", "40", "--budget", "1259"),
        # W(Q) grids past the default budget, and past a given one
        ("arch", "--builtin", "ladder6", "--theta", "0.3,0.3,0.25,0.25,0.35,0.35", "--q", "10000000"),
        ("arch", "--builtin", "ladder6", "--theta", "0.3,0.3,0.25,0.25,0.35,0.35", "--q", "64", "--budget", "1000"),
        ("solve", "--builtin", "tiny2", "--witness-bound", "5", "--budget", "5"),
        ("local", "--builtin", "sample5", "--chi", "3", "6", "--budget", "1000"),
    ],
    ids=["T", "T-square", "I", "J", "J1", "solve-B", "local-series", "solve-predict", "arch-panels", "arch-budget",
         "solve-witness", "local-chi"],
)
def test_budget_error_exit_code(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == cli.EXIT_BUDGET
    payload = json.loads(err)
    assert payload["error"] == "budget"
    assert int(payload["estimate"]) > int(payload["cap"])
    # every refusal is against --budget, or its default
    budget = argv[argv.index("--budget") + 1] if "--budget" in argv else str(DEFAULT_LEDGER_BUDGET)
    assert payload["cap"] == budget
    if argv == T16_SQUARE:
        assert (payload["what"], payload["estimate"]) == ("ledger key pairs", "67863915")


def test_smooth_table_refused_before_it_is_built():
    # 10^9 + 1 cells of 8 bytes; the child's address space is capped at 2 GiB,
    # so a missing check fails on MemoryError instead of taking the host's memory
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = fresh("-m", "diagpair.cli", "smooth", "--x", "1000000000", "--r", "5", timeout=60, preexec_fn=cap_memory)
    assert proc.returncode == cli.EXIT_BUDGET, proc.stderr
    assert json.loads(proc.stderr) == {
        "error": "budget", "what": "smooth table cells", "estimate": "1000000001", "cap": str(DEFAULT_LEDGER_BUDGET)}


def test_smooth_factor_table_obeys_budget(capsys):
    # the factor's 1500 generators fit, its smooth table's 2001 cells do not
    code, _, err = run(capsys, "moments", "--kind", "mixed", "--p", "1000", "--factor", "1:1:1:2:5", "--budget", "2000")
    assert code == cli.EXIT_BUDGET
    assert json.loads(err) == {"error": "budget", "what": "smooth table cells", "estimate": "2001", "cap": "2000"}


def test_moments_T6_admitted_at_the_default_budget(capsys):
    doc = run_json(capsys, "moments", "--kind", "T", "--s", "6", "--x", "24")
    assert doc["result"]["value"] == str(moment_T_shifted(6, 24, 138).value) == "126925310616"


def test_witness_search_gives_up_exit_code(capsys):
    code, _, err = run(capsys, "solve", "--builtin", "tiny2", "--witness-bound", "5", "--budget", "5")
    assert code == cli.EXIT_BUDGET
    assert json.loads(err)["what"] == "witness search nodes"


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_jobs_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--jobs", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("before", [True, False])
@pytest.mark.parametrize("flags", [("--budget", "5"), ("--seed", "9")])
def test_verify_refuses_a_budget_or_seed_it_would_not_use(capsys, monkeypatch, flags, before):
    # the gate runs at the default budget with its own seeds; anything else
    # would be recorded in config without being used
    from diagpair import acceptance

    monkeypatch.setattr(acceptance, "run_all", lambda profile: pytest.fail("the gate ran"))
    args = ("verify", "--profile", "smoke")
    code, out, err = run(capsys, *((*flags, *args) if before else (*args, *flags)))
    assert code == cli.EXIT_CONFIG
    assert err.startswith("config error") and out == ""


def test_verify_exit_wiring(capsys, monkeypatch):
    # full profiles are exercised in test_acceptance; here only the exit
    # code wiring is checked, on a stubbed result set (`verify` imports
    # run_all when it runs, so patch the acceptance module's)
    from diagpair import acceptance
    from diagpair.acceptance import CriterionResult

    monkeypatch.setattr(
        acceptance, "run_all", lambda profile: [CriterionResult(1, "stub", True, "ok", 0.0)]
    )
    code, out, _ = run(capsys, "verify", "--profile", "smoke")
    assert code == cli.EXIT_OK
    assert "PASS criterion" in out

    monkeypatch.setattr(
        acceptance, "run_all", lambda profile: [CriterionResult(1, "stub", False, "no", 0.0)]
    )
    code, out, _ = run(capsys, "verify")
    assert code == cli.EXIT_ASSERT
    assert "FAIL criterion" in out


def test_solve_predict_reports_witness_truncation(capsys):
    doc = run_json(capsys, "solve", "--builtin", "ladder6", "--predict", "10", "--series-q", "10")
    pred = doc["result"]["predict"]
    assert pred["witnesses_truncated"] is False
    assert int(pred["count"]) >= len(pred["witnesses"]) > 0


def test_local_witness_rejects_a_non_prime():
    # p = 1 once looped forever, so a regression fails on the timeout
    proc = fresh("-m", "diagpair.cli", "local", "--builtin", "sample5", "--witness", "1", timeout=60)
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stderr.startswith("config error") and "prime" in proc.stderr


def test_local_witness_refuses_an_empty_search(capsys):
    code, out, err = run(capsys, "local", "--builtin", "sample5", "--witness", "2003")
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith("config error: p = 2003") and "cap 2000" in err


# the modules loaded after the CLI's import, and after `main(argv)` when
# argv is given
LOADED = (
    "import json, sys\n"
    "import diagpair, diagpair.cli\n"
    "if sys.argv[1:]:\n"
    "    assert diagpair.cli.main(sys.argv[1:]) == 0\n"
    "sys.stderr.write(json.dumps(sorted(sys.modules)))\n"
)
ENGINE = ("expsums", "ledger", "moments", "smooth", "arcs", "local", "archimedean", "solver", "oracles", "acceptance")


def loaded(*argv) -> set:
    proc = fresh("-c", LOADED, *argv)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr))


def test_cli_imports_engine_modules_on_demand():
    assert not {"numpy", *(f"diagpair.{m}" for m in ENGINE)} & loaded()
    assert fresh("-m", "diagpair.cli", "--help").returncode == 0
    mods = loaded("moments", "--kind", "T", "--s", "2", "--x", "10")
    assert "diagpair.moments" in mods
    assert not {f"diagpair.{m}" for m in ("archimedean", "local", "arcs", "acceptance", "oracles")} & mods


# one small run of every branch of every subcommand; verify has its own test
BRANCHES = {
    "moments-T": ("moments", "--kind", "T", "--s", "3", "--x", "10"),
    "moments-T-shifted": ("moments", "--kind", "T-shifted", "--s", "2", "--x", "6", "--hmax", "1"),
    "moments-I": ("moments", "--kind", "I", "--s", "2", "--y", "4", "--h", "4"),
    "moments-J": ("moments", "--kind", "J", "--s", "2", "--x", "6"),
    "moments-J1": ("moments", "--kind", "J1", "--y", "6", "--h", "4"),
    "moments-mixed": ("moments", "--kind", "mixed", "--p", "10", "--factor", "0.4:1:1:2", "--factor", "0.3:1:0:4:3"),
    "local-series": ("local", "--builtin", "sample5", "--series", "40"),
    "local-q": ("local", "--builtin", "sample5", "--q", "9"),
    "local-chi": ("local", "--builtin", "sample5", "--chi", "3", "2"),
    "local-witness": ("local", "--builtin", "sample5", "--witness", "3"),
    "arch-volume": ("arch", "--builtin", "ladder6", "--theta", "0.3,0.3,0.25,0.25,0.35,0.35", "--q", "4",
                    "--volume", "--mc-samples", "2000"),
    "arcs-member": ("arcs", "--member", "0.1,0.2"),
    "arcs-dirichlet": ("arcs", "--dirichlet", "0.3,10"),
    "arcs-lam": ("arcs", "--lam", "0.3,2,3,1.5"),
    "arcs-transfer-report": ("arcs", "--transfer-report"),
    "smooth": ("smooth", "--x", "100", "--r", "5", "--rho", "2.5", "--c-eta", "0.4"),
    "solve-conditions": ("solve", "--builtin", "sample5", "--conditions"),
    "solve-anchor": ("solve", "--builtin", "sample5", "--anchor"),
    "solve-b": ("solve", "--builtin", "tiny2", "--b", "10"),
    "solve-witness-bound": ("solve", "--builtin", "tiny2", "--witness-bound", "5"),
    "solve-predict": ("solve", "--builtin", "ladder6", "--predict", "10", "--series-q", "10"),
}


@pytest.mark.parametrize("argv", list(BRANCHES.values()), ids=list(BRANCHES))
def test_every_branch_repeats_byte_for_byte(tmp_path, capsys, argv):
    # at a fixed seed, config and result repeat once the header is dropped
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, err = run(capsys, *argv, "--seed", "5", "--out", str(path))
        assert code == cli.EXIT_OK, err
    a, b = (p.read_text().split('\n  "config": ', 1)[1] for p in paths)
    assert a == b
