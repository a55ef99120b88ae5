import json
import re

import numpy as np
import pytest

from diagpair import cli, find_real_anchor, format_system, unit_singular_integral
from diagpair.oracles import brute_moment_T


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


def test_solve_builtin_counts(capsys):
    doc = run_json(capsys, "solve", "--builtin", "tiny2", "--b", "10", "--witness-bound", "5")
    assert doc["result"]["count"]["N"] == "21"
    assert doc["result"]["count"]["witnesses"][0] == ["1", "1"]
    assert doc["result"]["witness"] == ["1", "1"]
    assert doc["result"]["count"]["witnesses_truncated"] is False


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


def test_local_series_counters(capsys):
    series = run_json(capsys, "local", "--builtin", "sample5", "--series", "40")["result"]["series"]
    # tables at q = 1 and the 19 prime powers q <= 40
    assert (int(series["tables"]), int(series["cells"])) == (20, 7523)


def test_smooth_outputs(capsys):
    doc = run_json(capsys, "smooth", "--x", "10", "--r", "3", "--rho", "2.0")
    assert doc["result"]["count"] == "7"
    assert float(doc["result"]["rho"]) == pytest.approx(0.30685281944005469, abs=1e-8)


def test_arcs_dirichlet(capsys):
    doc = run_json(capsys, "arcs", "--dirichlet", "0.14159265358979,10")
    approx = doc["result"]["dirichlet"]
    assert (approx["a"], approx["q"]) == ("1", "7")


def test_config_error_exit_code(capsys):
    code, _, err = run(capsys, "solve", "--spec", "/nonexistent/path.txt", "--b", "3")
    assert code == cli.EXIT_CONFIG
    assert "config error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "--kind", "T", "--s", "6", "--x", "200", "--budget", "100000"),
        ("moments", "--kind", "I", "--s", "2", "--y", "8", "--h", "8", "--budget", "5"),
        ("moments", "--kind", "J", "--s", "3", "--x", "150", "--budget", "5"),
        ("moments", "--kind", "J1", "--y", "20", "--h", "20", "--budget", "5"),
        ("solve", "--builtin", "tiny2", "--b", "10", "--budget", "10"),
        # the series' tables through q = 40 hold 7523 cells
        ("local", "--builtin", "sample5", "--series", "40", "--budget", "7522"),
        ("solve", "--builtin", "sample5", "--predict", "8", "--series-q", "40", "--budget", "7522"),
    ],
    ids=["T", "I", "J", "J1", "solve-B", "local-series", "solve-predict"],
)
def test_budget_error_exit_code(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == cli.EXIT_BUDGET
    payload = json.loads(err)
    assert payload["error"] == "budget"
    assert int(payload["estimate"]) > int(payload["cap"])


def test_witness_search_gives_up_exit_code(capsys, monkeypatch):
    from diagpair import solver

    monkeypatch.setattr(solver, "_WITNESS_NODE_CAP", 5)
    code, _, err = run(capsys, "solve", "--builtin", "tiny2", "--witness-bound", "5")
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


def test_verify_exit_wiring(capsys, monkeypatch):
    # full profiles are exercised in test_acceptance; here only the exit
    # code wiring is checked, on a stubbed result set (cli binds run_all
    # at import, so patch the cli reference)
    from diagpair.acceptance import CriterionResult

    monkeypatch.setattr(
        cli, "run_all", lambda profile: [CriterionResult(1, "stub", True, "ok", 0.0)]
    )
    code, out, _ = run(capsys, "verify", "--profile", "smoke")
    assert code == cli.EXIT_OK
    assert "PASS criterion" in out

    monkeypatch.setattr(
        cli, "run_all", lambda profile: [CriterionResult(1, "stub", False, "no", 0.0)]
    )
    code, out, _ = run(capsys, "verify")
    assert code == cli.EXIT_ASSERT
    assert "FAIL criterion" in out


def test_solve_predict_reports_witness_truncation(capsys):
    doc = run_json(capsys, "solve", "--builtin", "ladder6", "--predict", "10", "--series-q", "10")
    pred = doc["result"]["predict"]
    assert pred["witnesses_truncated"] is False
    assert int(pred["count"]) >= len(pred["witnesses"]) > 0
