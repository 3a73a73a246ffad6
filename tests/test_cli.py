"""Command line interface: exit codes, output layout, reproducibility."""

import contextlib
import io
import json
import math
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ergolab import cli, registry, stochastics
from ergolab.cli import (main, parse_int_token, parse_ladder, parse_schedule,
                         run_dir_for)
from ergolab.registry import EXAMPLE_IDS, example_instance
from ergolab.stochastics import RandomModulation
from ergolab.weights import INDEX_CAP, WeightSeq


def _run(tmp_path, *argv):
    return main(list(argv) + ["--out", str(tmp_path)])


# ---------------------------------------------------------------------------
# argument helpers


def test_parse_int_token():
    assert parse_int_token("2^10") == 1024
    assert parse_int_token(" 37 ") == 37
    with pytest.raises(ValueError):
        parse_int_token("2^^3")


def test_parse_ladder():
    assert parse_ladder("2^3..2^6") == (8, 16, 32, 64)
    assert parse_ladder("5,10,20") == (5, 10, 20)
    with pytest.raises(ValueError):
        parse_ladder("2^6..2^3")


@pytest.mark.parametrize("text", ["0..8", "-4..8"])
def test_parse_ladder_rejects_range_below_one(text):
    with pytest.raises(ValueError):
        parse_ladder(text)


def test_ladder_range_below_one_exits_2(tmp_path, capsys):
    assert _run(tmp_path, "random", "--stat", "sup", "--ladder", "0..8") == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("grid", ["0", "-8", "1"])
def test_slln_rejects_grid_below_two(tmp_path, capsys, grid):
    assert _run(tmp_path, "slln", "--G", "n", "--W", "n", "--n-max", "4",
                "--grid", grid) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_parse_schedule():
    assert parse_schedule("identity").value(7) == 7
    assert parse_schedule("power:2").value(3) == 10
    assert parse_schedule("explicit:1,4,9").value(3) == 9
    with pytest.raises(ValueError):
        parse_schedule("cubic")


# ---------------------------------------------------------------------------
# exit codes


def test_check_example_passes(tmp_path):
    rc = _run(tmp_path, "check", "--example", "E1",
              "--ladder", "100,1000,10000",
              "--expect", "admissible,t21,meaningful")
    assert rc == 0


def test_check_expect_mismatch_returns_1(tmp_path):
    rc = _run(tmp_path, "check", "--G", "n", "--W", "n", "--p", "2",
              "--ladder", "100,1000", "--expect", "admissible")
    assert rc == 1


def test_check_expect_not_admissible_fails_when_both_conditions_converge(tmp_path, capsys):
    rc = _run(tmp_path, "check", "--G", "n^0.25", "--W", "n^1.5",
              "--expect", "not-admissible")
    assert rc == 1
    assert "expect not-admissible: FAILED (both conditions converge)\n" \
        in capsys.readouterr().out


def test_check_parse_error_returns_2(tmp_path):
    rc = _run(tmp_path, "check", "--G", "n^", "--W", "n", "--ladder", "100")
    assert rc == 2


@pytest.mark.parametrize("example, name, value", [
    ("E1", "p", "inf"), ("E0", "beta", "inf"), ("E3", "alpha", "inf"),
    ("E2", "gamma", "nan"), ("E1", "delta", "nan"), ("E4", "eps", "inf"),
])
def test_check_example_refuses_non_finite_parameter(tmp_path, capsys, example, name, value):
    # refused before any weight text is formatted, so the error names the flag
    assert _run(tmp_path, "check", "--example", example, f"--{name}", value) == 2
    assert capsys.readouterr().err == f"error: {name} must be finite, got {value}\n"
    assert list(tmp_path.glob("run-*")) == []


@pytest.mark.parametrize("argv", [
    ("random", "--stat", "sup", "--schedule", "explicit:1,2,3",
     "--ladder", "8,16", "--no-regime-check"),
    ("hilbert", "--n-max", "40", "--schedule", "superexp"),
    ("check", "--G", "n", "--W", "n^2", "--schedule", "explicit:1,2"),
    ("check", "--G", "n^0.25*ln(n)^-1", "--W", "n^0.75",
     "--schedule", "explicit:1,3,7,15,31,63,127"),
    ("slln", "--G", "n", "--W", "n", "--n-max", "0"),
    # the (T21) range [6, 3] is empty: E0's weights start past the ladder top
    ("check", "--example", "E0", "--ladder", "3"),
])
def test_schedule_reach_errors_return_2(tmp_path, capsys, argv):
    assert _run(tmp_path, *argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (("check", "--G", "n^0.5", "--W", "n", "--schedule", "geometric:1.1"),
     "geometric schedule q=1.1 repeats n_2 = 2: ceil(q^k) increases only for q^3 > 3"),
    (("hilbert", "--schedule", "geometric:1.3", "--n-max", "10"),
     "geometric schedule q=1.3 repeats n_2 = 2"),
    (("hilbert", "--schedule", "geometric:1.1", "--n-max", "20"),
     "geometric schedule q=1.1 repeats n_2 = 2"),
    (("check", "--G", "n^0.5", "--W", "n", "--schedule", "power:nan"),
     "power schedule needs a finite r, got nan"),
    (("check", "--G", "n^0.5", "--W", "n", "--schedule", "geometric:inf"),
     "geometric schedule needs a finite q, got inf"),
    (("hilbert", "--schedule", "power:-inf", "--n-max", "10"),
     "power schedule needs a finite r, got -inf"),
    (("hilbert", "--schedule", "geometric:nan", "--n-max", "10"),
     "geometric schedule needs a finite q, got nan"),
    # n_2 = 2^r used to be computed in integers, without end
    (("check", "--G", "n^0.5", "--W", "n", "--schedule", "power:1e18"),
     "power schedule needs r <= 62, got 1e+18"),
    (("hilbert", "--schedule", "monomial:1000000000000000000", "--n-max", "10"),
     "monomial schedule needs r <= 62, got 1000000000000000000"),
])
def test_bad_schedule_parameters_exit_2_without_a_run_dir(tmp_path, capsys, argv,
                                                          message):
    assert _run(tmp_path, *argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and out == ""
    assert list(tmp_path.glob("run-*")) == []


@pytest.mark.parametrize("spec, message", [
    ("explicit:1,,2", "schedule spec 'explicit:1,,2': '' is not an integer"),
    ("explicit:", "schedule spec 'explicit:': '' is not an integer"),
    ("power:", "schedule spec 'power:': '' is not a number"),
])
def test_malformed_schedule_spec_names_the_bad_token(tmp_path, capsys, spec, message):
    assert _run(tmp_path, "check", "--G", "n^0.5", "--W", "n", "--schedule", spec) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n" and out == ""
    assert list(tmp_path.glob("run-*")) == []


def test_unknown_subcommand_returns_2(tmp_path, capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_list_examples(capsys):
    assert main(["list-examples"]) == 0
    out = capsys.readouterr().out
    for ex_id in ("E0", "E7", "EwA"):
        assert ex_id + ":" in out


# ---------------------------------------------------------------------------
# outputs


def test_check_writes_reports(tmp_path):
    config_args = ["check", "--G", "n^0.5", "--W", "n", "--p", "2",
                   "--ladder", "100,1000"]
    assert _run(tmp_path, *config_args) == 0
    runs = list(tmp_path.iterdir())
    assert len(runs) == 1
    run_dir = runs[0]
    assert run_dir.name.startswith("run-")
    for kind in ("W3", "W4", "T21", "rrr"):
        doc = json.loads((run_dir / f"{kind}.json").read_text())
        assert doc["kind"] == kind or kind == "rrr"
        assert "config_hash" in doc and "tool_version" in doc


def test_check_rerun_is_byte_identical(tmp_path):
    args = ["check", "--G", "n^0.5", "--W", "n", "--ladder", "100,1000"]
    assert _run(tmp_path, *args) == 0
    run_dir = next(tmp_path.iterdir())
    first = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert _run(tmp_path, *args) == 0
    second = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert first == second


def test_hilbert_trace_csv(tmp_path):
    rc = _run(tmp_path, "hilbert", "--n-max", "32", "--lam", "0.25")
    assert rc == 0
    run_dir = next(tmp_path.iterdir())
    lines = (run_dir / "trace.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "n"
    assert "running_max_Lp" in header
    ns = [int(row.split(",")[0]) for row in lines[1:]]
    assert ns[-1] == 32
    assert ns == list(range(ns[0], 33))


def test_random_sup_estimate_json(tmp_path):
    rc = _run(tmp_path, "random", "--stat", "sup", "--law", "rademacher",
              "--ladder", "32,64", "--samples", "3", "--n-lambda", "32")
    assert rc == 0
    doc = json.loads((next(tmp_path.iterdir()) / "estimate.json").read_text())
    assert doc["statistic"] == "sup-circle-ladder"
    assert doc["samples"] == 3
    assert doc["regime"] == "theorem"


def test_random_thread_count_does_not_change_bytes(tmp_path):
    args = ["random", "--stat", "sup", "--law", "gaussian",
            "--ladder", "32,64", "--samples", "4", "--n-lambda", "32"]
    assert _run(tmp_path, *args, "--threads", "1") == 0
    run_dir = next(tmp_path.iterdir())
    first = (run_dir / "estimate.json").read_bytes()
    assert _run(tmp_path, *args, "--threads", "4") == 0
    assert (run_dir / "estimate.json").read_bytes() == first


def test_random_sup_dir_names_its_weight_and_schedule(tmp_path):
    # --G and --schedule used to be left out of the config, so these three
    # runs shared one dir and each overwrote the estimate before it
    args = ["random", "--stat", "sup", "--ladder", "32,64", "--samples", "2",
            "--n-lambda", "32"]
    for extra in (("--G", "n"), ("--G", "n^2"), ("--G", "n^2", "--schedule", "power:2")):
        assert _run(tmp_path, *args, *extra) == 0
    estimates = {p.read_bytes() for p in tmp_path.glob("run-*/estimate.json")}
    assert len(list(tmp_path.iterdir())) == len(estimates) == 3


@pytest.mark.parametrize("stat", ["sup", "hilbert"])
def test_random_estimate_config_hash_names_its_dir(tmp_path, stat):
    assert _run(tmp_path, "random", "--stat", stat, "--ladder", "32,64",
                "--samples", "2", "--n-lambda", "32") == 0
    run_dir = _only_run_dir(tmp_path)
    doc = json.loads((run_dir / "estimate.json").read_text())
    assert run_dir.name == f"run-{doc['config_hash'][:16]}"


def test_run_dir_is_config_keyed(tmp_path):
    a = run_dir_for(tmp_path, {"x": 1})
    b = run_dir_for(tmp_path, {"x": 2})
    assert a != b
    assert a == run_dir_for(tmp_path, {"x": 1})


# ---------------------------------------------------------------------------
# experiment paths


def _only_run_dir(tmp_path):
    runs = list(tmp_path.iterdir())
    assert len(runs) == 1
    return runs[0]


def _csv_column(path, name):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    i = header.index(name)
    return [int(r.split(",")[0]) for r in lines[1:]], \
        [float(r.split(",")[i]) for r in lines[1:]]


def test_slln_ewa_norms_verdict_and_rerun(tmp_path):
    args = ["slln", "--example", "EwA", "--n-max", "256", "--grid", "1024"]
    assert _run(tmp_path, *args) == 0
    run_dir = _only_run_dir(tmp_path)
    ns, ratios = _csv_column(run_dir / "trace.csv", "norm_Sn_over_Wn")
    assert ns == list(range(1, 257))
    inst = example_instance("EwA", eps=0.5)
    exact = inst.G.values(np.asarray(ns, dtype=float)) \
        / inst.W.values(np.asarray(ns, dtype=float))
    assert np.max(np.abs(np.asarray(ratios) / exact - 1.0)) <= 1e-12
    ae = json.loads((run_dir / "ae.json").read_text())
    assert ae["verdict"] == "consistent-with-convergence"
    first = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert set(first) == {"trace.csv", "ae.json", "rrr.json"}
    assert _run(tmp_path, *args) == 0
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == first


def test_slln_zero_field(tmp_path):
    assert _run(tmp_path, "slln", "--example", "EwA", "--zero-field",
                "--n-max", "128", "--grid", "512") == 0
    run_dir = _only_run_dir(tmp_path)
    _, ratios = _csv_column(run_dir / "trace.csv", "norm_Sn_over_Wn")
    assert ratios == [0.0] * 128
    ae = json.loads((run_dir / "ae.json").read_text())
    assert ae["verdict"] == "consistent-with-convergence"
    assert ae["gaps"] and set(ae["gaps"]) == {0.0}


def _near_tie_matrix_json():
    # Q diag(1 + 1e-6, 1 - 1e-5, 0.5, 0.2) U^H: norm 1 + 1e-6, not a contraction
    rng = np.random.Generator(np.random.Philox(key=3))
    Q, U = (np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
            for _ in range(2))
    A = Q @ np.diag([1 + 1e-6, 1 - 1e-5, 0.5, 0.2]) @ U.conj().T
    return {"kind": "matrix", "matrix": np.stack([A.real, A.imag], axis=-1).tolist()}


_NAN_FIBER_SKEW = {"kind": "skew", "space": {"kind": "finite", "m": 2}, "pi": [1, 0],
                   "fibers": [[[0.5, 0.0], [0.0, float("nan")]], [[0.5, 0.0], [0.0, 0.5]]]}


def _markov_json(path, scale=1.0):
    rng = np.random.Generator(np.random.Philox(key=5))
    m = 8
    P = sum(np.eye(m)[rng.permutation(m)] for _ in range(m)) / m
    path.write_text(json.dumps({"kind": "markov", "matrix": (scale * P).tolist()}))
    return str(path)


def test_hilbert_trace_with_markov_operator(tmp_path):
    op = _markov_json(tmp_path / "markov.json")
    out = tmp_path / "out"
    assert main(["hilbert", "--lam", "0.3", "--n-max", "16", "--operator", op,
                 "--out", str(out)]) == 0
    ns, norms = _csv_column(_only_run_dir(out) / "trace.csv", "series_partial_norm")
    # one row per index from the start index of the default W = n
    assert ns == list(range(WeightSeq.from_text("n").n0, 17))
    assert all(v > 0.0 for v in norms)


def test_hilbert_trace_dirs_of_two_operators_at_one_path_differ(tmp_path):
    # the dir used to be named by the --operator path, so the second trace
    # replaced the first
    op, out = tmp_path / "op.json", tmp_path / "out"
    for shift in (0, 1):
        P = np.roll(np.eye(8), shift, axis=0)
        op.write_text(json.dumps({"kind": "markov", "matrix": P.tolist()}))
        assert main(["hilbert", "--n-max", "16", "--operator", str(op),
                     "--out", str(out)]) == 0
    traces = {p.read_bytes() for p in out.glob("run-*/trace.csv")}
    assert len(list(out.iterdir())) == len(traces) == 2


def test_hilbert_trace_dir_of_one_operator_at_two_paths_is_one(tmp_path):
    out = tmp_path / "out"
    for name in ("a.json", "b.json"):
        op = _markov_json(tmp_path / name)
        assert main(["hilbert", "--n-max", "16", "--operator", op,
                     "--out", str(out)]) == 0
    _only_run_dir(out)


def test_hilbert_rejects_operator_without_power_bound(tmp_path, capsys):
    op = _markov_json(tmp_path / "scaled.json", scale=1.5)
    assert main(["hilbert", "--lam", "0.3", "--n-max", "16", "--operator", op,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_hilbert_rejects_near_tied_non_contraction(tmp_path, capsys):
    op = tmp_path / "near-tie.json"
    op.write_text(json.dumps(_near_tie_matrix_json()))
    assert main(["hilbert", "--n-max", "16", "--operator", str(op),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: operator must be a contraction\n"
    assert not (tmp_path / "out").exists()


def test_hilbert_trace_with_skew_operator(tmp_path):
    eye = [[1.0, 0.0], [0.0, 1.0]]
    op = tmp_path / "skew.json"
    op.write_text(json.dumps({"kind": "skew", "space": {"kind": "finite", "m": 2},
                              "pi": [1, 0], "fibers": [eye, eye]}))
    out = tmp_path / "out"
    assert main(["hilbert", "--n-max", "4", "--operator", str(op),
                 "--out", str(out)]) == 0
    ns, norms = _csv_column(_only_run_dir(out) / "trace.csv", "series_partial_norm")
    assert ns == [3, 4]
    assert all(v > 0.0 for v in norms)


@pytest.mark.parametrize("argv", [("--n-max", "12", "--schedule", "superexp"),
                                  ("--n-max", "256", "--schedule", "power:3")])
def test_hilbert_skew_operator_on_fast_schedules(tmp_path, argv):
    # n_k reaches 12^12 and 256^3 + 1: T^{n_k} must not be an n_k-step loop
    eye = [[1.0, 0.0], [0.0, 1.0]]
    op = tmp_path / "skew.json"
    op.write_text(json.dumps({"kind": "skew", "space": {"kind": "finite", "m": 2},
                              "pi": [1, 0], "fibers": [eye, eye]}))
    assert main(["hilbert", *argv, "--operator", str(op),
                 "--out", str(tmp_path / "out")]) == 0


_FINITE_2 = {"kind": "finite", "m": 2}

#: malformed operator descriptions and the start of the message each is refused with
_OPERATOR_REFUSALS = {
    "koopman-no-space": ({"kind": "koopman", "theta": 0.25},
                         "koopman operators need a space"),
    "skew-no-space": ({"kind": "skew", "pi": [1, 0], "fibers": [[[1.0]], [[1.0]]]},
                      "skew operators need a space"),
    "top-level-list": ([{"kind": "koopman", "theta": 0.25,
                         "space": {"kind": "circle", "M": 8}}],
                       "an operator description must be a JSON object"),
    "string-theta": ({"kind": "koopman", "theta": "0.25",
                      "space": {"kind": "circle", "M": 8}},
                     "theta must be a finite number, got '0.25'"),
    "huge-space": ({"kind": "koopman", "theta": 0.25,
                    "space": {"kind": "circle", "M": 10**12}},
                   "space size must be an integer in [1, "),
    "nan-matrix": ({"kind": "matrix", "matrix": [[0.5, 0.0], [0.0, float("nan")]]},
                   "matrix entries must be finite"),
    "inf-skew-fiber": ({"kind": "skew", "space": _FINITE_2, "pi": [1, 0],
                        "fibers": [[[0.5]], [[float("inf")]]]},
                       "matrix entries must be finite"),
    "nan-skew-fiber": (_NAN_FIBER_SKEW, "matrix entries must be finite"),
    "non-square-matrix": ({"kind": "matrix", "matrix": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]},
                          "square matrix required"),
    "non-numeric-matrix": ({"kind": "matrix", "matrix": [["a", "b"], ["c", "d"]]},
                           "matrix entries must be numbers"),
    "pi-not-a-list": ({"kind": "koopman", "space": _FINITE_2, "pi": 1},
                      "pi must be a list of atom indices"),
    "pi-not-a-permutation": ({"kind": "koopman", "space": {"kind": "finite", "m": 3},
                              "pi": [0, 0, 1]},
                             "pi must be a permutation of 0..m-1"),
    "doubling-on-finite": ({"kind": "koopman", "space": {"kind": "finite", "m": 4},
                            "map": "doubling"},
                           "doubling needs a circle grid"),
    "doubling-on-6-points": ({"kind": "koopman", "space": {"kind": "circle", "M": 6},
                              "map": "doubling"},
                             "doubling grid size must be a power of two"),
    "circle-of-one-point": ({"kind": "koopman", "space": {"kind": "circle", "M": 1},
                             "theta": 0.0},
                            "circle grid needs M >= 2"),
    "fibers-not-a-list": ({"kind": "skew", "space": _FINITE_2, "pi": [1, 0], "fibers": 1.0},
                          "fibers must be a list of matrices"),
    "fibers-wrong-shape": ({"kind": "skew", "space": _FINITE_2, "pi": [1, 0],
                            "fibers": [[[1.0]], [[1.0]], [[1.0]]]},
                           "fibers must be (space.size, d, d)"),
}


@pytest.mark.parametrize("desc, message", _OPERATOR_REFUSALS.values(),
                         ids=_OPERATOR_REFUSALS.keys())
def test_hilbert_malformed_operator_json_exits_2(tmp_path, capsys, desc, message):
    op = tmp_path / "op.json"
    op.write_text(json.dumps(desc))
    assert main(["hilbert", "--n-max", "4", "--operator", str(op),
                 "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {message}") and "Traceback" not in err and out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
def test_hilbert_non_finite_lam_exits_2(tmp_path, capsys, lam):
    assert main(["hilbert", "--n-max", "8", f"--lam={lam}",
                 "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: lam must be a finite number") and out == ""
    assert not (tmp_path / "out").exists()


def test_hilbert_trace_with_matrix_operator(tmp_path):
    op = tmp_path / "matrix.json"
    op.write_text(json.dumps({"kind": "matrix", "matrix": [[0.5, 0], [0, 0.5]]}))
    out = tmp_path / "out"
    assert main(["hilbert", "--n-max", "4", "--operator", str(op),
                 "--out", str(out)]) == 0
    ns, norms = _csv_column(_only_run_dir(out) / "trace.csv", "series_partial_norm")
    assert ns == [3, 4]
    assert all(v > 0.0 for v in norms)


def test_slln_n_max_below_start_index_exits_2(tmp_path, capsys):
    # G = n^0.25 / ln(n) starts at n0 = 5504: no term of the series is reached
    assert _run(tmp_path, "slln", "--G", "n^0.25*ln(n)^-1", "--W", "n",
                "--n-max", "64") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "below the start index 5504" in err


def test_slln_ladder_below_start_index_exits_2(tmp_path, capsys):
    # n_max reaches n0 = 5504, but the default ladder 64..4096 lies below it,
    # so the a.e. diagnosis would compare empty snapshots
    assert _run(tmp_path, "slln", "--G", "n^0.25*ln(n)^-1", "--W", "n",
                "--n-max", "6000", "--grid", "1024") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no ladder entry lies in [5504, 6000]" in err


@pytest.mark.parametrize("argv", [
    ("check", "--G", "ln(n)^-1", "--W", "n"),
    ("slln", "--G", "n^0.25*ln(n)^-1", "--W", "n", "--n-max", "6000",
     "--grid", "1024"),
])
def test_rejected_run_leaves_no_run_dir(tmp_path, argv):
    assert _run(tmp_path, *argv) == 2
    assert list(tmp_path.glob("run-*")) == []


@pytest.mark.parametrize("ladder", ["128,64", "64,64", "64,100000"])
def test_slln_rejects_ladder_not_increasing_within_n_max(tmp_path, capsys, ladder):
    # the a.e. diagnosis labels one snapshot column per ladder entry, in
    # ladder order, so the ladder must be strictly increasing and reached
    assert _run(tmp_path, "slln", "--G", "n", "--W", "n^1.5", "--n-max", "500",
                "--grid", "2048", "--ladder", ladder) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "strictly increasing within [1, 500]" in err
    assert list(tmp_path.glob("run-*")) == []


def test_overflowing_weight_exits_2_without_warnings(tmp_path, capsys):
    # n^400 overflows float64 past n ~ 5.9; the start-index scan counts the
    # non-finite values as failed windows and must not warn about them
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(tmp_path, "check", "--G", "n^400", "--W", "n^401") == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "RuntimeWarning" not in err


@pytest.mark.parametrize("argv", [
    ("--example", "EwA", "--p", "1e300"),
    ("--G", "n^0.5", "--W", "n", "--p", "1e300", "--schedule", "power:2"),
    ("--example", "E1", "--p", "1e300"),
])
def test_huge_p_exits_2_with_one_error_line(tmp_path, capsys, argv):
    # (xi/W)^p overflows: the pass takes its powers without numpy warnings and
    # the term audit refuses them; a class to the power p that leaves the
    # float range is a ValueError, not a bare OverflowError
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(tmp_path, "check", *argv) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Warning" not in err and "(34," not in err


def test_hilbert_missing_operator_file_exits_2(tmp_path, capsys):
    assert main(["hilbert", "--n-max", "4", "--operator",
                 str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("hilbert", "--check", "t41", "--ladder", "0,32,64"),
    ("hilbert", "--check", "t44", "--ladder", "0,16,32"),
    ("hilbert", "--check", "t8", "--ladder", "0,32,64"),
    ("random", "--stat", "hilbert", "--ladder", "0,64", "--samples", "2"),
])
def test_ladder_entry_below_the_start_index_exits_2(tmp_path, capsys, argv):
    # t44 used to pass with no entries at all, t8 to exit with "error: 0"
    assert _run(tmp_path, *argv) == 2
    out, err = capsys.readouterr()
    assert err == "error: ladder entry 0 lies below the start index 1\n" and out == ""
    assert list(tmp_path.glob("run-*")) == []


@pytest.mark.parametrize("check, ladder", [
    ("t41", "32,32,64"), ("t44", "16,16,32"), ("t8", "32,32,64")])
def test_bound_check_repeated_ladder_entry_is_checked_once(tmp_path, check, ladder):
    # t44 used to check n = 16 only, t8 to exit with "error: 64"
    docs = []
    for text in (ladder, ladder.split(",", 1)[1]):
        assert _run(tmp_path / text, "hilbert", "--check", check, "--ladder", text) == 0
        doc = json.loads((_only_run_dir(tmp_path / text) / f"{check}.json").read_text())
        del doc["config_hash"]
        docs.append(doc)
    assert docs[0] == docs[1]


@pytest.mark.parametrize("ladder", ["32", "32,32"])
def test_t8_ladder_of_one_entry_exits_2(tmp_path, capsys, ladder):
    # used to print "bound ok=True" for every contraction with no gap checked
    assert _run(tmp_path, "hilbert", "--check", "t8", "--ladder", ladder) == 2
    out, err = capsys.readouterr()
    assert err == ("error: only one distinct ladder entry lies at or above the start "
                   "index 1; the operator-norm check needs two for a Cauchy gap\n")
    assert out == "" and list(tmp_path.glob("run-*")) == []


def test_check_full_sequence_writes_report(tmp_path):
    assert _run(tmp_path, "check", "--G", "n^0.5", "--W", "n", "--schedule",
                "power:2", "--full-sequence", "--ladder", "100,1000") == 0
    doc = json.loads((_only_run_dir(tmp_path) / "full-W1.json").read_text())
    assert doc["kind"] == "full-W1"
    # (G_n/W_n)^2 = 1/n over every index, whatever the schedule
    assert (doc["verdict"], doc["verdict_source"]) == ("diverges", "symbolic")


@pytest.mark.parametrize("expect", ["bogus", "W3=bogus", "W9=converges",
                                    "admissible,bogus"])
def test_check_unknown_expectation_exits_2_before_any_check(tmp_path, capsys, expect):
    assert _run(tmp_path, "check", "--G", "n^0.5", "--W", "n",
                "--ladder", "100,1000", "--expect", expect) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: unknown expectation") and out == ""
    assert list(tmp_path.glob("run-*")) == []


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_check_non_finite_p_is_refused_by_name(tmp_path, capsys, value):
    # refused before any class arithmetic, so the error names the flag and
    # not an expression the user never typed
    assert _run(tmp_path, "check", "--G", "n^0.5", "--W", "n", f"--p={value}") == 2
    assert capsys.readouterr().err == f"error: p must be finite, got {value}\n"
    assert list(tmp_path.glob("run-*")) == []


def test_check_failed_registry_expectation_exits_1(tmp_path, capsys, monkeypatch):
    # E1's W3 converges; an instance that expects it to diverge fails the run
    # after its reports are written
    inst = example_instance("E1")
    inst.expected = {**inst.expected, "W3": {"diverges"}}
    monkeypatch.setattr(cli, "example_instance", lambda ex_id, **kwargs: inst)
    assert _run(tmp_path, "check", "--example", "E1", "--ladder", "100,1000") == 1
    out = capsys.readouterr().out
    assert "W3: converges" in out
    assert "registry expectations for E1: FAILED\n" in out
    assert len(list(tmp_path.glob("run-*/W3.json"))) == 1


@pytest.mark.parametrize("argv, ignored, read", [
    (("hilbert", "--check", "t41", "--ladder", "32,64"),
     [("--p", "1.25"), ("--seed", "3"), ("--G", "n^2")], ("--ladder", "32,128")),
    (("hilbert", "--check", "t44", "--ladder", "16,32"),
     [("--G", "n^2"), ("--lam", "0.3"), ("--operator", "nowhere.json")], ("--seed", "1")),
    (("hilbert", "--check", "t8", "--ladder", "32,64"),
     [("--p", "1.25"), ("--schedule", "power:2")], ("--seed", "1")),
    (("random", "--stat", "hilbert", "--ladder", "16,32", "--samples", "2"),
     [("--G", "n^2"), ("--schedule", "power:2"), ("--n-lambda", "32"),
      ("--n-lambda", "99999999999")], ("--seed", "1")),
    (("hilbert", "--n-max", "24"),
     [("--p", "1.25"), ("--G", "n^2"), ("--G", "n^"), ("--ladder", "8,16")],
     ("--seed", "1")),
], ids=["t41", "t44", "t8", "random-hilbert", "trace"])
def test_runs_are_named_by_the_flags_they_read(tmp_path, argv, ignored, read):
    # a flag the mode ignores, at any value, leaves the run dir where it
    # was; a flag it reads names a new one
    for extra in [(), *ignored]:
        assert _run(tmp_path, *argv, *extra) == 0
    assert len(list(tmp_path.glob("run-*"))) == 1
    assert _run(tmp_path, *argv, *read) == 0
    assert len(list(tmp_path.glob("run-*"))) == 2


@pytest.mark.parametrize("argv", [
    ("--expect", "bogus"),
    ("--sample-points", "0"),
    ("--sample-points", "5000"),
    ("--sample-points", "-3"),
    ("--n-max", "64", "--ladder", "64"),
    ("--n-max", "100"),
])
def test_slln_bad_input_exits_2_without_running(tmp_path, capsys, argv):
    # the default ladder for n_max = 100 is (64,): one entry, no Cauchy gap
    base = ("slln", "--example", "EwA", "--n-max", "256", "--grid", "1024")
    assert _run(tmp_path, *base, *argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "Traceback" not in err and out == ""
    assert list(tmp_path.glob("run-*")) == []


def _exits_0_1_or_2(argv, out_dir):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv + ["--out", str(out_dir)])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert err.getvalue().startswith(("error: ", "usage: "))


_SLLN_EXPECT = st.sampled_from(["", "consistent-with-convergence", "inconsistent",
                                "indeterminate", "bogus"])
# power tokens b^e, e from -3 to 10^7: fractions, negatives, 0^-1 and values
# far past 2^62 among them.  Exponents 10..39 are left out, because such
# powers below the caps run full-size series (a 2^19-term `random --stat
# hilbert` takes seconds).
_POWER_TOKEN = st.tuples(st.sampled_from((2, 3, 1, 0, -1, -2)),
                         st.integers(-3, 9) | st.integers(40, 10**7)).map(
    lambda t: f"{t[0]}^{t[1]}")
_LADDER_TEXT = st.one_of(
    st.lists(st.integers(-4, 600).map(str) | _POWER_TOKEN, min_size=1,
             max_size=5).map(",".join),
    st.tuples(st.integers(-4, 64).map(str) | _POWER_TOKEN,
              _POWER_TOKEN | st.integers(-4, 600).map(str)).map("..".join))


@settings(max_examples=40, deadline=5000, database=None)
@given(n_max=st.integers(128, 512) | st.integers(-2, 512),
       grid=st.integers(-2, 4096), ladder=st.none() | _LADDER_TEXT,
       sample_points=st.integers(1, 64) | st.integers(-4, 5000),
       expect=_SLLN_EXPECT, example=st.booleans())
def test_slln_fuzzed_argv_exits_0_1_or_2(n_max, grid, ladder, sample_points,
                                         expect, example):
    argv = ["slln", "--n-max", str(n_max), "--grid", str(grid),
            "--sample-points", str(sample_points)]
    argv += ["--example", "EwA"] if example else ["--G", "n", "--W", "n^1.5"]
    if ladder is not None:
        argv += ["--ladder", ladder]
    if expect:
        argv += ["--expect", expect]
    with tempfile.TemporaryDirectory() as tmp:
        _exits_0_1_or_2(argv, tmp)


_OPERATORS = {
    "koopman": {"kind": "koopman", "theta": 0.1875, "space": {"kind": "circle", "M": 64}},
    "doubling": {"kind": "koopman", "map": "doubling", "space": {"kind": "circle", "M": 64}},
    "matrix": {"kind": "matrix", "matrix": [[0.5, 0.3], [-0.2, 0.6]]},
    "markov": {"kind": "markov", "matrix": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5],
                                            [0.5, 0.0, 0.5]]},
    "skew": {"kind": "skew", "space": {"kind": "finite", "m": 3}, "pi": [1, 2, 0],
             "fibers": [[[0.6, 0.1], [0.0, 0.7]], [[0.0, 0.9], [0.4, 0.0]],
                        [[0.5, 0.0], [0.2, 0.5]]]},
    "nan-skew": _NAN_FIBER_SKEW,
    "near-tie": _near_tie_matrix_json(),
}
_SCHEDULE_TEXT = st.one_of(
    st.sampled_from(["identity", "superexp", "power:3", "bogus"]),
    st.floats(0.5, 4.0).map(lambda r: f"power:{r}"),
    st.integers(-1, 4).map(lambda r: f"monomial:{r}"),
    st.floats(0.5, 3.0).map(lambda q: f"geometric:{q}"),
    st.lists(st.integers(1, 10**6), min_size=1, max_size=70, unique=True).map(sorted)
    .map(lambda xs: "explicit:" + ",".join(map(str, xs))),
    st.lists(st.integers(-2, 10**6), min_size=1, max_size=8).map(
        lambda xs: "explicit:" + ",".join(map(str, xs))))


@settings(max_examples=40, deadline=5000, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_max=st.integers(-2, 64), schedule=st.none() | _SCHEDULE_TEXT,
       lam=st.none() | st.floats(-2.0, 2.0),
       operator=st.none() | st.sampled_from(sorted(_OPERATORS)))
def test_hilbert_fuzzed_argv_exits_0_1_or_2(tmp_path, n_max, schedule, lam, operator):
    argv = ["hilbert", "--n-max", str(n_max)]
    if schedule is not None:
        argv += ["--schedule", schedule]
    if lam is not None:
        argv.append(f"--lam={lam!r}")
    if operator is not None:
        path = tmp_path / f"{operator}.json"
        path.write_text(json.dumps(_OPERATORS[operator]))
        argv += ["--operator", str(path)]
    _exits_0_1_or_2(argv, tmp_path / "out")


def test_hilbert_rejects_doubling_koopman(tmp_path, capsys):
    # doubling maps two grid points onto each even one: not a contraction
    path = tmp_path / "doubling.json"
    path.write_text(json.dumps(_OPERATORS["doubling"]))
    assert _run(tmp_path, "hilbert", "--n-max", "16", "--operator", str(path)) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "contraction" in err and out == ""
    assert list(tmp_path.glob("run-*")) == []


@pytest.mark.parametrize("argv", [
    ("random", "--ladder", "256,1099511627776"),
    ("hilbert", "--n-max", "1099511627776"),
    ("slln", "--n-max", "1099511627776"),
    ("hilbert", "--check", "t8", "--ladder", "32,1099511627776"),
])
def test_sizes_past_the_summation_cap_exit_2_at_once(tmp_path, capsys, argv):
    t0 = time.perf_counter()
    assert _run(tmp_path, *argv) == 2
    assert time.perf_counter() - t0 < 0.5
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "at most 1000000" in err and out == ""
    assert list(tmp_path.glob("run-*")) == []


@pytest.mark.parametrize("argv", [
    ("random", "--n-lambda", str((1 << 22) + 1)),
    ("slln", "--grid", str((1 << 22) + 1)),
    ("slln", "--n-max", "1000000", "--grid", "3"),
])
def test_grids_past_the_grid_cap_exit_2_at_once(tmp_path, capsys, argv):
    t0 = time.perf_counter()
    assert _run(tmp_path, *argv) == 2
    assert time.perf_counter() - t0 < 0.5
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and f"at most {1 << 22}" in err and out == ""
    assert list(tmp_path.glob("run-*")) == []


@pytest.mark.parametrize("argv", [
    ("random", "--ladder", "1..2^3000000"),
    ("random", "--ladder", "9^3000000"),
    ("random", "--ladder", "2^-1"),
    ("check", "--example", "E1", "--ladder", "100,2^63"),
])
def test_ladder_tokens_past_the_index_cap_exit_2_at_once(tmp_path, capsys, argv):
    # the power is refused from its exponent, never computed or doubled up to
    t0 = time.perf_counter()
    assert _run(tmp_path, *argv) == 2
    assert time.perf_counter() - t0 < 0.5
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and str(INDEX_CAP) in err and out == ""
    assert list(tmp_path.glob("run-*")) == []


@pytest.mark.parametrize("argv, message", [
    (("--ladder", "0"), "below the start index"),
    (("--G", "n^400"), "no valid start index"),
    (("--G", "n^0.5*ln(n)^-3"), "no valid start index"),
    (("--G", "lnln(n)"), "precondition checks failed"),
])
def test_random_non_weights_exit_2_without_warnings(tmp_path, capsys, argv, message):
    # random starts G at its own n0: the start-index scan refuses n^400 and
    # n^0.5*ln(n)^-3, and lnln(n), a weight from its n0, fails the regime check
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(tmp_path, "random", "--ladder", "64,128", "--samples", "2",
                    *argv) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and message in err and out == ""
    assert list(tmp_path.glob("run-*")) == []


@pytest.mark.parametrize("text, g, k0", [
    ("ln(n)", math.log, 3),      # a weight from n0 = 3
    ("n", float, 1),             # a weight from 1 starts there
])
def test_random_weight_starts_at_its_own_n0(tmp_path, text, g, k0):
    assert _run(tmp_path, "random", "--stat", "sup", "--G", text,
                "--ladder", "64,128", "--no-regime-check") == 0
    doc = json.loads((_only_run_dir(tmp_path) / "estimate.json").read_text())
    draws = RandomModulation("rademacher", 0).draws(0, 128).real
    lam = np.exp(2j * np.pi * np.arange(64) / 64)

    def sup_from(start):
        # max over the ladder and the 64 angles of |sum_{start<=k<=n} f_k lam^k| / G_n
        return max(np.abs(np.polyval(draws[start - 1:n][::-1], lam) * lam**start).max()
                   / g(n) for n in (64, 128))

    assert doc["per_sample"][0] == pytest.approx(sup_from(k0), rel=1e-12)
    other = 1 if k0 == 3 else 3
    assert doc["per_sample"][0] != pytest.approx(sup_from(other), rel=1e-6)


@pytest.mark.parametrize("stat", ["sup", "hilbert"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_random_samples_below_one_exit_2_before_any_series(tmp_path, capsys, monkeypatch,
                                                           stat, samples):
    # hilbert used to run W3, W4 and T21 of E5, and sup (1RT1), before refusing
    def never(*args, **kwargs):
        raise AssertionError("a precondition series ran")

    monkeypatch.setattr(registry, "check_admissible", never)
    monkeypatch.setattr(stochastics, "check_1RT1", never)
    assert _run(tmp_path, "random", "--stat", stat, "--samples", samples) == 2
    out, err = capsys.readouterr()
    assert err == "error: sample count must be >= 1\n" and out == ""
    assert list(tmp_path.glob("run-*")) == []


@pytest.mark.parametrize("n_lambda", ["0", "-3"])
def test_random_sup_grid_below_one_exits_2_before_any_series(tmp_path, capsys,
                                                             monkeypatch, n_lambda):
    # the weight's n0 search and the 10^6-term (1RT1) gate used to run before
    # the circle kernel refused the grid
    def never(*args, **kwargs):
        raise AssertionError("a precondition series ran")

    monkeypatch.setattr(stochastics, "check_1RT1", never)
    monkeypatch.setattr(cli.WeightSeq, "from_text", never)
    assert _run(tmp_path, "random", "--stat", "sup", "--n-lambda", n_lambda) == 2
    out, err = capsys.readouterr()
    assert err == f"error: grid size must be >= 1, got {n_lambda}\n" and out == ""
    assert list(tmp_path.glob("run-*")) == []


_REGIME_REFUSAL = ("error: precondition checks failed (['RT1gamma']); rerun with "
                   "the regime check disabled to proceed unlabeled\n")


@pytest.mark.parametrize("G", ["n^0.1", "lnln(n)"])
@pytest.mark.parametrize("schedule", ["identity", "power:2", "monomial:3", "superexp"])
def test_random_sup_symbolic_refusal_sums_no_series(tmp_path, capsys, monkeypatch,
                                                    G, schedule):
    # both classes diverge along every symbolic schedule, so the gate refuses
    # before the (1RT1) pass; superexp ends before lnln(n) starts at 16, and
    # the check's own range error comes first, as before
    def never(*args, **kwargs):
        raise AssertionError("the (1RT1) series ran")

    monkeypatch.setattr(stochastics, "check_1RT1", never)
    assert _run(tmp_path, "random", "--stat", "sup", "--G", G, "--schedule", schedule,
                "--samples", "2") == 2
    out, err = capsys.readouterr()
    if (G, schedule) == ("lnln(n)", "superexp"):
        assert err == "error: empty summation range [16, 15]\n"
    else:
        assert err == _REGIME_REFUSAL
    assert out == "" and list(tmp_path.glob("run-*")) == []


@pytest.mark.parametrize("extra", [(), ("--no-regime-check",)])
def test_random_sup_late_decreasing_G_is_refused_as_not_a_weight(tmp_path, capsys, extra):
    # n^-1 ln(n)^5 rises over its n0 window and falls from n = 149 on: its
    # negative exponent sends it to the (1RT1) pass, whose audit names the drop
    assert _run(tmp_path, "random", "--stat", "sup", "--G", "n^-1*ln(n)^5",
                "--samples", "2", *extra) == 2
    out, err = capsys.readouterr()
    assert err == ("error: weight '1 * n^-1 * ln(n)^5' decreases near index 149: "
                   "not a weight\n")
    assert out == "" and list(tmp_path.glob("run-*")) == []


@pytest.mark.parametrize("G, schedule, ladder, extra, regime", [
    ("n^0.1", "identity", "64,128", ("--no-regime-check",), "unchecked"),
    ("n", "identity", "64,128", (), "theorem"),
    ("n", "geometric:2", "8,16", (), "theorem"),
])
def test_random_sup_sums_its_precondition_when_the_run_proceeds(
        tmp_path, monkeypatch, G, schedule, ladder, extra, regime):
    # an unchecked run, a converging class and a numeric (geometric) class
    # each sum the (1RT1) series once and record its report's digest
    reports = []
    check = stochastics.check_1RT1

    def counted(*args, **kwargs):
        reports.append(check(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(stochastics, "check_1RT1", counted)
    assert _run(tmp_path, "random", "--stat", "sup", "--samples", "2", "--G", G,
                "--schedule", schedule, "--ladder", ladder, *extra) == 0
    doc = json.loads((_only_run_dir(tmp_path) / "estimate.json").read_text())
    assert len(reports) == 1 and doc["regime"] == regime
    expected = check(WeightSeq.from_text(G, search_from=1), parse_schedule(schedule), 0.5)
    assert doc["admissibility_hashes"] == [expected.digest()] == [reports[0].digest()]


def test_random_sup_ladder_entry_below_n0_exits_2(tmp_path, capsys):
    # lnln(n) starts at n0 = 16; the entry 8 used to be dropped silently
    assert _run(tmp_path, "random", "--stat", "sup", "--G", "lnln(n)",
                "--ladder", "8,256", "--no-regime-check") == 2
    out, err = capsys.readouterr()
    assert err == "error: ladder entry 8 lies below the start index 16\n" and out == ""
    assert list(tmp_path.glob("run-*")) == []


def test_random_sup_repeated_ladder_entry_is_one_column(tmp_path):
    # the repeated 256 used to be written as two columns
    docs = []
    for text in ("256,256", "256"):
        assert _run(tmp_path / text, "random", "--stat", "sup", "--ladder", text,
                    "--samples", "2") == 0
        docs.append(json.loads((_only_run_dir(tmp_path / text) / "estimate.json")
                               .read_text()))
    assert docs[0]["extra"]["ladder"] == [256]
    assert [len(row) for row in docs[0]["extra"]["series_sup_trace"]] == [1, 1]
    assert docs[0]["extra"] == docs[1]["extra"]
    assert docs[0]["per_sample"] == docs[1]["per_sample"]


def test_check_ladder_past_the_summation_cap_sums_to_it(tmp_path):
    t0 = time.perf_counter()
    assert _run(tmp_path, "check", "--G", "n", "--W", "n^2",
                "--ladder", "100,1099511627776") == 0
    assert time.perf_counter() - t0 < 2.0
    doc = json.loads((_only_run_dir(tmp_path) / "W3.json").read_text())
    assert doc["partial_sums"][-1][0] == 10**6


@pytest.mark.parametrize("schedule, last_gap", [("power:3.5", 36177),
                                               ("power:6.5", 283)])
def test_check_fractional_power_sums_to_its_last_exact_gap(tmp_path, schedule, last_gap):
    # the gap after the schedule's reach needs an n_k past the float-exact cap
    assert _run(tmp_path, "check", "--G", "n^0.5", "--W", "n", "--schedule",
                schedule) == 0
    doc = json.loads((_only_run_dir(tmp_path) / "W4.json").read_text())
    assert doc["partial_sums"][-1][0] == last_gap


def test_hilbert_past_a_fractional_power_reach_names_its_cap(tmp_path, capsys):
    assert _run(tmp_path, "hilbert", "--schedule", "power:6.5", "--n-max", "300") == 2
    err = capsys.readouterr().err
    assert "has only 284 terms with n_k <= 2^53" in err
    assert "out of reach" in err


_WEIGHT_TEXT = st.sampled_from([
    "n", "n^0.5", "n^1.5", "n^2", "2*n", "ln(n)", "n*ln(n)^2", "lnln(n)",
    "n^0.5*ln(n)^-3", "ln(n)^-1", "n^-1", "0.5", "n^400", "n^", "n**2", "bogus", ""])
_CHECK_EXPECT = st.lists(st.sampled_from([
    "admissible", "not-admissible", "weak-admissible", "t21", "meaningful",
    "W3=converges", "rrr=diverges", "full-W1=unknown", "W9=converges", "bogus"]),
    max_size=3).map(",".join)


@settings(max_examples=40, deadline=3000, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(weights=st.none() | st.tuples(_WEIGHT_TEXT, _WEIGHT_TEXT),
       example=st.sampled_from(EXAMPLE_IDS), schedule=st.none() | _SCHEDULE_TEXT,
       ladder=_LADDER_TEXT, p=st.sampled_from(["0.5", "1", "1.5", "2", "3"]),
       expect=_CHECK_EXPECT, full_sequence=st.booleans())
def test_check_fuzzed_argv_exits_0_1_or_2(tmp_path, weights, example, schedule,
                                          ladder, p, expect, full_sequence):
    argv = ["check", "--ladder", ladder, "--p", p]
    if weights is None:
        argv += ["--example", example]
    else:
        argv += ["--G", weights[0], "--W", weights[1]]
    if schedule is not None:
        argv += ["--schedule", schedule]
    if expect:
        argv += ["--expect", expect]
    if full_sequence:
        argv.append("--full-sequence")
    _exits_0_1_or_2(argv, tmp_path / "out")


@settings(max_examples=40, deadline=3000, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stat=st.sampled_from(["sup", "hilbert"]),
       law=st.sampled_from(["rademacher", "gaussian", "complex-gaussian", "zero",
                            "bogus"]),
       G=st.none() | _WEIGHT_TEXT, schedule=st.none() | _SCHEDULE_TEXT,
       ladder=_LADDER_TEXT, samples=st.integers(-1, 4), n_lambda=st.integers(-2, 64),
       seed=st.integers(-2, 3), threads=st.integers(-1, 2),
       no_regime_check=st.booleans())
def test_random_fuzzed_argv_exits_0_1_or_2(tmp_path, stat, law, G, schedule, ladder,
                                           samples, n_lambda, seed, threads,
                                           no_regime_check):
    argv = ["random", "--stat", stat, "--law", law, "--ladder", ladder,
            "--samples", str(samples), "--n-lambda", str(n_lambda),
            "--seed", str(seed), "--threads", str(threads)]
    if G is not None:
        argv += ["--G", G]
    if schedule is not None:
        argv += ["--schedule", schedule]
    if no_regime_check:
        argv.append("--no-regime-check")
    _exits_0_1_or_2(argv, tmp_path / "out")
