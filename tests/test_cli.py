"""Command line interface: exit codes, output layout, reproducibility."""

import contextlib
import io
import json
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ergolab.cli import (main, parse_int_token, parse_ladder, parse_schedule,
                         run_dir_for)
from ergolab.registry import example_instance
from ergolab.weights import WeightSeq


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


def test_check_parse_error_returns_2(tmp_path):
    rc = _run(tmp_path, "check", "--G", "n^", "--W", "n", "--ladder", "100")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ("random", "--stat", "sup", "--schedule", "explicit:1,2,3",
     "--ladder", "8,16", "--no-regime-check"),
    ("hilbert", "--n-max", "40", "--schedule", "superexp"),
    ("check", "--G", "n", "--W", "n^2", "--schedule", "explicit:1,2"),
    ("check", "--G", "n^0.25*ln(n)^-1", "--W", "n^0.75",
     "--schedule", "explicit:1,3,7,15,31,63,127"),
    ("slln", "--G", "n", "--W", "n", "--n-max", "0"),
])
def test_schedule_reach_errors_return_2(tmp_path, capsys, argv):
    assert _run(tmp_path, *argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


def test_hilbert_rejects_operator_without_power_bound(tmp_path, capsys):
    op = _markov_json(tmp_path / "scaled.json", scale=1.5)
    assert main(["hilbert", "--lam", "0.3", "--n-max", "16", "--operator", op,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


@pytest.mark.parametrize("desc", [
    {"kind": "koopman", "theta": 0.25},
    {"kind": "skew", "pi": [1, 0], "fibers": [[[1.0]], [[1.0]]]},
    [{"kind": "koopman", "theta": 0.25, "space": {"kind": "circle", "M": 8}}],
    {"kind": "koopman", "theta": "0.25", "space": {"kind": "circle", "M": 8}},
    {"kind": "koopman", "theta": 0.25, "space": {"kind": "circle", "M": 10**12}},
], ids=["koopman-no-space", "skew-no-space", "top-level-list", "string-theta",
        "huge-space"])
def test_hilbert_malformed_operator_json_exits_2(tmp_path, capsys, desc):
    op = tmp_path / "op.json"
    op.write_text(json.dumps(desc))
    assert main(["hilbert", "--n-max", "4", "--operator", str(op),
                 "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "Traceback" not in err and out == ""
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


def test_hilbert_missing_operator_file_exits_2(tmp_path, capsys):
    assert main(["hilbert", "--n-max", "4", "--operator",
                 str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


_SLLN_EXPECT = st.sampled_from(["", "consistent-with-convergence", "inconsistent",
                                "indeterminate", "bogus"])
_LADDER_TEXT = st.one_of(
    st.lists(st.integers(-4, 600), min_size=1, max_size=5).map(
        lambda xs: ",".join(map(str, xs))),
    st.tuples(st.integers(-4, 64), st.integers(-4, 600)).map(
        lambda t: f"{t[0]}..{t[1]}"))


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
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv + ["--out", tmp])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert err.getvalue().startswith(("error: ", "usage: "))


_OPERATORS = {
    "koopman": {"kind": "koopman", "theta": 0.1875, "space": {"kind": "circle", "M": 64}},
    "doubling": {"kind": "koopman", "map": "doubling", "space": {"kind": "circle", "M": 64}},
    "matrix": {"kind": "matrix", "matrix": [[0.5, 0.3], [-0.2, 0.6]]},
    "markov": {"kind": "markov", "matrix": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5],
                                            [0.5, 0.0, 0.5]]},
    "skew": {"kind": "skew", "space": {"kind": "finite", "m": 3}, "pi": [1, 2, 0],
             "fibers": [[[0.6, 0.1], [0.0, 0.7]], [[0.0, 0.9], [0.4, 0.0]],
                        [[0.5, 0.0], [0.2, 0.5]]]},
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert err.getvalue().startswith(("error: ", "usage: "))
