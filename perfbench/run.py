"""ergolab benchmark: end-to-end and per-layer metrics of the CLI.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # table of every metric
    python3 perfbench/run.py --smoke                      # tiny sizes, schema check

Each run drives ``ergolab.cli.main(argv)`` in-process as a closed loop with
one client: the next operation starts when the previous one returns.  A pass
is the workload's fixed batch of operations; passes repeat while another
one is expected to end within ``--seconds`` (at least one pass runs).  With
``--trace 1`` the run makes one untraced pass and then one traced pass and
reports the per-layer metrics.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is
nonzero when a correctness check fails.  See README.md for the metric
definitions.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import harness
import workloads
from oracle import TOLERANCES, files_changed, judge
from tracer import LAYERS, Tracer, self_times

HERE = Path(__file__).resolve().parent
BENCHMARK = harness.ROOT / "BENCHMARK.json"
# never used while developing a change; confirm a claim on it afterwards
HELD_OUT_SEED = 7919
SETUP_PROBES = 5
ADMISSIBILITY_VERDICTS = {"converges", "diverges", "unknown"}


# ---------------------------------------------------------------------------
# set-up time


def setup_probe(workload: str, seed: int, tiny: bool) -> None:
    """Child side of ``setup_s``: import the CLI, generate the workload."""
    harness.load_cli()
    workloads.generate(workload, seed, harness.WORK, tiny)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int, tiny: bool) -> tuple[float, int]:
    """Median time from starting a fresh interpreter to the probe's 'ready'
    line, over SETUP_PROBES interpreters after one discarded warm-up (which
    also writes the bytecode caches)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    probes = 2 if tiny else SETUP_PROBES
    times = []
    for i in range(probes + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              cwd=harness.ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _out, err = proc.communicate(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.decode(errors='replace')[-400:]}")
        if i:
            times.append(t1 - t0)
    return statistics.median(times), len(times)


# ---------------------------------------------------------------------------
# passes


def run_pass(main, ops, refs, tracer=None) -> dict:
    """Run the batch once; every operation is judged against the reference."""
    records = []
    self_s = defaultdict(float)
    op_spans = []
    max_dev = 0.0
    t_start = time.perf_counter()
    for i, op in enumerate(ops):
        gc.collect()
        latency, obs = harness.run_op(main, op, harness.WORK / "ops" / f"{i:03d}")
        ref = refs.get(op.key)
        status, reason = judge(op, obs, ref)
        records.append({"op": op, "latency": latency, "obs": obs, "status": status,
                        "reason": reason, "changed": files_changed(obs, ref)})
        if tracer is not None:
            spans = tracer.take_spans()
            layer_self, total = self_times(spans)
            if total <= 0.0:
                raise RuntimeError(f"no root span for {op.key}")
            max_dev = max(max_dev, abs(sum(layer_self.values()) - total) / total)
            for layer, v in layer_self.items():
                self_s[layer] += v
            op_spans.append(spans)
    # thread pairs must write byte-identical run dirs
    by_pair = defaultdict(list)
    for r in records:
        if r["op"].pair is not None:
            by_pair[r["op"].pair].append(r)
    for pair in by_pair.values():
        if len({json.dumps(r["obs"]["files"], sort_keys=True) for r in pair}) != 1:
            for r in pair:
                r["status"], r["reason"] = "fail", "thread pair wrote different bytes"
    return {"records": records, "clock": time.perf_counter() - t_start,
            "wall": sum(r["latency"] for r in records), "self_s": dict(self_s),
            "spans": op_spans, "self_time_deviation": max_dev}


# ---------------------------------------------------------------------------
# metrics


def nearest_rank(values, q):
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def end_to_end(passes, setup, peak_rss_mb) -> dict:
    """Every end-to-end metric as {value, unit, base}; base is the sample
    count or the denominator the value rests on."""
    recs = [r for p in passes for r in p["records"]]
    ok = [r for r in recs if r["status"] == "pass"]
    valid = [r["latency"] for r in ok if r["op"].expect == "valid"]
    rejects = [r["latency"] for r in ok if r["op"].expect == "reject"]
    walls = [p["wall"] for p in passes]
    m = {
        "setup_s": (setup[0], "s", setup[1]),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "op_p50_s": (statistics.median(valid) if valid else 0.0, "s", len(valid)),
        "op_p90_s": (nearest_rank(valid, 0.9) if valid else 0.0, "s", len(valid)),
        "reject_p50_s": (statistics.median(rejects) if rejects else 0.0, "s", len(rejects)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    return {k: {"value": v, "unit": u, "base": b} for k, (v, u, b) in m.items()}


def run_level(passes) -> dict:
    """Outcome ratios and Monte Carlo throughput of untraced passes."""
    recs = [r for p in passes for r in p["records"]]
    failed = sum(r["status"] != "pass" for r in recs)
    verdicts = [v for r in recs for v in r["obs"]["verdicts"].values()
                if v in ADMISSIBILITY_VERDICTS]
    unknown = sum(v == "unknown" for v in verdicts)
    rates, samples = [], 0
    for p in passes:
        n = sum(len(v) for r in p["records"] for k, v in r["obs"]["numbers"].items()
                if k.endswith(":per_sample") and r["status"] == "pass")
        samples += n
        rates.append(n / p["wall"])
    t1 = sum(r["latency"] for r in recs if r["op"].threads == 1 and r["op"].pair is not None)
    t2 = sum(r["latency"] for r in recs if r["op"].threads == 2 and r["op"].pair is not None)
    first = passes[0]["records"]
    m = {
        "fail_ratio": (failed / len(recs), "ratio", len(recs)),
        "unknown_ratio": (unknown / len(verdicts) if verdicts else 0.0, "ratio", len(verdicts)),
        "samples_per_s": (statistics.median(rates), "1/s", samples),
        "stochastics.thread_speedup": (t1 / t2 if t2 else 0.0, "ratio",
                                       sum(r["op"].pair is not None for r in recs) // 2),
        "cli.bytes_written": (sum(r["obs"]["bytes"] for r in first), "bytes", len(first)),
        "cli.files_changed": (sum(r["changed"] for r in first), "count",
                              sum(len(r["obs"]["files"]) for r in first)),
    }
    return {k: {"value": v, "unit": u, "base": b} for k, (v, u, b) in m.items()}


def per_layer(traced, untraced_wall, tracer) -> dict:
    recs = traced["records"]
    calls = defaultdict(int)
    for spans in traced["spans"]:
        for s in spans:
            calls[LAYERS[s[2]]] += 1
    c = tracer.counts
    self_s = traced["self_s"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s", len(recs))
        m[f"{layer}.calls"] = (calls[layer], "count", len(recs))
    adm, tr = self_s.get("admissibility", 0.0), self_s.get("transforms", 0.0)
    m.update({
        "weights.seq_build_s": (c["weights.seq_build_s"], "s", len(recs)),
        "weights.prefix_terms": (c["weights.prefix_terms"], "count", len(recs)),
        "admissibility.series_terms": (c["admissibility.series_terms"], "count", len(recs)),
        "admissibility.terms_per_s": (c["admissibility.series_terms"] / adm if adm else 0.0,
                                      "1/s", int(c["admissibility.series_terms"])),
        "accum.cumsum_terms": (c["accum.cumsum_terms"], "count", len(recs)),
        "operators.matrix_powers": (c["operators.matrix_powers"], "count", len(recs)),
        "operators.norm_calls": (c["operators.norm_calls"], "count", len(recs)),
        "transforms.grid_terms": (c["transforms.grid_terms"], "count", len(recs)),
        "transforms.grid_terms_per_s": (c["transforms.grid_terms"] / tr if tr else 0.0,
                                        "1/s", int(c["transforms.grid_terms"])),
        "transforms.peak_mb": (c["transforms.peak_mb"], "MB", calls["transforms"]),
        "stochastics.samples": (c["stochastics.samples"], "count", len(recs)),
        "trace.overhead_ratio": (traced["wall"] / untraced_wall, "ratio", len(recs)),
    })
    return {k: {"value": v, "unit": u, "base": b} for k, (v, u, b) in m.items()}


# ---------------------------------------------------------------------------
# provenance


def machine_facts() -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
            return int(out) if out.isdigit() else None
        except (OSError, subprocess.SubprocessError):
            return None
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "l2_cache_bytes": getconf("LEVEL2_CACHE_SIZE"),
            "l3_cache_bytes": getconf("LEVEL3_CACHE_SIZE"),
            "machine": platform.machine()}


def source_identity() -> dict:
    """git SHA when the checkout is a repository, and a digest of src/ always."""
    sha = None
    if (harness.ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT,
                                 capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    h = hashlib.sha256()
    for f in sorted(harness.SRC.rglob("*.py")):
        h.update(f.relative_to(harness.SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


# ---------------------------------------------------------------------------
# one workload run


def benchmark_names():
    spec = json.loads(BENCHMARK.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(args) -> int:
    try:
        cli = harness.load_cli()
    except (harness.SourceMissing, ImportError) as e:
        print(f"error: cannot import the program: {e}", file=sys.stderr)
        return 2
    e2e_names, layer_names = benchmark_names()
    ops = workloads.generate(args.workload, args.seed, harness.WORK, args.tiny)
    refs = {}
    if not args.tiny:
        refs = json.loads(harness.REFERENCE.read_text())["workloads"][args.workload]
        missing = [op.key for op in ops if op.key not in refs]
        if missing:
            print(f"error: no reference for {missing[:3]}", file=sys.stderr)
            return 2
    # set-up time is an end-to-end metric; traced runs do not report it
    setup = (0.0, 0) if args.trace else measure_setup(args.workload, args.seed, args.tiny)

    # unmeasured warm-up: the tiny batch runs the same code paths, so lazy
    # imports and first-call set-up finish before timing starts
    for i, op in enumerate(workloads.generate(args.workload, args.seed, harness.WORK, True)):
        harness.run_op(cli.main, op, harness.WORK / "ops" / f"warmup-{i}")

    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(cli.main, ops, refs))
        if args.trace or time.perf_counter() - t0 + passes[-1]["clock"] > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    all_passes = list(passes)
    tracer = None
    if args.trace:
        tracer = Tracer()
        traced_main = tracer.install()
        traced = run_pass(traced_main, ops, refs, tracer)
        all_passes.append(traced)

    metrics = end_to_end(passes, setup, peak_rss_mb)
    metrics.update(run_level(passes))
    if tracer is not None:
        metrics.update(per_layer(traced, passes[0]["wall"], tracer))

    recs = [r for p in all_passes for r in p["records"]]
    wrong = [r for r in recs if r["status"] == "fail"]
    result = {
        "correct": not wrong,
        "attempted": len(recs),
        "failed": sum(r["status"] != "pass" for r in recs),
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in (layer_names if args.trace else e2e_names)},
    }
    write_results(args, metrics, all_passes, tracer, result)
    print_summary(args, metrics, all_passes, tracer, wrong)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def write_results(args, metrics, passes, tracer, result):
    out = harness.WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    doc = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "machine": machine_facts(), "source": source_identity(),
        "tolerances": TOLERANCES, "result": result, "metrics": metrics,
        "passes": [{
            "traced": i == len(passes) - 1 and tracer is not None,
            "wall_s": p["wall"],
            "self_time_deviation": p["self_time_deviation"],
            "ops": [{"argv": r["op"].key, "threads": r["op"].threads,
                     "expect": r["op"].expect, "group": r["op"].group,
                     "latency_s": r["latency"], "exit": r["obs"]["exit"],
                     "error": r["obs"]["error"], "status": r["status"],
                     "reason": r["reason"], "files_changed": r["changed"]}
                    for r in p["records"]],
        } for i, p in enumerate(passes)],
    }
    if tracer is not None:
        doc["trace"] = {"boundaries": tracer.boundary_count(),
                        "missing_counters": tracer.missing_counters(),
                        "spans_file": f"{stem}-spans.csv.gz"}
        t_base = min(s[5] for s in passes[-1]["spans"][0])
        with gzip.open(out / f"{stem}-spans.csv.gz", "wt") as fh:
            fh.write("op,span,parent,layer,name,thread,start_s,end_s\n")
            for opi, spans in enumerate(passes[-1]["spans"]):
                for sid, parent, li, ni, tid, s0, s1 in spans:
                    fh.write(f"{opi},{sid},{parent},{LAYERS[li]},{tracer.names[ni]},"
                             f"{tid},{s0 - t_base:.9f},{s1 - t_base:.9f}\n")
    (out / f"{stem}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def print_summary(args, metrics, passes, tracer, wrong):
    recs = [r for p in passes for r in p["records"]]
    known = sum(r["status"] == "known" for r in recs)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"{' (last traced)' if tracer else ''}  operations {len(recs)}"
          f"  failed {known + len(wrong)} (recorded defects {known})")
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:>16.6g} {m['unit']:6s} base {m['base']}")
    if tracer is not None:
        dev = max(p["self_time_deviation"] for p in passes)
        total = sum(passes[-1]["self_s"].values())
        shares = ", ".join(f"{k} {v / total:.1%}" for k, v in
                           sorted(passes[-1]["self_s"].items(), key=lambda kv: -kv[1]))
        print(f"  self-time shares: {shares}")
        print(f"  layer self times vs operation time: max relative deviation {dev:.2e}")
        if tracer.missing_counters():
            print(f"  counters without a target: {tracer.missing_counters()}")
    for r in wrong[:10]:
        print(f"  WRONG {r['op'].key}: {r['reason']}")


# ---------------------------------------------------------------------------
# all workloads / smoke


def run_children(workload_args, tiny):
    outs = {}
    for w, trace in workload_args:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w] + trace
        if tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=harness.ROOT)
        lines = proc.stdout.strip().splitlines()
        outs[(w, tuple(trace))] = (proc.returncode, lines, proc.stderr)
    return outs


def run_all(args) -> int:
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    outs = run_children([(w, common) for w in workloads.WORKLOADS], False)
    rc = 0
    for (w, _), (code, lines, err) in outs.items():
        print("\n".join(lines[:-1]) if code in (0, 1) else err[-2000:])
        rc = rc or code
    return rc


def smoke(_args) -> int:
    """Every workload at tiny sizes, untraced and traced; checks that the
    last line carries every metric with its unit and that each has a base."""
    e2e_names, layer_names = benchmark_names()
    runs = [(w, ["--seed", "0", "--seconds", "1", "--trace", t])
            for w in workloads.WORKLOADS for t in ("0", "1")]
    problems = []
    for (w, trace), (code, lines, err) in run_children(runs, True).items():
        tag = f"{w} trace={trace[-1]}"
        if code != 0 or not lines:
            problems.append(f"{tag}: exit {code}: {err[-400:]}")
            continue
        res = json.loads(lines[-1])
        if set(res) != {"correct", "attempted", "failed", "metrics"} or res["attempted"] < 1:
            problems.append(f"{tag}: bad result keys or attempted")
        want = layer_names if trace[-1] == "1" else e2e_names
        if set(res["metrics"]) != set(want):
            problems.append(f"{tag}: metric names {sorted(set(res['metrics']) ^ set(want))}")
        for name, m in res["metrics"].items():
            if m.get("unit") != want.get(name) or not isinstance(m.get("value"), (int, float)):
                problems.append(f"{tag}: {name} unit/value {m}")
        doc = json.loads((harness.WORK / "results" /
                          f"{w}-seed0-trace{trace[-1]}-tiny.json").read_text())
        for name in want:
            if not isinstance(doc["metrics"][name].get("base"), int):
                problems.append(f"{tag}: {name} has no base count")
        print(f"smoke {tag}: {len(res['metrics'])} metrics, attempted {res['attempted']}, "
              f"failed {res['failed']}")
    for p in problems:
        print(f"SMOKE PROBLEM {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes without the stored reference (smoke runs)")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.chdir(harness.ROOT)
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.tiny)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
