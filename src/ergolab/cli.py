"""Command-line front end: run configuration, example registry access,
orchestration of the checks and experiments, and CSV/JSON emission.

Exit codes: 0 success, 1 for ``--expect`` mismatches, 2 for parse errors.
Outputs land in a run directory named by the canonical config hash, so a
rerun with identical configuration overwrites byte-identically.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .admissibility import (LADDER, check_1RT1, check_admissible, check_rrr,
                            check_T21, series_report)
from .operators import (Cocycle, LinearOperator, SampleSpace, Transformation,
                        VectorField, operator_from_json, operator_norm,
                        random_field)
from .registry import EXAMPLE_IDS, example_instance
from .stochastics import (RandomModulation, ae_convergence_diag,
                          canonical_hash, random_hilbert, random_sup_stat)
from .transforms import (ModulationSeq, TransformTrace, hilbert_partial,
                         interpolation_bound_check, measure_K, opnorm_series,
                         twisted_bound_check)
from .weights import Schedule, WeightSeq, WeightSyntaxError

__all__ = ["main", "build_parser", "run_dir_for"]


# ---------------------------------------------------------------------------
# small parsers


def parse_int_token(tok: str) -> int:
    tok = tok.strip()
    if "^" in tok:
        base, exp = tok.split("^", 1)
        return int(base) ** int(exp)
    return int(tok)


def parse_ladder(text: str) -> tuple:
    """'2^6..2^12' (dyadic range) or a comma list '100,1000,10000'."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = parse_int_token(lo_s), parse_int_token(hi_s)
        out = []
        v = lo
        while v <= hi:
            out.append(v)
            v *= 2
        if not out:
            raise ValueError(f"empty ladder {text!r}")
        return tuple(out)
    return tuple(parse_int_token(t) for t in text.split(","))


def parse_schedule(text: str) -> Schedule:
    if text == "identity":
        return Schedule.identity()
    if text == "superexp":
        return Schedule.superexp()
    if ":" in text:
        kind, arg = text.split(":", 1)
        if kind == "power":
            return Schedule.power(float(arg))
        if kind == "monomial":
            return Schedule.monomial(int(arg))
        if kind == "geometric":
            return Schedule.geometric(float(arg))
        if kind == "explicit":
            return Schedule.explicit([int(t) for t in arg.split(",")])
    raise ValueError(f"unknown schedule spec {text!r}")


# ---------------------------------------------------------------------------
# output plumbing


def run_dir_for(out: str, config: dict) -> Path:
    h = canonical_hash(config)[:16]
    d = Path(out) / f"run-{h}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _json_default(o):
    if isinstance(o, np.generic):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def write_json(path: Path, obj: dict, config: dict) -> None:
    obj = dict(obj)
    obj["config_hash"] = canonical_hash(config)
    obj["tool_version"] = __version__
    path.write_text(json.dumps(obj, sort_keys=True, indent=2,
                               default=_json_default) + "\n")


def _echo(msg: str) -> None:
    print(msg)


# ---------------------------------------------------------------------------
# expectation handling


_EXPECT_GROUPS = {
    "admissible": (("W3", "converges"), ("W4", "converges")),
    "weak-admissible": (("W1", "converges"), ("W2", "converges")),
    "t21": (("T21", "converges"),),
    "meaningful": (("rrr", "diverges"),),
}


def check_expectations(expect: str | None, reports: dict) -> bool:
    if not expect:
        return True
    ok = True
    for token in expect.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "not-admissible":
            pairs = [reports.get("W3"), reports.get("W4")]
            if all(r is not None and r.verdict == "converges" for r in pairs):
                _echo("expect not-admissible: FAILED (both conditions converge)")
                ok = False
            continue
        if token in _EXPECT_GROUPS:
            wanted = _EXPECT_GROUPS[token]
        elif "=" in token:
            kind, verdict = token.split("=", 1)
            wanted = ((kind, verdict),)
        else:
            raise ValueError(f"unknown expectation {token!r}")
        for kind, verdict in wanted:
            rep = reports.get(kind)
            if rep is None or rep.verdict != verdict:
                got = "missing" if rep is None else rep.verdict
                _echo(f"expect {kind}={verdict}: FAILED (got {got})")
                ok = False
    return ok


# ---------------------------------------------------------------------------
# commands


def _instance_from_args(args):
    kwargs = {"p": args.p, "beta": args.beta, "gamma": args.gamma,
              "alpha": args.alpha, "eps": args.eps}
    if args.delta is not None:
        kwargs["delta"] = args.delta
    return example_instance(args.example, **kwargs)


def cmd_check(args) -> int:
    ladder = parse_ladder(args.ladder) if args.ladder else LADDER
    config = {"command": "check", "example": args.example, "G": args.G,
              "W": args.W, "schedule": args.schedule, "p": args.p,
              "beta": args.beta, "gamma": args.gamma, "alpha": args.alpha,
              "delta": args.delta, "eps": args.eps, "ladder": list(ladder),
              "full_sequence": args.full_sequence}
    run_dir = run_dir_for(args.out, config)

    if args.example:
        inst = _instance_from_args(args)
        reports = inst.run_checks(ladder)
        G, W = inst.G, inst.W
    else:
        if not (args.G and args.W):
            raise ValueError("check needs --example or both --G and --W")
        G = WeightSeq.from_text(args.G)
        W = WeightSeq.from_text(args.W)
        sched = parse_schedule(args.schedule or "identity")
        r3, r4 = check_admissible(W, G, sched, args.p, ladder)
        n_max = min(max(ladder), 10**6)
        reports = {"W3": r3, "W4": r4,
                   "T21": check_T21(G, W, n_max, ladder),
                   "rrr": check_rrr(G, W, n_max, ladder)}

    if args.full_sequence:
        n_start = max(G.n0, W.n0)
        n_max = min(max(ladder), 10**6)
        g = G.prefix(n_max)[n_start - G.n0:]
        w = W.prefix(n_max)[n_start - W.n0:]
        p = args.p

        def term(ks):
            i = ks - n_start
            return (g[i] / w[i]) ** p

        cls = None
        if G.expr is not None and W.expr is not None:
            cls = (G.expr / W.expr) ** p
        reports["full-W1"] = series_report(
            "full-W1", {"G": G.label, "W": W.label, "p": p},
            term, n_start, n_max, cls, ladder)

    for kind, rep in reports.items():
        write_json(run_dir / f"{kind}.json", rep.to_json(), config)
        _echo(f"{kind}: {rep.verdict} ({rep.verdict_source})")

    ok = check_expectations(args.expect, reports)
    if args.example:
        inst_ok = _instance_from_args(args).verdicts_ok(reports)
        if not inst_ok:
            _echo(f"registry expectations for {args.example}: FAILED")
        ok = ok and inst_ok
    _echo(f"reports written to {run_dir}")
    return 0 if ok else 1


def _character_fields(M: int, n_max: int, amplitude):
    """Generator state for f_k(x) = amplitude(k) e^{2 pi i k x} on the grid."""
    x = np.arange(M) / M
    base = np.exp(2j * np.pi * x)

    def fseq(k: int, _cache={"k": 0, "phase": np.ones(M, dtype=complex)}):
        if k != _cache["k"] + 1:
            raise ValueError("character stream must be consumed in order")
        _cache["phase"] = _cache["phase"] * base
        _cache["k"] = k
        return _cache["phase"] * amplitude(k)

    return fseq


def cmd_slln(args) -> int:
    n_max = args.n_max
    if n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {n_max}")
    M = args.grid
    while M < 4 * n_max:
        M *= 2
    ladder = parse_ladder(args.ladder) if args.ladder else \
        tuple(2**j for j in range(6, 14) if 2**j <= n_max)
    config = {"command": "slln", "example": args.example, "G": args.G,
              "W": args.W, "eps": args.eps, "n_max": n_max, "grid": M,
              "seed": args.seed, "ladder": list(ladder),
              "zero_field": args.zero_field, "sample_points": args.sample_points}
    run_dir = run_dir_for(args.out, config)

    if args.example:
        if args.example != "EwA":
            raise ValueError("slln pipelines are registered for EwA only")
        inst = example_instance("EwA", eps=args.eps)
        G, W = inst.G, inst.W
        amp = (lambda k: 0.0) if args.zero_field else (lambda k: np.sqrt(float(k)))
    else:
        if not (args.G and args.W):
            raise ValueError("slln needs --example EwA or both --G and --W")
        G = WeightSeq.from_text(args.G)
        W = WeightSeq.from_text(args.W)
        amp = (lambda k: 0.0) if args.zero_field else (lambda k: 1.0)

    fseq = _character_fields(M, n_max, amp)
    space = SampleSpace.circle(M)
    trace = TransformTrace(space_weights=space.weights, p=2.0)
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    sample_idx = np.sort(rng.choice(np.arange(1, M), size=args.sample_points,
                                    replace=False))
    step = max(1, n_max // 2048)
    record = sorted(set(range(1, n_max + 1, step)) | set(ladder) | {n_max})

    k_start = max(G.n0, W.n0)
    S = np.zeros(M, dtype=complex)
    series = np.zeros(M, dtype=complex)
    snapshots = []
    w_vals = W.prefix(n_max)
    ri = 0
    for n in range(1, n_max + 1):
        f = fseq(n)
        S += f
        if n >= k_start:
            series += f / w_vals[n - W.n0]
        if n in ladder:
            snapshots.append(series[sample_idx].copy())
        if ri < len(record) and n == record[ri]:
            ri += 1
            if n >= k_start:
                sw = np.abs(series)
                trace.record(n,
                             pointwise=sw,
                             norm_Sn_over_Wn=np.sqrt(np.mean(np.abs(S)**2))
                             / w_vals[n - W.n0],
                             series_partial_norm=np.sqrt(np.mean(sw**2)))

    trace.to_csv(run_dir / "trace.csv")
    diag = ae_convergence_diag(np.stack(snapshots, axis=1), ladder)
    rrr = check_rrr(G, W, min(10**6, max(10**5, n_max)))
    verdict_obj = diag.to_json()
    verdict_obj["meaningful_regime"] = bool(rrr.meaningful)
    write_json(run_dir / "ae.json", verdict_obj, config)
    write_json(run_dir / "rrr.json", rrr.to_json(), config)
    _echo(f"ae verdict: {diag.verdict}; meaningful regime: {rrr.meaningful}")
    _echo(f"outputs written to {run_dir}")
    if args.expect:
        wanted = args.expect.strip()
        if diag.verdict != wanted:
            _echo(f"expect {wanted}: FAILED (got {diag.verdict})")
            return 1
    return 0


def _doubly_stochastic(m: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed))
    P = np.zeros((m, m))
    eye = np.eye(m)
    for _ in range(m):
        P += eye[rng.permutation(m)]
    return P / m


def _random_contraction(d: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed))
    R = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return R / operator_norm(R)


def cmd_hilbert(args) -> int:
    config = {"command": "hilbert", "check": args.check, "p": args.p,
              "seed": args.seed, "n_max": args.n_max, "G": args.G,
              "W": args.W, "schedule": args.schedule, "lam": args.lam,
              "ladder": args.ladder, "operator": args.operator,
              "allow_coarse": args.allow_coarse}
    run_dir = run_dir_for(args.out, config)

    if args.check == "t41":
        instances = [
            ("ones-identity", ModulationSeq.constant(1.0), Schedule.identity(),
             WeightSeq.from_text("n", n0=1)),
            ("rotated-identity", ModulationSeq.rotation(np.exp(2j * np.pi * 0.3)),
             Schedule.identity(), WeightSeq.from_text("n", n0=1)),
            ("ones-shifted", ModulationSeq.constant(1.0), Schedule.power(1.0),
             WeightSeq.from_text("n", n0=1)),
        ]
        ladder = parse_ladder(args.ladder) if args.ladder else (32, 64, 128, 256, 512)
        worst = 0.0
        results = {}
        for name, a, sched, G in instances:
            K = measure_K(a, sched, G, max(ladder),
                          allow_coarse=args.allow_coarse).K
            rep = twisted_bound_check(a, sched, G, K, rs=(0.5, 1.0, 2.0),
                                      n_ladder=ladder, n_lambda=256)
            results[name] = rep.to_json()
            results[name]["K"] = K
            worst = max(worst, rep.max_ratio)
            _echo(f"t41 {name}: max ratio {rep.max_ratio:.6f} (K={K:.6f})")
        write_json(run_dir / "t41.json", {"instances": results,
                                          "max_ratio": worst}, config)
        return 0 if worst <= 1.0 + 1e-6 else 1

    if args.check == "t44":
        m = 8
        T = LinearOperator.markov(_doubly_stochastic(m, args.seed))
        space = SampleSpace.finite(m)
        a = ModulationSeq.constant(1.0)
        sched = Schedule.identity()
        G = WeightSeq.from_text("n", n0=1)
        ladder = parse_ladder(args.ladder) if args.ladder else (16, 32, 64, 128, 256)
        K = measure_K(a, sched, G, max(ladder), allow_coarse=args.allow_coarse).K
        fields = [random_field(space, 1, seed=args.seed + 1 + i) for i in range(20)]
        rep = interpolation_bound_check(a, T, sched, G, K, args.p, fields, ladder)
        write_json(run_dir / "t44.json",
                   {"report": rep.to_json(), "K": K, "p": args.p}, config)
        _echo(f"t44 worst ratio: {rep.max_ratio:.8f} (K={K:.6f}, p={args.p})")
        return 0 if rep.max_ratio <= 1.0 + 1e-8 else 1

    if args.check == "t8":
        inst = example_instance("E5")
        sched = Schedule.identity()
        a = ModulationSeq.constant(1.0)
        ladder = parse_ladder(args.ladder) if args.ladder else \
            tuple(2**j for j in range(5, 13))
        K = measure_K(a, sched, inst.G, max(ladder),
                      allow_coarse=args.allow_coarse).K
        all_ok, mono = True, True
        results = []
        for i in range(5):
            A = LinearOperator.from_matrix(_random_contraction(6, args.seed + i))
            rep = opnorm_series(a, A, sched, inst.W, ladder, K, inst.G)
            all_ok = all_ok and rep.all_pairs_ok
            mono = mono and rep.gaps_monotone
            results.append({"gaps": rep.gaps, "all_pairs_ok": rep.all_pairs_ok,
                            "gaps_monotone": rep.gaps_monotone})
            _echo(f"t8 contraction {i}: bound ok={rep.all_pairs_ok} "
                  f"monotone={rep.gaps_monotone}")
        write_json(run_dir / "t8.json", {"K": K, "contractions": results}, config)
        return 0 if (all_ok and mono) else 1

    # trace mode: one transform run on an explicit operator
    G = WeightSeq.from_text(args.G or "n", n0=None)
    W = WeightSeq.from_text(args.W or "n", n0=None)
    sched = parse_schedule(args.schedule or "identity")
    if args.operator:
        T = operator_from_json(json.loads(Path(args.operator).read_text()))
        space = (T.transformation.space if T.kind == "koopman"
                 else SampleSpace.finite(T.matrix.shape[0]))
    else:
        space = SampleSpace.circle(1024)
        T = LinearOperator.koopman(Transformation.rotation(space, 1))
    a = ModulationSeq.constant(1.0)
    if args.lam is not None:
        a = a.compose(ModulationSeq.rotation(np.exp(2j * np.pi * args.lam)))
    f = random_field(space, 1, seed=args.seed)
    trace = TransformTrace(space_weights=space.weights, p=2.0)
    hilbert_partial(a, T, sched, W, f, args.n_max, trace=trace)
    trace.to_csv(run_dir / "trace.csv")
    _echo(f"trace written to {run_dir}")
    return 0


def cmd_random(args) -> int:
    ladder = parse_ladder(args.ladder) if args.ladder else \
        tuple(2**j for j in range(8, 13))
    config = {"command": "random", "stat": args.stat, "law": args.law,
              "seed": args.seed, "samples": args.samples,
              "ladder": list(ladder), "n_lambda": args.n_lambda,
              "threads": None,  # thread count must not affect outputs
              "no_regime_check": args.no_regime_check}
    run_dir = run_dir_for(args.out, config)
    mod = RandomModulation(args.law, args.seed)

    if args.stat == "sup":
        G = WeightSeq.from_text(args.G or "n", n0=1)
        sched = parse_schedule(args.schedule or "identity")
        gamma_rep = check_1RT1(G, sched, alpha=0.5)
        est = random_sup_stat(mod, G, sched, ladder, args.n_lambda,
                              args.samples, regime_reports=[gamma_rep],
                              no_regime_check=args.no_regime_check,
                              threads=args.threads)
    else:
        m = 16
        space = SampleSpace.finite(m)
        base = Transformation.permutation(space, np.roll(np.arange(m), -1))
        fibers = np.broadcast_to(_random_contraction(2, args.seed + 999),
                                 (m, 2, 2)).copy()
        C = Cocycle(base, fibers)
        inst = example_instance("E5")
        checks = inst.run_checks(ladder=LADDER)
        pre = [checks["W3"], checks["W4"], checks["T21"]]
        est = random_hilbert(mod, C, None, np.array([1.0, 0.0]),
                             Schedule.identity(), inst.W, ladder, args.samples,
                             regime_reports=pre,
                             no_regime_check=args.no_regime_check,
                             threads=args.threads)
    est.config = config
    write_json(run_dir / "estimate.json", est.to_json(), config)
    _echo(f"{est.statistic}: mean {est.mean:.6g}, max {est.max:.6g} "
          f"({est.samples} samples, regime={est.regime})")
    _echo(f"outputs written to {run_dir}")
    return 0


def cmd_list_examples(_args) -> int:
    for ex_id in EXAMPLE_IDS:
        inst = example_instance(ex_id)
        claims = ",".join(sorted(inst.expected))
        _echo(f"{ex_id}: G={inst.G.label}  W={inst.W.label}  "
              f"schedule={inst.sched.describe()}  checks=[{claims}]")
        if inst.notes:
            _echo(f"    {inst.notes}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ergolab",
        description="numerical laboratory for admissible weights, weighted "
                    "ergodic averages and one-sided ergodic Hilbert transforms")

    def add_common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default="ergolab-out")
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--ladder", default=None)
        sp.add_argument("--expect", default=None)
        sp.add_argument("--no-regime-check", action="store_true")
        sp.add_argument("--allow-coarse", action="store_true")

    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="admissibility and series checks")
    add_common(sp)
    sp.add_argument("--example", choices=EXAMPLE_IDS)
    sp.add_argument("--G")
    sp.add_argument("--W")
    sp.add_argument("--schedule")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--beta", type=float, default=0.5)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--eps", type=float, default=0.25)
    sp.add_argument("--full-sequence", action="store_true")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("slln", help="weighted strong-law pipelines")
    add_common(sp)
    sp.add_argument("--example", choices=("EwA",))
    sp.add_argument("--G")
    sp.add_argument("--W")
    sp.add_argument("--eps", type=float, default=0.5)
    sp.add_argument("--n-max", type=int, default=8192)
    sp.add_argument("--grid", type=int, default=32768)
    sp.add_argument("--sample-points", type=int, default=64)
    sp.add_argument("--zero-field", action="store_true")
    sp.set_defaults(func=cmd_slln)

    sp = sub.add_parser("hilbert", help="transform traces and bound checks")
    add_common(sp)
    sp.add_argument("--check", choices=("t41", "t44", "t8"))
    sp.add_argument("--p", type=float, default=1.5)
    sp.add_argument("--G")
    sp.add_argument("--W")
    sp.add_argument("--schedule")
    sp.add_argument("--lam", type=float, default=None,
                    help="rotation modulation angle in turns")
    sp.add_argument("--operator", help="path to an operator JSON description")
    sp.add_argument("--n-max", type=int, default=256)
    sp.set_defaults(func=cmd_hilbert)

    sp = sub.add_parser("random", help="Monte Carlo experiments")
    add_common(sp)
    sp.add_argument("--stat", choices=("sup", "hilbert"), default="sup")
    sp.add_argument("--law", choices=("rademacher", "gaussian",
                                      "complex-gaussian", "zero"),
                    default="rademacher")
    sp.add_argument("--G")
    sp.add_argument("--schedule")
    sp.add_argument("--samples", type=int, default=64)
    sp.add_argument("--n-lambda", type=int, default=64)
    sp.set_defaults(func=cmd_random)

    sp = sub.add_parser("list-examples", help="show the example registry")
    sp.set_defaults(func=cmd_list_examples)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (WeightSyntaxError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
