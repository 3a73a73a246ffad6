"""Command-line front end: parses arguments into run configurations, calls
the library's checks and experiments, and writes their CSV/JSON outputs.

Exit codes: 0 success, 1 for ``--expect`` mismatches, 2 for parse errors.
Outputs land in a run directory named by the canonical config hash, so a
rerun with identical configuration overwrites byte-identically.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .admissibility import (LADDER, AdmissibilityReport, check_1RT1,
                            check_admissible, check_full_W1, check_rrr,
                            check_T21)
from .registry import (EXAMPLE_IDS, check_t8, check_t41, check_t44,
                       example_instance, random_hilbert_e5)
from .stochastics import (AEDiagnosis, RandomModulation, canonical_hash,
                          random_sup_stat, slln_chain, slln_diagnosis)
from .transforms import hilbert_trace
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
        if lo < 1:
            raise ValueError(f"ladder range {text!r} must start at 1 or above")
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


# ---------------------------------------------------------------------------
# expectation handling


_EXPECT_GROUPS = {
    "admissible": (("W3", "converges"), ("W4", "converges")),
    "weak-admissible": (("W1", "converges"), ("W2", "converges")),
    "t21": (("T21", "converges"),),
    "meaningful": (("rrr", "diverges"),),
}
_REPORT_KINDS = ("W1", "W2", "W3", "W4", "T21", "rrr", "full-W1")  # what check writes


def parse_expectations(expect: str | None) -> list:
    """(token, wanted (kind, verdict) pairs) for each ``--expect`` token, so
    that an unknown token is refused before any check runs."""
    parsed = []
    for token in (expect or "").split(","):
        token = token.strip()
        if not token:
            continue
        if token == "not-admissible":
            wanted = ()
        elif token in _EXPECT_GROUPS:
            wanted = _EXPECT_GROUPS[token]
        else:
            kind, sep, verdict = token.partition("=")
            if not sep or kind not in _REPORT_KINDS \
                    or verdict not in AdmissibilityReport.VERDICTS:
                raise ValueError(f"unknown expectation {token!r}")
            wanted = ((kind, verdict),)
        parsed.append((token, wanted))
    return parsed


def check_expectations(expectations: list, reports: dict) -> bool:
    ok = True
    for token, wanted in expectations:
        if token == "not-admissible":
            pairs = [reports.get("W3"), reports.get("W4")]
            if all(r is not None and r.verdict == "converges" for r in pairs):
                print("expect not-admissible: FAILED (both conditions converge)")
                ok = False
        for kind, verdict in wanted:
            rep = reports.get(kind)
            if rep is None or rep.verdict != verdict:
                got = "missing" if rep is None else rep.verdict
                print(f"expect {kind}={verdict}: FAILED (got {got})")
                ok = False
    return ok


# ---------------------------------------------------------------------------
# commands


def cmd_check(args) -> int:
    expectations = parse_expectations(args.expect)
    ladder = parse_ladder(args.ladder) if args.ladder else LADDER
    config = {"command": "check", "example": args.example, "G": args.G,
              "W": args.W, "schedule": args.schedule, "p": args.p,
              "beta": args.beta, "gamma": args.gamma, "alpha": args.alpha,
              "delta": args.delta, "eps": args.eps, "ladder": list(ladder),
              "full_sequence": args.full_sequence}

    if args.example:
        kwargs = {"p": args.p, "beta": args.beta, "gamma": args.gamma,
                  "alpha": args.alpha, "eps": args.eps}
        if args.delta is not None:
            kwargs["delta"] = args.delta
        inst = example_instance(args.example, **kwargs)
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
        reports["full-W1"] = check_full_W1(G, W, args.p, ladder)

    run_dir = run_dir_for(args.out, config)
    for kind, rep in reports.items():
        write_json(run_dir / f"{kind}.json", rep.to_json(), config)
        print(f"{kind}: {rep.verdict} ({rep.verdict_source})")

    ok = check_expectations(expectations, reports)
    if args.example and not inst.verdicts_ok(reports):
        print(f"registry expectations for {args.example}: FAILED")
        ok = False
    print(f"reports written to {run_dir}")
    return 0 if ok else 1


def cmd_slln(args) -> int:
    wanted = (args.expect or "").strip()
    if wanted and wanted not in AEDiagnosis.VERDICTS:
        raise ValueError(f"unknown expectation {wanted!r}; choose from "
                         f"{', '.join(AEDiagnosis.VERDICTS)}")
    n_max = args.n_max
    if n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {n_max}")
    M = args.grid
    if M < 2:
        raise ValueError(f"--grid must be >= 2, got {M}")
    while M < 4 * n_max:
        M *= 2
    ladder = parse_ladder(args.ladder) if args.ladder else \
        tuple(2**j for j in range(6, 14) if 2**j <= n_max)
    config = {"command": "slln", "example": args.example, "G": args.G,
              "W": args.W, "eps": args.eps, "n_max": n_max, "grid": M,
              "seed": args.seed, "ladder": list(ladder),
              "zero_field": args.zero_field, "sample_points": args.sample_points}

    if args.example:
        if args.example != "EwA":
            raise ValueError("slln pipelines are registered for EwA only")
        inst = example_instance("EwA", eps=args.eps)
        G, W = inst.G, inst.W
        amp = math.sqrt          # ||f_k||_2 = sqrt(k)
    else:
        if not (args.G and args.W):
            raise ValueError("slln needs --example EwA or both --G and --W")
        G = WeightSeq.from_text(args.G)
        W = WeightSeq.from_text(args.W)
        amp = lambda k: 1.0      # noqa: E731
    if args.zero_field:
        amp = lambda k: 0.0      # noqa: E731

    trace, snapshots = slln_chain(G, W, amp, n_max, M, args.seed, ladder,
                                  args.sample_points)
    diag, rrr = slln_diagnosis(G, W, snapshots, ladder, n_max)
    run_dir = run_dir_for(args.out, config)
    trace.to_csv(run_dir / "trace.csv")
    write_json(run_dir / "ae.json",
               {**diag.to_json(), "meaningful_regime": bool(rrr.meaningful)}, config)
    write_json(run_dir / "rrr.json", rrr.to_json(), config)
    print(f"ae verdict: {diag.verdict}; meaningful regime: {rrr.meaningful}")
    print(f"outputs written to {run_dir}")
    if wanted and diag.verdict != wanted:
        print(f"expect {wanted}: FAILED (got {diag.verdict})")
        return 1
    return 0


def cmd_hilbert(args) -> int:
    config = {"command": "hilbert", "check": args.check, "p": args.p,
              "seed": args.seed, "n_max": args.n_max, "G": args.G,
              "W": args.W, "schedule": args.schedule, "lam": args.lam,
              "ladder": args.ladder, "operator": args.operator}

    if args.check:
        kwargs = {"ladder": parse_ladder(args.ladder)} if args.ladder else {}
        if args.check == "t41":
            doc, passed = check_t41(**kwargs)
            for name, rep in doc["instances"].items():
                print(f"t41 {name}: max ratio {rep['max_ratio']:.6f} "
                      f"(K={rep['K']:.6f})")
        elif args.check == "t44":
            doc, passed = check_t44(args.p, args.seed, **kwargs)
            print(f"t44 worst ratio: {doc['report']['max_ratio']:.8f} "
                  f"(K={doc['K']:.6f}, p={args.p})")
        else:
            doc, passed = check_t8(args.seed, **kwargs)
            for i, rep in enumerate(doc["contractions"]):
                print(f"t8 contraction {i}: bound ok={rep['all_pairs_ok']} "
                      f"monotone={rep['gaps_monotone']}")
        write_json(run_dir_for(args.out, config) / f"{args.check}.json", doc, config)
        return 0 if passed else 1

    # trace mode: one transform run; --G is validated, the transform uses W
    WeightSeq.from_text(args.G or "n", n0=None)
    W = WeightSeq.from_text(args.W or "n", n0=None)
    sched = parse_schedule(args.schedule or "identity")
    operator = json.loads(Path(args.operator).read_text()) if args.operator else None
    trace = hilbert_trace(W, sched, args.n_max, args.seed, args.lam, operator)
    run_dir = run_dir_for(args.out, config)
    trace.to_csv(run_dir / "trace.csv")
    print(f"trace written to {run_dir}")
    return 0


def cmd_random(args) -> int:
    ladder = parse_ladder(args.ladder) if args.ladder else \
        tuple(2**j for j in range(8, 13))
    config = {"command": "random", "stat": args.stat, "law": args.law,
              "seed": args.seed, "samples": args.samples,
              "ladder": list(ladder), "n_lambda": args.n_lambda,
              "threads": None,  # thread count must not affect outputs
              "no_regime_check": args.no_regime_check}
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
        est = random_hilbert_e5(mod, ladder, args.samples,
                                no_regime_check=args.no_regime_check,
                                threads=args.threads)
    est.config = config
    run_dir = run_dir_for(args.out, config)
    write_json(run_dir / "estimate.json", est.to_json(), config)
    print(f"{est.statistic}: mean {est.mean:.6g}, max {est.max:.6g} "
          f"({est.samples} samples, regime={est.regime})")
    print(f"outputs written to {run_dir}")
    return 0


def cmd_list_examples(_args) -> int:
    for ex_id in EXAMPLE_IDS:
        inst = example_instance(ex_id)
        claims = ",".join(sorted(inst.expected))
        print(f"{ex_id}: G={inst.G.label}  W={inst.W.label}  "
              f"schedule={inst.sched.describe()}  checks=[{claims}]")
        if inst.notes:
            print(f"    {inst.notes}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ergolab",
        description="numerical laboratory for admissible weights, weighted "
                    "ergodic averages and one-sided ergodic Hilbert transforms")

    def add_common(sp, seed: bool = True, expect: bool = False):
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default="ergolab-out")
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--ladder", default=None)
        if expect:
            sp.add_argument("--expect", default=None)

    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="admissibility and series checks")
    add_common(sp, seed=False, expect=True)
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
    add_common(sp, expect=True)
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
    sp.add_argument("--no-regime-check", action="store_true")
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
    except (WeightSyntaxError, ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
