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
from .admissibility import LADDER, MAX_TERMS, AdmissibilityReport
from .registry import (EXAMPLE_IDS, ExampleInstance, check_t8, check_t41,
                       check_t44, example_instance, random_hilbert_e5)
from .stochastics import (AEDiagnosis, RandomModulation, canonical_hash,
                          random_sup_1rt1, slln_chain, slln_diagnosis)
from .transforms import hilbert_trace
from .weights import INDEX_CAP, GapSeq, Schedule, WeightSeq, WeightSyntaxError

__all__ = ["main", "build_parser", "run_dir_for"]


# ---------------------------------------------------------------------------
# small parsers


def parse_int_token(tok: str) -> int:
    """An integer or a power b^e, refused unless it lies in [0, INDEX_CAP].
    A power is judged before it is computed: |b|^e >= 2^((L - 1) e) for b of
    bit length L, so (L - 1) e > 62 is past the cap."""
    tok = tok.strip()
    try:
        if "^" in tok:
            base, exp = (int(part) for part in tok.split("^", 1))
            fits = exp >= 0 and (abs(base).bit_length() - 1) * exp <= 62
            value = base**exp if fits else None
        else:
            value = int(tok)
    except ValueError:      # not an integer, or past int()'s 4300 digits
        value = None
    if value is None or not 0 <= value <= INDEX_CAP:
        raise ValueError(f"ladder entry {tok!r} must be an integer in "
                         f"[0, {INDEX_CAP}] (2^62)")
    return value


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


MAX_GRID = 1 << 22  # circle points; above 4 * MAX_TERMS, which slln's grid needs


def require_size(what: str, n: int, cap: int = MAX_TERMS) -> None:
    """Refuse a size past its cap before anything runs."""
    if n > cap:
        raise ValueError(f"{what} must be at most {cap}, got {n}")


def parse_schedule(text: str) -> Schedule:
    if text == "identity":
        return Schedule.identity()
    if text == "superexp":
        return Schedule.superexp()
    if ":" in text:
        kind, arg = text.split(":", 1)

        def number(tok: str, cast=float):
            try:
                return cast(tok)
            except ValueError:
                raise ValueError(f"schedule spec {text!r}: {tok!r} is not "
                                 f"{'a number' if cast is float else 'an integer'}"
                                 ) from None

        if kind == "power":
            return Schedule.power(number(arg))
        if kind == "monomial":
            return Schedule.monomial(number(arg, int))
        if kind == "geometric":
            return Schedule.geometric(number(arg))
        if kind == "explicit":
            return Schedule.explicit([number(t, int) for t in arg.split(",")])
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
    else:
        if not (args.G and args.W):
            raise ValueError("check needs --example or both --G and --W")
        G, W = WeightSeq.from_text(args.G), WeightSeq.from_text(args.W)
        sched = parse_schedule(args.schedule or "identity")
        inst = ExampleInstance("ad-hoc", args.p, G, W, sched, GapSeq.derived(sched), {})
    reports = inst.run_checks(ladder, args.full_sequence)

    run_dir = run_dir_for(args.out, config)
    for kind, rep in reports.items():
        write_json(run_dir / f"{kind}.json", rep.to_json(), config)
        print(f"{kind}: {rep.verdict} ({rep.verdict_source})")

    ok = check_expectations(expectations, reports)
    if not inst.verdicts_ok(reports):
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
    require_size("--n-max", n_max)
    M = args.grid
    if M < 2:
        raise ValueError(f"--grid must be >= 2, got {M}")
    while M < 4 * n_max:
        M *= 2
    require_size("--grid", M, MAX_GRID)
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


#: the flags each bound check reads, and so the only ones that name its run
_CHECK_FLAGS = {"t41": ("ladder",), "t44": ("p", "seed", "ladder"),
                "t8": ("seed", "ladder")}


def cmd_hilbert(args) -> int:
    if args.check:
        config = {"command": "hilbert", "check": args.check,
                  **{flag: getattr(args, flag) for flag in _CHECK_FLAGS[args.check]}}
        kwargs = {}
        if args.ladder:
            kwargs["ladder"] = parse_ladder(args.ladder)
            require_size("the ladder top", max(kwargs["ladder"]))
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

    # trace mode: one transform run, named by the flags it reads
    config = {"command": "hilbert", "check": None, "seed": args.seed,
              "n_max": args.n_max, "W": args.W, "schedule": args.schedule,
              "lam": args.lam, "operator": args.operator}
    require_size("--n-max", args.n_max)
    W = WeightSeq.from_text(args.W or "n", n0=None)
    sched = parse_schedule(args.schedule or "identity")
    operator = None
    if args.operator:
        operator = json.loads(Path(args.operator).read_text())
        # the run is named by the operator's content, not by its path
        config["operator"] = canonical_hash(operator)
    trace = hilbert_trace(W, sched, args.n_max, args.seed, args.lam, operator)
    run_dir = run_dir_for(args.out, config)
    trace.to_csv(run_dir / "trace.csv")
    print(f"trace written to {run_dir}")
    return 0


def cmd_random(args) -> int:
    ladder = parse_ladder(args.ladder) if args.ladder else \
        tuple(2**j for j in range(8, 13))
    require_size("the ladder top", max(ladder))
    if args.samples < 1:
        raise ValueError("sample count must be >= 1")
    if args.stat == "sup":
        require_size("--n-lambda", args.n_lambda, MAX_GRID)
        if args.n_lambda < 1:
            raise ValueError(f"grid size must be >= 1, got {args.n_lambda}")
    config = {"command": "random", "stat": args.stat, "law": args.law,
              "seed": args.seed, "samples": args.samples,
              "ladder": list(ladder),
              # --threads changes nothing; the key stays so that run-dir
              # hashes do not move
              "threads": None,
              "no_regime_check": args.no_regime_check}
    mod = RandomModulation(args.law, args.seed)

    if args.stat == "sup":
        config.update(n_lambda=args.n_lambda, G=args.G, schedule=args.schedule)
        # a weight from 1 starts there, as random always has; a later one
        # starts at its own n0
        G = WeightSeq.from_text(args.G or "n", search_from=1)
        sched = parse_schedule(args.schedule or "identity")
        est = random_sup_1rt1(mod, G, sched, ladder, args.n_lambda, args.samples,
                              no_regime_check=args.no_regime_check)
    else:
        est = random_hilbert_e5(mod, ladder, args.samples,
                                no_regime_check=args.no_regime_check)
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
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; changes nothing")
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
    except (WeightSyntaxError, ValueError, KeyError, OSError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
