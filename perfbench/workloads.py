"""Operation batches for the three benchmark workloads.

Every operation is one ``ergolab.cli.main(argv)`` call.  A workload seed
picks parameters from fixed finite grids and never changes the number or
kind of operations, so runs on different seeds cost the same.  Because the
grids are finite, ``universe(workload)`` can list every argv a seed can
produce; the stored reference covers exactly that set.

Operation classes (``Op.expect``):

* ``valid``  -- a check or experiment; its exit code and outputs must match
  the stored reference.
* ``reject`` -- an argv that parses but must be rejected with exit code 2.
* ``defect`` -- an argv that must exit 2 but raised a traceback when the
  reference was stored (ROADMAP item 2).  It stays in the batch so the
  defect shows in ``fail_ratio``; a fix turns it into a pass.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("verdicts", "certify", "montecarlo")

P_GRID = ("1.5", "2", "3")
BETA_GRID = ("0.5", repr(1 / 3), "0.25")
SEEDS = range(8)

# ---------------------------------------------------------------------------
# verdicts


def _delta_grid(p: str, beta: str):
    """None (registry default) and two explicit deltas, one on each side of
    the admissibility boundary (p-1) beta / p."""
    b = (float(p) - 1.0) * float(beta) / float(p)
    return (None, repr(0.25 * b), repr(1.5 * b))


def _registry_grid(ex: str):
    out = []
    for p in P_GRID:
        if ex == "E0":
            for beta, gamma in itertools.product(BETA_GRID, ("1", "2")):
                out.append(("--p", p, "--beta", beta, "--gamma", gamma))
        elif ex in ("E1", "E2", "E3", "E5", "E6"):
            extra = {"E2": ("--gamma", ("1", "2")),
                     "E3": ("--alpha", ("1", "2")),
                     "E6": ("--alpha", ("1", "2"))}.get(ex)
            for beta in BETA_GRID:
                for delta in _delta_grid(p, beta):
                    base = ("--p", p, "--beta", beta)
                    if delta is not None:
                        base += ("--delta", delta)
                    if extra is None:
                        out.append(base)
                    else:
                        out.extend(base + (extra[0], v) for v in extra[1])
        elif ex == "E4":
            for eps in ("0.25", "0.5", "1"):
                out.append(("--p", p, "--eps", eps))
        elif ex == "E7":
            d0 = float(p) * 0.5 + 1.0   # registry default p(1 - 1/2) + 1
            for beta, gamma in itertools.product(BETA_GRID, ("1", "2")):
                for delta in (None, repr(d0 + 0.25)):
                    base = ("--p", p, "--beta", beta, "--gamma", gamma)
                    out.append(base if delta is None else base + ("--delta", delta))
        else:  # EwA
            for eps in ("0.25", "0.5", "0.75"):
                out.append(("--p", p, "--eps", eps))
    return out


REGISTRY_IDS = ("E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "EwA")
REGISTRY_PER_EXAMPLE = 6

ADHOC_PAIRS = (
    ("n^0.5", "n^0.8"),
    ("n^0.5", "n"),
    ("n^0.25*ln(n)", "n^0.75"),
    ("n^0.5", "n^1.5*ln(n)"),
    ("n^0.75*ln(n)", "n^1.25"),
    ("n^0.25", "n^0.5*ln(n)^2"),
)
_SQUARES = ",".join(str(k * k) for k in range(1, 101))
_DOUBLING = ",".join(str(2**k) for k in range(1, 41))
ADHOC_SCHEDULES = ("identity", "power:2", "power:3", "geometric:1.5",
                   "geometric:2", "superexp", "explicit:" + _SQUARES,
                   "explicit:" + _DOUBLING)
# checks per schedule.  The cheap schedules (numeric-only or short sums, about
# 0.2 s) get fewer checks than identity and power (about 0.4 s), so that
# with the six cheap registry examples the median check lies well inside
# the slower cluster instead of on the edge between the two.
ADHOC_PER_SCHEDULE = {"identity": 9, "power:2": 9, "power:3": 9}
ADHOC_PER_CHEAP_SCHEDULE = 4

# the rejected G is fixed so every seed pays for the same n0 scan; the seed
# only picks the W that is never reached
NON_WEIGHT_W = ("n", "n^1.5", "n^2")

# ROADMAP item 2: these must exit 2 but raise a traceback at the commit the
# reference was stored from.  The last one is the same unchecked schedule
# length as the third, reached through a weight whose start index (55)
# lies past most of a short explicit schedule.
ITEM2_DEFECTS = (
    ("random", "--stat", "sup", "--schedule", "explicit:1,2,3", "--ladder",
     "8,16", "--no-regime-check"),
    ("hilbert", "--n-max", "40", "--schedule", "superexp"),
    ("check", "--G", "n", "--W", "n^2", "--schedule", "explicit:1,2"),
    ("slln", "--G", "n", "--W", "n", "--n-max", "0"),
    ("check", "--G", "n^0.25*ln(n)^-1", "--W", "n^0.75", "--schedule",
     "explicit:1,3,7,15,31,63,127"),
)


@dataclass
class Op:
    argv: tuple
    expect: str                  # valid | reject | defect
    group: str                   # label for reports, e.g. "check-registry"
    threads: int | None = None   # set for the Monte Carlo thread pairs
    pair: int | None = None      # ops sharing a pair id must write equal bytes

    @property
    def key(self) -> str:
        """Reference key: the argv without run-local flags."""
        return " ".join(self.argv)

    def full_argv(self, out_dir: str) -> list:
        argv = list(self.argv)
        if self.threads is not None:
            argv += ["--threads", str(self.threads)]
        return argv + ["--out", out_dir]


def _verdict_ops(rng: random.Random, tiny: bool):
    ops = []
    if tiny:
        ladder = ("--ladder", "100,1000")
        ops.append(Op(("check", "--example", "E1") + ladder, "valid", "check-registry"))
        ops.append(Op(("check", "--example", "EwA") + ladder, "valid", "check-registry"))
        ops.append(Op(("check", "--G", "n^0.5", "--W", "n", "--schedule", "power:2",
                       "--full-sequence") + ladder, "valid", "check-adhoc"))
        ops.append(Op(("check", "--example", "E4", "--p", "1.1", "--eps", "0.1"),
                      "reject", "check-reject"))
        ops.append(Op(ITEM2_DEFECTS[2], "defect", "item2"))
        return ops
    for ex in REGISTRY_IDS:
        grid = _registry_grid(ex)
        for _ in range(REGISTRY_PER_EXAMPLE):
            ops.append(Op(("check", "--example", ex) + rng.choice(grid),
                          "valid", "check-registry"))
    for sched in ADHOC_SCHEDULES:
        for i in range(ADHOC_PER_SCHEDULE.get(sched, ADHOC_PER_CHEAP_SCHEDULE)):
            G, W = rng.choice(ADHOC_PAIRS)
            argv = ("check", "--G", G, "--W", W, "--p", rng.choice(P_GRID),
                    "--schedule", sched)
            if i % 3 == 0:
                argv += ("--full-sequence",)
            ops.append(Op(argv, "valid", "check-adhoc"))
    ops.append(Op(("check", "--G", "ln(n)^-1", "--W", rng.choice(NON_WEIGHT_W)),
                  "reject", "check-reject"))
    for ex in ("E3", "E6"):
        ops.append(Op(("check", "--example", ex, "--beta", "1", "--p",
                       rng.choice(P_GRID), "--alpha", rng.choice(("1", "2"))),
                      "reject", "check-reject"))
    ops.extend(Op(argv, "defect", "item2") for argv in ITEM2_DEFECTS)
    # interleave the groups: the machine's speed drifts over seconds, and a
    # group run as one block would take all its samples in one state
    rng.shuffle(ops)
    return ops


def _verdict_universe():
    for ex in REGISTRY_IDS:
        for params in _registry_grid(ex):
            yield Op(("check", "--example", ex) + params, "valid", "check-registry")
    for sched in ADHOC_SCHEDULES:
        for (G, W), p, full in itertools.product(ADHOC_PAIRS, P_GRID, (False, True)):
            argv = ("check", "--G", G, "--W", W, "--p", p, "--schedule", sched)
            yield Op(argv + (("--full-sequence",) if full else ()), "valid", "check-adhoc")
    for W in NON_WEIGHT_W:
        yield Op(("check", "--G", "ln(n)^-1", "--W", W), "reject", "check-reject")
    for ex, p, alpha in itertools.product(("E3", "E6"), P_GRID, ("1", "2")):
        yield Op(("check", "--example", ex, "--beta", "1", "--p", p, "--alpha", alpha),
                 "reject", "check-reject")
    for argv in ITEM2_DEFECTS:
        yield Op(argv, "defect", "item2")


# ---------------------------------------------------------------------------
# certify

LAM_GRID = ("0.125", "0.3", "0.5", "0.7")
T44_P_GRID = ("1.25", "1.5", "1.75")
SLLN_EPS_GRID = ("0.25", "0.5", "0.75")
MARKOV_FILES = 4


def operator_dir(work: Path) -> Path:
    return work / "operators"


def write_operator_files(work: Path) -> None:
    """Markov operator JSONs read by ``hilbert --operator``.

    ``markov-<k>.json`` is a doubly stochastic 8x8 matrix (the mean of 8
    Philox-seeded permutation matrices).  ``not-power-bounded.json`` scales
    one of them by 1.5, so the transform must reject it."""
    d = operator_dir(work)
    d.mkdir(parents=True, exist_ok=True)
    m = 8
    for k in range(MARKOV_FILES):
        rng = np.random.Generator(np.random.Philox(key=1000 + k))
        P = np.zeros((m, m))
        for _ in range(m):
            P += np.eye(m)[rng.permutation(m)]
        P /= m
        (d / f"markov-{k}.json").write_text(
            json.dumps({"kind": "markov", "matrix": P.tolist()}) + "\n")
        if k == 0:
            (d / "not-power-bounded.json").write_text(
                json.dumps({"kind": "markov", "matrix": (1.5 * P).tolist()}) + "\n")


def _operator_arg(work: Path, name: str) -> str:
    # relative to the checkout root: the path is part of the run config, so
    # it must not depend on where the checkout lives
    return str(operator_dir(work) / name)


def _certify_ops(rng: random.Random, work: Path, tiny: bool):
    s = lambda: str(rng.choice(SEEDS))  # noqa: E731
    nonpb = _operator_arg(work, "not-power-bounded.json")
    if tiny:
        return [
            Op(("hilbert", "--check", "t8", "--seed", "0", "--ladder", "32,64"), "valid", "t8"),
            Op(("hilbert", "--check", "t41", "--ladder", "32,64"), "valid", "t41"),
            Op(("hilbert", "--check", "t44", "--ladder", "16,32"), "valid", "t44"),
            Op(("hilbert", "--lam", "0.3", "--n-max", "16", "--operator",
                _operator_arg(work, "markov-0.json")), "valid", "trace"),
            Op(("slln", "--example", "EwA", "--n-max", "256", "--grid", "1024"),
               "valid", "slln"),
            Op(("hilbert", "--lam", "0.3", "--n-max", "16", "--operator", nonpb),
               "reject", "hilbert-reject"),
        ]
    ops = [
        Op(("hilbert", "--check", "t8", "--seed", s()), "valid", "t8"),
        Op(("hilbert", "--check", "t41", "--seed", s()), "valid", "t41"),
    ]
    for _ in range(3):
        ops.append(Op(("hilbert", "--check", "t44", "--seed", s(), "--p",
                       rng.choice(T44_P_GRID)), "valid", "t44"))
    # the short trace runs outnumber the rest, so op_p50_s is a median of
    # many like operations
    for _ in range(6):
        ops.append(Op(("hilbert", "--lam", rng.choice(LAM_GRID), "--seed", s()),
                      "valid", "trace"))
        k = rng.randrange(MARKOV_FILES)
        ops.append(Op(("hilbert", "--lam", rng.choice(LAM_GRID), "--seed", s(),
                       "--operator", _operator_arg(work, f"markov-{k}.json")),
                      "valid", "trace"))
    ops.append(Op(("slln", "--example", "EwA", "--eps", rng.choice(SLLN_EPS_GRID),
                   "--seed", s()), "valid", "slln"))
    # p outside [1, 2] is rejected after K is measured (about 30 ms); the
    # other two exit within milliseconds.  The t44 rejections are the middle
    # of the odd count, because single-millisecond latencies on a shared
    # machine are too unsteady for a bounded metric.
    for _ in range(7):
        ops.append(Op(("hilbert", "--check", "t44", "--p", "2.5", "--seed", s()),
                      "reject", "hilbert-reject"))
    ops.append(Op(("hilbert", "--lam", rng.choice(LAM_GRID), "--seed", s(),
                   "--operator", nonpb), "reject", "hilbert-reject"))
    ops.append(Op(("slln", "--example", "EwA", "--eps", "1.5", "--seed", s()),
                  "reject", "slln-reject"))
    rng.shuffle(ops)
    return ops


def _certify_universe(work: Path):
    nonpb = _operator_arg(work, "not-power-bounded.json")
    for sd in map(str, SEEDS):
        yield Op(("hilbert", "--check", "t8", "--seed", sd), "valid", "t8")
        yield Op(("hilbert", "--check", "t41", "--seed", sd), "valid", "t41")
        for p in T44_P_GRID:
            yield Op(("hilbert", "--check", "t44", "--seed", sd, "--p", p), "valid", "t44")
        for lam in LAM_GRID:
            yield Op(("hilbert", "--lam", lam, "--seed", sd), "valid", "trace")
            for k in range(MARKOV_FILES):
                yield Op(("hilbert", "--lam", lam, "--seed", sd, "--operator",
                          _operator_arg(work, f"markov-{k}.json")), "valid", "trace")
            yield Op(("hilbert", "--lam", lam, "--seed", sd, "--operator", nonpb),
                     "reject", "hilbert-reject")
        for eps in SLLN_EPS_GRID:
            yield Op(("slln", "--example", "EwA", "--eps", eps, "--seed", sd),
                     "valid", "slln")
        yield Op(("hilbert", "--check", "t44", "--p", "2.5", "--seed", sd),
                 "reject", "hilbert-reject")
        yield Op(("slln", "--example", "EwA", "--eps", "1.5", "--seed", sd),
                 "reject", "slln-reject")


# ---------------------------------------------------------------------------
# montecarlo

LAWS = ("rademacher", "gaussian", "complex-gaussian")


def _pair(argv, pair_id, group):
    return [Op(argv, "valid", group, threads=t, pair=pair_id) for t in (1, 2)]


def _montecarlo_ops(rng: random.Random, tiny: bool):
    s = lambda: str(rng.choice(SEEDS))  # noqa: E731
    if tiny:
        return (_pair(("random", "--stat", "sup", "--samples", "4", "--ladder", "256,512"),
                      0, "mc-sup")
                + _pair(("random", "--stat", "hilbert", "--samples", "2", "--ladder",
                         "64,128"), 1, "mc-hilbert")
                + [Op(("random", "--stat", "sup", "--G", "0.5"), "reject", "mc-reject")])
    ops = []
    pair_id = 0
    # three sup pairs to one hilbert pair: the median operation is a sup run
    for stat in ("sup", "sup", "sup", "hilbert"):
        ops.extend(_pair(("random", "--stat", stat, "--law", rng.choice(LAWS),
                          "--seed", s()), pair_id, f"mc-{stat}"))
        pair_id += 1
    # an odd count whose middle is always a regime-check rejection
    for _ in range(7):
        ops.append(Op(("random", "--stat", "sup", "--G", "n^0.1", "--law",
                       rng.choice(LAWS), "--seed", s()), "reject", "mc-reject"))
    for _ in range(2):
        ops.append(Op(("random", "--stat", "sup", "--G", "0.5", "--seed", s()),
                      "reject", "mc-reject"))
    # keep each thread pair back to back; shuffle whole pairs and rejections
    units = [ops[i:i + 2] for i in range(0, 2 * pair_id, 2)]
    units += [[op] for op in ops[2 * pair_id:]]
    rng.shuffle(units)
    return [op for u in units for op in u]


def _montecarlo_universe():
    for stat, law, sd in itertools.product(("sup", "hilbert"), LAWS, map(str, SEEDS)):
        yield Op(("random", "--stat", stat, "--law", law, "--seed", sd), "valid",
                 f"mc-{stat}", threads=1)
        yield Op(("random", "--stat", "sup", "--G", "n^0.1", "--law", law, "--seed", sd),
                 "reject", "mc-reject")
    for sd in map(str, SEEDS):
        yield Op(("random", "--stat", "sup", "--G", "0.5", "--seed", sd), "reject",
                 "mc-reject")


# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, work: Path, tiny: bool = False) -> list:
    """The batch of operations one pass runs, in order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verdicts":
        return _verdict_ops(rng, tiny)
    write_operator_files(work)
    if workload == "certify":
        return _certify_ops(rng, work, tiny)
    if workload == "montecarlo":
        return _montecarlo_ops(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def universe(workload: str, work: Path) -> list:
    """Every operation a seed can put into the workload, without duplicates."""
    gen = {"verdicts": _verdict_universe,
           "certify": lambda: _certify_universe(work),
           "montecarlo": _montecarlo_universe}[workload]
    seen = {}
    for op in gen():
        seen.setdefault(op.key, op)
    return list(seen.values())
