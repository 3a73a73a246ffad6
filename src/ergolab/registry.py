"""Registry of the built-in weight-pair examples and the registered bound
checks and experiments built on them.

Each entry instantiates a (G, W, schedule, gaps) quadruple together with the
verdicts its construction guarantees, so runs can assert their expectations.
Verdict sets list every acceptable outcome: symbolic entries are exact, while
callable-backed weights can only produce numeric claims and may honestly
report ``unknown``.  The t41, t44 and t8 bound checks and the random
transform over a cocycle run fixed, seeded instances and return what a run
writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admissibility import (LADDER, check_admissible, check_rrr, check_T21,
                            check_weak_admissible)
from .operators import (Cocycle, LinearOperator, SampleSpace, Transformation,
                        operator_norm, random_field)
from .stochastics import MCEstimate, random_hilbert
from .transforms import (ModulationSeq, interpolation_bound_check, measure_K,
                         opnorm_series, twisted_bound_check)
from .weights import INDEX_CAP, GapSeq, Schedule, WeightExpr, WeightSeq

__all__ = ["ExampleInstance", "EXAMPLE_IDS", "example_instance", "check_t41",
           "check_t44", "check_t8", "random_hilbert_e5"]

EXAMPLE_IDS = ("E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "EwA")


@dataclass
class ExampleInstance:
    id: str
    p: float
    G: WeightSeq
    W: WeightSeq
    sched: Schedule
    xi: GapSeq
    params: dict
    expected: dict                      # check kind -> set of allowed verdicts
    weak_only: bool = False             # E0/EwA claim weak admissibility only
    notes: str = ""

    def run_checks(self, ladder=LADDER) -> dict:
        reports = {}
        if self.weak_only:
            r1, r2 = check_weak_admissible(self.W, self.G, self.sched, self.xi,
                                           self.p, ladder)
            reports["W1"], reports["W2"] = r1, r2
        else:
            r3, r4 = check_admissible(self.W, self.G, self.sched, self.p, ladder)
            reports["W3"], reports["W4"] = r3, r4
        n_max = min(max(ladder), 10**6)
        reports["T21"] = check_T21(self.G, self.W, n_max, ladder)
        reports["rrr"] = check_rrr(self.G, self.W, n_max, ladder)
        return reports

    def verdicts_ok(self, reports: dict) -> bool:
        for kind, allowed in self.expected.items():
            rep = reports.get(kind)
            if rep is not None and rep.verdict not in allowed:
                return False
        return True


def _delta_default(p: float, beta: float) -> float:
    # strictly inside [0, (p-1) beta / p); the 0.8 factor keeps exact floats
    # for dyadic beta
    return 0.8 * (p - 1.0) * beta / p


def _power_pair_expected(p: float, beta: float, delta: float) -> dict:
    ok = 0.0 <= delta < (p - 1.0) * beta / p
    v = {"converges"} if ok else {"diverges"}
    return {"W3": v, "W4": v}


E7_ALPHA = 0.5


def example_instance(ex_id: str, p: float = 2.0, beta: float = 0.5,
                     gamma: float = 1.0, alpha: float = 1.0,
                     delta: float | None = None,
                     eps: float = 0.25) -> ExampleInstance:
    """Build one registry entry with the given parameters.

    ``alpha`` is the log-power of E3/E6; E7's schedule exponent is the
    fixed ``E7_ALPHA``."""
    if ex_id not in EXAMPLE_IDS:
        raise KeyError(f"unknown example {ex_id!r}; known: {EXAMPLE_IDS}")
    if not p > 1.0:
        raise ValueError("p must exceed 1")

    if ex_id == "E0":
        if not (beta > 0.0 and gamma >= 1.0):
            raise ValueError("E0 needs beta > 0 and gamma >= 1")
        G = WeightSeq.from_text(f"ln(n)^{beta + 1.0 / p:g}*lnln(n)^{gamma:g}")
        W = WeightSeq.from_text(f"n^{1.0 / p:g}*ln(n)^{beta + 1.0 / p:g}*lnln(n)^{gamma:g}")
        sched = Schedule.superexp()
        xi = GapSeq.of_schedule_expr(WeightExpr(n_exp=1.0 / p), sched)
        return ExampleInstance(
            "E0", p, G, W, sched, xi,
            {"p": p, "beta": beta, "gamma": gamma},
            {"W1": {"converges"}, "W2": {"converges"}},
            weak_only=True,
            notes="weak admissibility along n_k = k^k; the full-index ratio "
                  "series sums 1/n and diverges")

    if ex_id in ("E1", "E2", "E3", "E5", "E6"):
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if delta is None:
            delta = _delta_default(p, beta)
        r = 1.0 / beta
        if not float(r).is_integer():
            raise ValueError("1/beta must be a whole number for exact schedules")
        sched = Schedule.power(r)
        if ex_id in ("E1", "E5"):
            G = WeightSeq.from_text(f"n^{1.0 - beta:g}", n0=1)
            W = WeightSeq.from_text(f"n^{1.0 - delta:g}", n0=1)
        elif ex_id == "E2":
            if gamma < 1.0:
                raise ValueError("E2 needs gamma >= 1")
            G = WeightSeq.from_text(f"n^{1.0 - beta:g}*ln(n)^{gamma:g}")
            W = WeightSeq.from_text(f"n^{1.0 - delta:g}*ln(n)^{gamma:g}")
        else:
            if alpha < 1.0:
                raise ValueError("E3/E6 need alpha >= 1")
            G = WeightSeq.from_text(f"n^{1.0 - beta:g}*ln(n)^-{alpha:g}")
            W = WeightSeq.from_text(f"n^{1.0 - delta:g}*ln(n)^-{alpha:g}")
        expected = _power_pair_expected(p, beta, delta)
        if ex_id in ("E5", "E6"):
            expected["T21"] = {"converges"}
            expected["rrr"] = {"diverges"}
        params = {"p": p, "beta": beta, "delta": delta}
        if ex_id == "E2":
            params["gamma"] = gamma
        if ex_id in ("E3", "E6"):
            params["alpha"] = alpha
        return ExampleInstance(ex_id, p, G, W, sched, GapSeq.derived(sched),
                               params, expected)

    if ex_id == "E4":
        if not eps > 0.0:
            raise ValueError("E4 needs eps > 0")
        # concrete family member: G_n = n^3, so sum G_n^{-p eps} converges
        # whenever 3 p eps > 1
        if 3.0 * p * eps <= 1.0:
            raise ValueError("G_n = n^3 needs 3 p eps > 1")
        G = WeightSeq.from_text("n^3", n0=1)
        W = WeightSeq.from_text(f"n^{3.0 * (1.0 + eps):g}", n0=1)
        vals = [1]
        while True:
            nxt = vals[-1] ** 3 + vals[-1] + 1
            if nxt > INDEX_CAP:
                break
            vals.append(nxt)
        sched = Schedule.explicit(vals)
        return ExampleInstance(
            "E4", p, G, W, sched, GapSeq.derived(sched),
            {"p": p, "eps": eps},
            {"W3": {"converges"}, "W4": {"converges"}},
            notes="recursive schedule n_{k+1} = floor(G_{n_k}) + n_k + 1; "
                  "verdicts are numeric (no power-log class for the schedule)")

    if ex_id == "E7":
        if not (beta > 0.0 and gamma >= 1.0):
            raise ValueError("E7 needs beta > 0 and gamma >= 1")
        if delta is None:
            delta = p * (1.0 - E7_ALPHA) + 1.0
        if delta < p * (1.0 - E7_ALPHA) + 1.0:
            raise ValueError(f"E7 needs delta >= p(1 - {E7_ALPHA:g}) + 1")
        G = WeightSeq.from_text(f"ln(n)^{beta + 1.0 / p:g}*lnln(n)^{gamma:g}")
        W = WeightSeq.from_text(
            f"n^{delta / p:g}*ln(n)^{beta + 1.0 / p:g}*lnln(n)^{gamma:g}")
        sched = Schedule.power(1.0 / E7_ALPHA)
        return ExampleInstance(
            "E7", p, G, W, sched, GapSeq.derived(sched),
            {"p": p, "beta": beta, "gamma": gamma, "delta": delta},
            {"W3": {"converges"}, "W4": {"converges"},
             "T21": {"converges"}, "rrr": {"diverges"}})

    # EwA: orthogonal increments with ||f_n||_2 = sqrt(n)
    if not 0.0 < eps < 1.0:
        raise ValueError("EwA needs eps in (0, 1)")
    G = WeightSeq.from_callable(
        lambda n: np.sqrt(np.asarray(n, dtype=float)
                          * (np.asarray(n, dtype=float) + 1.0) / 2.0),
        n0=1, label="sqrt(n(n+1)/2)")
    W = WeightSeq.from_callable(
        lambda n, e=eps: (np.asarray(n, dtype=float) ** ((1.0 + e) / 4.0)
                          * np.sqrt(np.asarray(n, dtype=float)
                                    * (np.asarray(n, dtype=float) + 1.0))),
        n0=1, label=f"n^((1+{eps:g})/4)*sqrt(n(n+1))")
    sched = Schedule.monomial(2)
    kmax = 10**4
    n_all = sched.values(kmax + 1).astype(float)
    g_at = np.sqrt(n_all * (n_all + 1.0) / 2.0)
    xi = GapSeq.explicit(np.diff(g_at))   # xi_m = G_{n_{m+1}} - G_{n_m}
    return ExampleInstance(
        "EwA", p, G, W, sched, xi,
        {"p": p, "eps": eps},
        # callable weights give numeric-only verdicts; the slow 1/m^{1+eps}
        # decay of (W1) is honestly indeterminate at desk-scale truncation
        {"W1": {"converges", "unknown"}, "W2": {"converges"},
         "T21": {"converges", "unknown"}, "rrr": {"diverges", "unknown"}},
        weak_only=True,
        notes="orthogonal fields with ||f_n||_2 = sqrt(n); per-term (T21) "
              "bound (5+eps)/(4*sqrt(2)) * n^(-(5+eps)/4)")


def t21_term_bound_ewa(eps: float, n) -> np.ndarray:
    """Per-index majorant of the (T21) term for the EwA weights.

    With G_n = sqrt(n(n+1)/2), W_n = n^a sqrt(n(n+1)) and a = (1+eps)/4,
    for every n >= 1:

        G_n/W_n = 1/(sqrt(2) n^a),
        W_{n+1}/W_n = (1+1/n)^a (1+2/n)^{1/2},
        1 - W_n/W_{n+1} <= ln(W_{n+1}/W_n) <= a/n + 1/n
            (by 1-x <= -ln x and ln(1+y) <= y),
        (G_n/W_n)(1 - W_n/W_{n+1}) <= (1+a)/sqrt(2) * n^{-(1+a)}
                                   = (5+eps)/(4 sqrt(2)) * n^{-(5+eps)/4}.

    The constant is sharp: 1 - W_n/W_{n+1} = (1+a)/n + O(1/n^2), so the
    ratio term/bound tends to 1.  It supersedes the constant (1+eps)/4,
    which the term exceeds by the limiting factor
    (5+eps)/(sqrt(2)(1+eps)) (2.97 at eps = 0.25).
    """
    n = np.asarray(n, dtype=float)
    return (5.0 + eps) / (4.0 * math.sqrt(2.0)) * n ** (-(5.0 + eps) / 4.0)


def t21_terms(G: WeightSeq, W: WeightSeq, n) -> np.ndarray:
    """(G_n/W_n)(1 - W_n/W_{n+1}) evaluated directly (for bound checks)."""
    n = np.asarray(n, dtype=float)
    g = G.values(n)
    w = W.values(n)
    w1 = W.values(n + 1.0)
    return (g / w) * (1.0 - w / w1)


# ---------------------------------------------------------------------------
# registered bound checks and experiments


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


def check_t41(ladder=(32, 64, 128, 256, 512), allow_coarse: bool = False):
    """Twisted bound (T41) on three fixed instances at r = 0.5, 1, 2.

    Returns the t41 document and whether every ratio is <= 1 + 1e-6."""
    instances = [
        ("ones-identity", ModulationSeq.constant(1.0), Schedule.identity()),
        ("rotated-identity", ModulationSeq.rotation(np.exp(2j * np.pi * 0.3)),
         Schedule.identity()),
        ("ones-shifted", ModulationSeq.constant(1.0), Schedule.power(1.0)),
    ]
    G = WeightSeq.from_text("n", n0=1)
    results = {}
    worst = 0.0
    for name, a, sched in instances:
        K = measure_K(a, sched, G, max(ladder), allow_coarse=allow_coarse).K
        rep = twisted_bound_check(a, sched, G, K, rs=(0.5, 1.0, 2.0),
                                  n_ladder=ladder, n_lambda=256)
        results[name] = rep.to_json()
        results[name]["K"] = K
        worst = max(worst, rep.max_ratio)
    return {"instances": results, "max_ratio": worst}, worst <= 1.0 + 1e-6


def check_t44(p: float, seed: int, ladder=(16, 32, 64, 128, 256),
              allow_coarse: bool = False):
    """Interpolation bound (T44) for a seeded doubly stochastic 8 x 8 Markov
    operator on 20 seeded random fields.

    Returns the t44 document and whether every ratio is <= 1 + 1e-8."""
    if not 1.0 <= p <= 2.0:
        raise ValueError("p must lie in [1, 2]")
    m = 8
    T = LinearOperator.markov(_doubly_stochastic(m, seed))
    space = SampleSpace.finite(m)
    a = ModulationSeq.constant(1.0)
    sched = Schedule.identity()
    G = WeightSeq.from_text("n", n0=1)
    K = measure_K(a, sched, G, max(ladder), allow_coarse=allow_coarse).K
    fields = [random_field(space, 1, seed=seed + 1 + i) for i in range(20)]
    rep = interpolation_bound_check(a, T, sched, G, K, p, fields, ladder)
    return {"report": rep.to_json(), "K": K, "p": p}, rep.max_ratio <= 1.0 + 1e-8


def check_t8(seed: int, ladder=tuple(2**j for j in range(5, 13)),
             allow_coarse: bool = False):
    """Operator-norm Cauchy gaps (T8) of the E5 transform for five seeded
    random 6 x 6 contractions.

    Returns the t8 document and whether every gap meets its bound and the
    consecutive gaps decrease, for every contraction."""
    inst = example_instance("E5")
    sched = Schedule.identity()
    a = ModulationSeq.constant(1.0)
    K = measure_K(a, sched, inst.G, max(ladder), allow_coarse=allow_coarse).K
    ops = [LinearOperator.from_matrix(_random_contraction(6, seed + i))
           for i in range(5)]
    results = [{"gaps": rep.gaps, "all_pairs_ok": rep.all_pairs_ok,
                "gaps_monotone": rep.gaps_monotone}
               for rep in opnorm_series(a, ops, sched, inst.W, ladder, K, inst.G)]
    passed = all(r["all_pairs_ok"] and r["gaps_monotone"] for r in results)
    return {"K": K, "contractions": results}, passed


def random_hilbert_e5(mod, ladder, samples: int, no_regime_check: bool = False,
                      threads: int = 1) -> MCEstimate:
    """random_hilbert for the E5 weights over a constant cocycle: one random
    2 x 2 contraction, seeded from the modulation's seed, on every atom of
    the 16-cycle, applied to g = (1, 0).  (W3), (W4) and (T21) of E5 are its
    preconditions."""
    m = 16
    space = SampleSpace.finite(m)
    base = Transformation.permutation(space, np.roll(np.arange(m), -1))
    C = Cocycle.constant(base, _random_contraction(2, mod.seed + 999))
    inst = example_instance("E5")
    r3, r4 = check_admissible(inst.W, inst.G, inst.sched, inst.p)
    return random_hilbert(mod, C, None, np.array([1.0, 0.0]), Schedule.identity(),
                          inst.W, ladder, samples,
                          regime_reports=[r3, r4, check_T21(inst.G, inst.W)],
                          no_regime_check=no_regime_check, threads=threads)
