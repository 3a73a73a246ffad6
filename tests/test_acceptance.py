"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line with the headline numbers and then
asserts, so a full run doubles as a report.
"""

import hashlib
import math

import numpy as np
import pytest

from ergolab.admissibility import (_heuristic_claim, check_1RT1, check_admissible,
                                   series_report)
from ergolab.cli import main
from ergolab.operators import (Cocycle, SampleSpace, Transformation,
                               VectorField, character_field, operator_norm)
from ergolab.registry import (example_instance, t21_term_bound_ewa, t21_terms)
from ergolab.stochastics import ae_convergence_diag, random_hilbert
from ergolab.transforms import (I_majorant, ModulationSeq, gamma_tail,
                                hilbert_partial, interpolation_bound,
                                rearrangement_and_I, sigma_grid,
                                weighted_series)
from ergolab.weights import (Schedule, WeightExpr, WeightSeq,
                             WeightSyntaxError, parse_weight)
from ergolab.operators import LinearOperator

SHORT_LADDER = (10**2, 10**3, 10**4)


def _verdict_line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _random_contraction(d: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed))
    R = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return R / operator_norm(R)


# ---------------------------------------------------------------------------


def test_criterion_1_verdict_table():
    p = 2.0
    failures = []

    def record(cond, label):
        if not cond:
            failures.append(label)

    def no_contradiction(rep, label):
        if rep.verdict_source == "symbolic" and rep.block_sums:
            claim = _heuristic_claim(rep.partial_sums, rep.block_sums)
            record(claim in ("indeterminate", rep.verdict),
                   f"{label}: numeric {claim} vs symbolic {rep.verdict}")

    for beta in (0.25, 0.5, 1.0):
        for eps in (0.25, 0.5):
            delta = 0.8 * (p - 1.0) * beta / p
            for ex_id in ("E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7"):
                kwargs = dict(p=p, beta=beta, gamma=1.0, alpha=1.0, eps=eps)
                if ex_id in ("E1", "E2", "E3", "E5", "E6"):
                    kwargs["delta"] = delta
                if ex_id in ("E3", "E6") and beta == 1.0:
                    # G_n = ln(n)^-alpha decreases below 1: not a weight, so
                    # the instance must refuse to build at this grid point
                    with pytest.raises(ValueError):
                        example_instance(ex_id, **kwargs)
                    continue
                inst = example_instance(ex_id, **kwargs)
                reports = inst.run_checks(SHORT_LADDER)
                label = f"{ex_id}(beta={beta},eps={eps})"
                record(inst.verdicts_ok(reports), f"{label}: registry verdicts")
                if ex_id == "E0":
                    wanted = {"W1": "converges", "W2": "converges"}
                elif ex_id in ("E1", "E2", "E3", "E4"):
                    wanted = {"W3": "converges", "W4": "converges"}
                else:
                    wanted = {"W3": "converges", "W4": "converges",
                              "T21": "converges"}
                for kind, verdict in wanted.items():
                    record(reports[kind].verdict == verdict,
                           f"{label}: {kind} {reports[kind].verdict}")
                    no_contradiction(reports[kind], f"{label}/{kind}")

    # the full-index ratio series of E0 diverges (it sums 1/n)
    inst0 = example_instance("E0")
    n_max = 10**5
    n0 = max(inst0.G.n0, inst0.W.n0)
    g = inst0.G.prefix(n_max)[n0 - inst0.G.n0:]
    w = inst0.W.prefix(n_max)[n0 - inst0.W.n0:]
    ks = np.arange(n0, n_max + 1)
    full = series_report("full-W1", {}, (g[ks - n0] / w[ks - n0]) ** p,
                         n0, n_max, (inst0.G.expr / inst0.W.expr) ** p,
                         SHORT_LADDER)
    record(full.verdict == "diverges", f"E0 full-sum {full.verdict}")
    no_contradiction(full, "E0 full-sum")

    # boundary delta = (p-1) beta / p must fail (W4)
    for beta in (0.25, 0.5, 1.0):
        inst = example_instance("E1", p=p, beta=beta,
                                delta=(p - 1.0) * beta / p)
        _r3, r4 = check_admissible(inst.W, inst.G, inst.sched, p, SHORT_LADDER)
        record(r4.verdict == "diverges" and r4.verdict_source == "symbolic",
               f"boundary beta={beta}: W4 {r4.verdict}")

    ok = not failures
    _verdict_line(1, ok, f"E0-E7 verdict table over beta/eps grid "
                         f"({len(failures)} mismatches)")
    assert ok, failures


def test_criterion_2_abel_identity():
    rng = np.random.Generator(np.random.Philox(key=20))
    pool = ("n", "n^0.5", "n^2", "n*ln(n)", "n^0.25*ln(n)^2")
    space = SampleSpace.finite(3)
    worst = 0.0
    for i in range(100):
        W = WeightSeq.from_text(pool[int(rng.integers(len(pool)))])
        n = 4096 if i == 0 else int(rng.integers(W.n0 + 1, 4097))
        vals = (rng.standard_normal((n + 1, 3))
                + 1j * rng.standard_normal((n + 1, 3)))

        def fseq(k):
            return VectorField(space, vals[k][:, None])

        direct, abel = weighted_series(fseq, W, n)
        diff = float(np.linalg.norm(direct.values - abel.values))
        scale = float(np.linalg.norm(direct.values))
        worst = max(worst, diff / scale)
    ok = worst <= 1e-10
    _verdict_line(2, ok, f"direct vs Abel form, 100 instances, "
                         f"worst relative gap {worst:.3e}")
    assert ok


def test_criterion_3_ewa_chain():
    n_max = 10**4
    M = 16384
    inst = example_instance("EwA", eps=0.5)
    G, W = inst.G, inst.W
    g_vals = G.prefix(n_max)
    w_vals = W.prefix(n_max)
    x = np.arange(M) / M
    base = np.exp(2j * np.pi * x)
    ladder = [2**j for j in range(6, 14)]
    rng = np.random.Generator(np.random.Philox(key=30))
    sample_idx = np.sort(rng.choice(np.arange(1, M), size=64, replace=False))

    phase = np.ones(M, dtype=complex)
    S = np.zeros(M, dtype=complex)
    series = np.zeros(M, dtype=complex)
    worst_ratio_err = 0.0
    snapshots = []
    li = 0
    for n in range(1, n_max + 1):
        phase = phase * base
        f = math.sqrt(float(n)) * phase
        S += f
        series += f / w_vals[n - 1]
        norm = math.sqrt(float(np.mean(np.abs(S) ** 2)))
        worst_ratio_err = max(worst_ratio_err,
                              abs(norm / float(g_vals[n - 1]) - 1.0))
        if li < len(ladder) and n == ladder[li]:
            snapshots.append(series[sample_idx].copy())
            li += 1
    ok_norm = worst_ratio_err <= 1e-10

    ok_t21 = True
    worst_t21 = 0.0
    last_t21 = 0.0
    ns = np.arange(max(G.n0, W.n0), n_max + 1)
    for eps in (0.25, 0.5, 0.75):
        ie = example_instance("EwA", eps=eps)
        terms = t21_terms(ie.G, ie.W, ns)
        bounds = t21_term_bound_ewa(eps, ns)
        worst_t21 = max(worst_t21, float((terms / bounds).max()))
        last_t21 = max(last_t21, float(terms[-1] / bounds[-1]))
        ok_t21 = ok_t21 and bool(np.all(terms <= bounds))

    diag = ae_convergence_diag(np.stack(snapshots, axis=1), ladder)
    ok_ae = diag.verdict == "consistent-with-convergence"

    ok = ok_norm and ok_t21 and ok_ae
    _verdict_line(3, ok, f"EwA: max norm error {worst_ratio_err:.3e}; "
                         f"per-term bound "
                         f"{'holds' if ok_t21 else 'violated'} "
                         f"(max term/bound ratio {worst_t21:.6f}, "
                         f"{last_t21:.6f} at n = {n_max}); "
                         f"series diagnosis {diag.verdict}")
    assert ok


def test_criterion_4_twisted_bound(tmp_path):
    rc = main(["hilbert", "--check", "t41", "--out", str(tmp_path)])
    ok = rc == 0
    _verdict_line(4, ok, "twisted bound ratio <= 1 + 1e-6 on three "
                         "registered instances, r in {0.5, 1, 2}")
    assert ok


def test_criterion_5_interpolation_bound(tmp_path):
    ok = True
    for p in (1.25, 1.5, 1.75):
        rc = main(["hilbert", "--check", "t44", "--p", str(p),
                   "--out", str(tmp_path)])
        ok = ok and rc == 0
    # endpoint reductions are exact, not merely approximate
    ok = ok and interpolation_bound(64, 0.3, 2.0, 7.0, 2.0) == 2.0 * 7.0
    ok = ok and interpolation_bound(64, 0.3, 2.0, 7.0, 1.0) == 64 * 0.3
    _verdict_line(5, ok, "doubly stochastic 8x8 bound for p in "
                         "{1.25, 1.5, 1.75}; endpoints exact")
    assert ok


def test_criterion_6_opnorm_tail(tmp_path):
    rc = main(["hilbert", "--check", "t8", "--out", str(tmp_path)])
    ok = rc == 0
    _verdict_line(6, ok, "5 random contractions: Cauchy gaps monotone and "
                         "below the tail bound at every ladder pair")
    assert ok


def test_criterion_7_sigma_machinery():
    alpha = 0.5
    G = WeightSeq.from_text("n", n0=1)
    sched = Schedule.identity()
    rep = check_1RT1(G, sched, alpha=alpha)
    ks = np.arange(1, 10**7 + 1, dtype=float)
    brute = float(np.sum(np.sort(ks ** -1.5)))
    gap = brute - rep.value
    ok_gamma = 0.0 <= gap <= rep.tail_estimate
    gamma_up = rep.value + rep.tail_estimate

    N = 10**4
    ts = np.arange(1, 2**14 + 1, dtype=float) / 2**14 * 2.0 * np.pi
    tail = gamma_tail(G, sched, alpha, N)
    lower, upper = sigma_grid(G, sched, ts, N, alpha, tail)
    envelope = 2.0 ** (1.0 - alpha / 2.0) * ts ** (alpha / 2.0) * math.sqrt(gamma_up)
    ok_env = bool(np.all(upper <= envelope * (1.0 + 1e-12)))

    res = rearrangement_and_I(lower)
    maj = I_majorant(alpha, gamma_up)
    ok_I = math.isfinite(res.I) and not res.diverged and res.I <= maj + 1e-6

    ok = ok_gamma and ok_env and ok_I
    _verdict_line(7, ok, f"gamma gap {gap:.3e} <= tail {rep.tail_estimate:.3e}; "
                         f"sigma under envelope: {ok_env}; "
                         f"I = {res.I:.6f} <= majorant {maj:.6f}")
    assert ok


def test_criterion_8_reduction_chain():
    T2 = _random_contraction(2, seed=81)
    g = np.array([1.0, 0.0], dtype=complex)
    W = WeightSeq.from_text("n", n0=1)
    sched = Schedule.identity()
    n = 48
    a = ModulationSeq.constant(1.0).compose(
        ModulationSeq.rotation(np.exp(2j * np.pi * 0.3)))
    op = LinearOperator.from_matrix(T2)
    ref_space = SampleSpace.finite(1)
    f = VectorField(ref_space, g[None, :])
    ref = hilbert_partial(a, op, sched, W, f, n).values[0]

    # constant fibers over a finite base: the output cannot depend on omega
    space = SampleSpace.finite(8)
    base = Transformation.permutation(space, np.roll(np.arange(8), -1))
    est = random_hilbert(a, Cocycle.constant(base, T2), None, g, sched, W,
                         (16, n), samples=1, no_regime_check=True)
    S = est.final_fields[0]
    err1 = float(np.abs(S - ref[None, :]).max() / np.abs(ref).max())
    ok1 = err1 <= 1e-12

    # rotation base with h(z) = z: the transform factorizes through a
    # lambda-rotated modulation
    M, j = 64, 5
    circ = SampleSpace.circle(M)
    rot = Transformation.rotation(circ, j)
    h = character_field(circ, 1)
    est2 = random_hilbert(a, Cocycle.constant(rot, T2), h, g, sched, W,
                          (16, n), samples=1, no_regime_check=True)
    lam = np.exp(2j * np.pi * j / M)
    ref2 = hilbert_partial(a.compose(ModulationSeq.rotation(lam)), op, sched,
                           W, f, n).values[0]
    expected = h.values[:, 0][:, None] * ref2[None, :]
    err2 = float(np.abs(est2.final_fields[0] - expected).max()
                 / np.abs(expected).max())
    ok2 = err2 <= 1e-12

    ok = ok1 and ok2
    _verdict_line(8, ok, f"constant-fiber reduction error {err1:.3e}; "
                         f"rotated-transform reduction error {err2:.3e}")
    assert ok


def test_criterion_9_thread_reproducibility(tmp_path):
    commands = [
        ["check", "--example", "E1", "--ladder", "100,1000"],
        ["hilbert", "--n-max", "24", "--lam", "0.25"],
        ["random", "--stat", "sup", "--law", "gaussian", "--samples", "4",
         "--ladder", "32,64", "--n-lambda", "32"],
        ["random", "--stat", "hilbert", "--law", "rademacher", "--samples",
         "2", "--ladder", "32,64"],
    ]
    ok = True
    for argv in commands:
        digests = []
        for threads in (1, 4, 8):
            rc = main(argv + ["--out", str(tmp_path),
                              "--threads", str(threads)])
            ok = ok and rc == 0
            snap = {}
            for run in sorted(tmp_path.iterdir()):
                for p in sorted(run.iterdir()):
                    snap[f"{run.name}/{p.name}"] = hashlib.sha256(
                        p.read_bytes()).hexdigest()
            digests.append(snap)
        ok = ok and digests[0] == digests[1] == digests[2]
    _verdict_line(9, ok, "4 commands bit-identical across reruns at "
                         "1, 4 and 8 threads")
    assert ok


def test_criterion_10_parser_roundtrip():
    rng = np.random.Generator(np.random.Philox(key=100))
    ok_round = True
    for _ in range(200):
        expr = WeightExpr(
            scale=float(10.0 ** rng.uniform(-2.0, 2.0)),
            n_exp=float(np.round(rng.uniform(-3.0, 3.0), 3)),
            log_exp=float(np.round(rng.uniform(-3.0, 3.0), 3)),
            loglog_exp=float(np.round(rng.uniform(-3.0, 3.0), 3)))
        text = expr.canonical()
        back = parse_weight(text)
        ok_round = ok_round and back == expr and back.canonical() == text

    malformed = ["", "n^", "n n", "*n", "n*", "0*n", "-2", "n^2*^3",
                 "log(n)", "n^1.2.3", "n**2", "ln()", "n^²", "2..5*n"]
    ok_errors = True
    for text in malformed:
        try:
            parse_weight(text)
            ok_errors = False
        except WeightSyntaxError as e:
            ok_errors = ok_errors and 0 <= e.offset <= len(text.encode())
        except Exception:
            ok_errors = False
    ok = ok_round and ok_errors
    _verdict_line(10, ok, "200 fuzzed round-trips exact; "
                          f"{len(malformed)} malformed inputs -> "
                          "positioned errors")
    assert ok
