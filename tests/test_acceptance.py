"""Acceptance gate: each test certifies one release criterion at its stated
tolerance and prints a single PASS line (visible with pytest -s / on failure).
"""

import time

import numpy as np
from corpus_helpers import golden_corpus, random_instance

from coherent_age.copulas import FGM, GumbelHougaard, Independence
from coherent_age.distributions import Exponential, LinearFailureRate
from coherent_age.montecarlo import SimConfig, sample_copula, simulate_system
from coherent_age.orders import Grid, integral_identity_check, verdict
from coherent_age.systems import Structure, SystemModel, build_distortion, k_of_n_paths
from coherent_age.verifier import corollary_index_check, verify_bstar, verify_cstar

PGRID = Grid.probability(1e-3, 2001)


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {label}  ({detail})")
    assert ok, f"criterion {num}: {label} -- {detail}"


def test_criterion_1_distortion_reproduction():
    start = time.perf_counter()
    structure = Structure.from_paths(3, [[1, 2], [1, 3]])
    grid = np.linspace(0.0, 1.0, 1001)
    worst = 0.0
    for theta in (-1.0, -0.5, 0.0, 0.5, 1.0):
        d = build_distortion(structure, FGM(theta))
        target = 2 * grid**2 - grid**3 - theta * grid**3 * (1 - grid) ** 3
        worst = max(worst, float(np.max(np.abs(np.asarray(d.h(grid)) - target))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "distortion reproduction", ok, f"max_abs_err={worst:.2e}, t={elapsed:.2f}s")


def test_criterion_2_elasticity_ratio_reproduction():
    worst = 0.0
    d2 = build_distortion(Structure.series(3), Independence(3))
    p = np.linspace(1e-3, 1 - 1e-3, 1001)
    for theta in (-1.0, -0.5, 0.0, 0.5, 1.0):
        d1 = build_distortion(Structure.from_paths(3, [[1, 2], [1, 3]]), FGM(theta))
        ratio = np.asarray(d1.H(p)) / np.asarray(d2.H(p))
        num = 4 - 3 * (1 + theta) * p + 12 * theta * p**2 - 15 * theta * p**3 + 6 * theta * p**4
        den = 6 - 3 * (1 + theta) * p + 9 * theta * p**2 - 9 * theta * p**3 + 3 * theta * p**4
        worst = max(worst, float(np.max(np.abs(ratio - num / den))))
    d1 = build_distortion(Structure.from_paths(3, [[1, 2], [1, 3]]), FGM(1.0))
    decreasing = verdict(p, np.asarray(d1.H(p)) / np.asarray(d2.H(p)), "decr", 1e-10, "monotone").holds
    ok = worst <= 1e-10 and decreasing == "yes"
    report(2, "elasticity ratio reproduction", ok, f"max_abs_err={worst:.2e}, decreasing={decreasing}")


def test_criterion_3_gumbel_chain():
    details = []
    ok = True
    for m, n, theta in ((4, 2, 2.0), (3, 3, 1.5), (5, 2, 3.0)):
        start = time.perf_counter()
        d1 = build_distortion(Structure.series(m), GumbelHougaard(theta, m))
        d2 = build_distortion(Structure.series(n), GumbelHougaard(theta, n))
        p = PGRID.points
        ratio_ok = verdict(p, np.asarray(d1.R(p)) / np.asarray(d2.R(p)), "incr", 1e-6, "monotone").holds == "yes"
        pr_over_r = p * np.asarray(d1.R_prime(p)) / np.asarray(d1.R(p))
        sign_ok = verdict(p, pr_over_r, "nonnegative", 1e-6, "sign").holds == "yes"
        mono_ok = verdict(p, pr_over_r, "decr", 1e-6, "monotone").holds == "yes"
        rep = verify_bstar(
            SystemModel(Structure.series(m), GumbelHougaard(theta, m), Exponential(3.0)),
            SystemModel(Structure.series(n), GumbelHougaard(theta, n), Exponential(2.0)),
        )
        elapsed = time.perf_counter() - start
        inst_ok = ratio_ok and sign_ok and mono_ok and rep.conclusion == "certified" and elapsed < 5.0
        ok = ok and inst_ok
        details.append(f"(m={m},n={n},th={theta}): {'ok' if inst_ok else 'FAIL'} {elapsed:.2f}s")
    report(3, "gumbel certification chain", ok, "; ".join(details))


def test_criterion_4_kofn_lemma_sweep():
    start = time.perf_counter()
    slack = 1e-8
    pairs = [(k, n) for n in range(1, 7) for k in range(1, n + 1)]
    dists = {(k, n): build_distortion(k_of_n_paths(k, n), Independence(n)) for k, n in pairs}
    failures = []

    # (H, (1-p) H'/H) and (R, p R'/R) per distortion, three evaluations each;
    # the ratio checks reuse H and R
    p = PGRID.points
    profiles = {kn: (d.elasticity_profile(p, "H"), d.elasticity_profile(p, "R")) for kn, d in dists.items()}
    for kn, ((_, g_h), (_, g_r)) in profiles.items():
        if verdict(p, g_h, "nonpositive", slack, "sign").holds != "yes":
            failures.append(("H-sign", kn))
        if verdict(p, g_h, "decr", slack, "monotone").holds != "yes":
            failures.append(("H-mono", kn))
        if verdict(p, g_r, "nonnegative", slack, "sign").holds != "yes":
            failures.append(("R-sign", kn))
        if verdict(p, g_r, "decr", slack, "monotone").holds != "yes":
            failures.append(("R-mono", kn))

    ratio_checks = 0
    for k, n in pairs:
        for l, m in pairs:
            ((h1, _), (r1, _)), ((h2, _), (r2, _)) = profiles[(k, n)], profiles[(l, m)]
            if k <= l and m - l <= n - k:
                ratio_checks += 1
                if verdict(p, h1 / h2, "decr", slack, "monotone").holds != "yes":
                    failures.append(("H-ratio", (k, n, l, m)))
            if l <= k and n - k <= m - l:
                ratio_checks += 1
                if verdict(p, r1 / r2, "incr", slack, "monotone").holds != "yes":
                    failures.append(("R-ratio", (k, n, l, m)))

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    report(
        4,
        "k-out-of-n elasticity sweep",
        ok,
        f"pairs={len(pairs)}, ratio_checks={ratio_checks}, failures={failures[:4]}, t={elapsed:.1f}s",
    )


def test_criterion_5_integral_identities():
    worst = 0.0
    worst_name = ""
    for name, structure, copula, margin in golden_corpus():
        sysm = SystemModel(structure, copula, margin)
        grid = Grid.margin_bracketed(margin, margin, size=200)
        rep = integral_identity_check(sysm, grid, quad_tol=1e-9)
        if rep.max_abs > worst:
            worst, worst_name = rep.max_abs, name
    ok = worst <= 1e-6
    report(5, "cumulative-hazard integral identities", ok, f"max_abs={worst:.2e} ({worst_name})")


def test_criterion_6_soundness_audit():
    rng = np.random.default_rng(20240806)
    instances = 0
    certified = 0
    unsound = []
    for _ in range(100):
        for relation, verify in (("c_star", verify_cstar), ("b_star", verify_bstar)):
            sys1, sys2 = random_instance(rng, relation)
            rep = verify(sys1, sys2)
            instances += 1
            if rep.conclusion == "certified":
                certified += 1
                if rep.direct.holds != "yes":
                    unsound.append((relation, sys1, sys2))
    ok = instances >= 200 and not unsound and certified > 0
    report(
        6,
        "soundness audit",
        ok,
        f"instances={instances}, certified={certified}, certified-with-failing-direct={len(unsound)}",
    )


def test_criterion_7_monte_carlo_oracle():
    worst = 0.0
    worst_name = ""
    slowest = 0.0
    identical = True
    for i, (name, structure, copula, margin) in enumerate(golden_corpus()):
        cfg = SimConfig(sample_count=100_000, seed=1000 + i, stream_count=4)
        start = time.perf_counter()
        res = simulate_system(structure, copula, margin, cfg)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        if res.max_standardized_deviation > worst:
            worst, worst_name = res.max_standardized_deviation, name
        rerun = sample_copula(copula, cfg)
        identical = identical and rerun.tobytes() == sample_copula(copula, cfg).tobytes()
    ok = worst < 4.0 and slowest < 10.0 and identical
    report(
        7,
        "monte carlo oracle",
        ok,
        f"triples={len(golden_corpus())}, max_std_dev={worst:.2f} ({worst_name}), "
        f"slowest={slowest:.1f}s, bit_identical={identical}",
    )


def test_criterion_8_corollary_index_logic():
    mismatches = 0
    per_relation = 0
    for n in range(1, 6):
        for k in range(1, n + 1):
            for m in range(1, 6):
                for l in range(1, m + 1):
                    per_relation += 1
                    expected_c = (k <= l) and (m - l <= n - k)
                    expected_b = (l <= k) and (n - k <= m - l)
                    if corollary_index_check(k, n, l, m, "c_star") != expected_c:
                        mismatches += 1
                    if corollary_index_check(k, n, l, m, "b_star") != expected_b:
                        mismatches += 1
    ok = mismatches == 0
    report(8, "corollary index logic", ok, f"quadruples={per_relation} per relation, mismatches={mismatches}")
