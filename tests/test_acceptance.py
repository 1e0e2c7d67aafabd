"""Acceptance suite: one test per exit criterion, one printed line each.

The BER reproductions (criteria 4-6) run real Monte-Carlo sweeps with at
least 500 errors per interpolated point and take several minutes; run with
`pytest tests/test_acceptance.py -v -s` to watch progress.  SNR grids were
chosen so every interpolated curve brackets its target BER level.
"""

import time

from conftest import cr_leading_coefficient, problem_batch

from rbdmimo import selftest
from rbdmimo.channel import ChannelScenario
from rbdmimo.complexity import analytic_cost, cholesky_cost
from rbdmimo.sim import (
    FLAG_OK,
    SimConfig,
    interpolate_snr_at_ber,
    run_sweep,
    run_sweeps,
    snr_gap,
)

MASTER_SEED = 20_260_809
WORKERS = 5


def sweep_config(detector, k, n, m, snrs, scenario=ChannelScenario(), target=500, qam=64):
    return SimConfig(
        n=n, m=m, qam_order=qam, detector=detector, k_iterations=k,
        snr_db_list=tuple(snrs), scenario=scenario, target_bit_errors=target,
        max_bits=20_000_000, master_seed=MASTER_SEED,
    )


def sweep(detector, k, n, m, snrs, **kwargs):
    return run_sweep(sweep_config(detector, k, n, m, snrs, **kwargs), workers=WORKERS)


def sweeps(detectors, n, m, snrs, **kwargs):
    """One sweep per (detector, k) pair, every frame drawn once for all of them."""
    return run_sweeps([sweep_config(det, k, n, m, snrs, **kwargs) for det, k in detectors], workers=WORKERS)


def crossing_points(result, ber_level):
    """Points of the sweep, asserting full confidence around the crossing."""
    pts = result.points
    for a, b in zip(pts, pts[1:]):
        if a.ber >= ber_level >= b.ber and b.ber > 0:
            assert a.flag == FLAG_OK and b.flag == FLAG_OK
    return pts


def test_criterion_1_oracle_equivalence():
    start = time.time()
    problems = list(problem_batch(1000, MASTER_SEED, m_range=(2, 16), n_factor_range=(2, 16)))
    selftest.check_oracle_equivalence(problems)
    elapsed = time.time() - start
    assert len(problems) == 1000
    assert elapsed < 30.0
    print(f"PASS criterion 1: oracle equivalence on 1000 instances in {elapsed:.1f}s")


def test_criterion_2_residual_monotonicity():
    problems = list(problem_batch(1000, MASTER_SEED, m_range=(2, 16), n_factor_range=(2, 16)))
    selftest.check_minres_monotonicity(problems, depth=8)
    selftest.check_gmres_bound(problems)
    selftest.check_cr_monotonicity(problems)
    print("PASS criterion 2: residual monotonicity and bounds, zero violations on 1000 instances")


def test_criterion_3_gmres_cr_equivalence():
    problems = problem_batch(500, MASTER_SEED + 1, m_range=(2, 16), n_factor_range=(2, 16))
    worst = selftest.check_gmres_cr_agreement(problems, depth=8)
    print(f"PASS criterion 3: gmres/cr residual histories agree (worst {worst:.2e} relative)")


def test_criterion_4_gap_to_exact_128x8():
    snrs = (9.0, 10.0, 11.0, 12.0, 13.0)
    detectors = ("cholesky", "cr", "gmres")
    results = sweeps([(det, 4) for det in detectors], 128, 8, snrs)
    curves = {det: crossing_points(result, 1e-4) for det, result in zip(detectors, results)}
    gaps_1e3 = {d: snr_gap(curves[d], curves["cholesky"], 1e-3) for d in ("cr", "gmres")}
    gaps_1e4 = {d: snr_gap(curves[d], curves["cholesky"], 1e-4) for d in ("cr", "gmres")}
    for d in ("cr", "gmres"):
        assert abs(gaps_1e3[d]) <= 0.3, f"{d} gap at 1e-3 is {gaps_1e3[d]:.3f} dB"
        assert abs(gaps_1e4[d]) <= 0.4, f"{d} gap at 1e-4 is {gaps_1e4[d]:.3f} dB"
    print(
        "PASS criterion 4: 128x8 64-QAM k=4 gaps to exact detection "
        f"cr {gaps_1e3['cr']:+.3f}/{gaps_1e4['cr']:+.3f} dB, "
        f"gmres {gaps_1e3['gmres']:+.3f}/{gaps_1e4['gmres']:+.3f} dB at 1e-3/1e-4"
    )


def test_criterion_5_gaps_128x16():
    base_snrs = (12.0, 14.0, 15.0)
    chol, cr4, gm4 = (
        crossing_points(result, 1e-3)
        for result in sweeps([("cholesky", 1), ("cr", 4), ("gmres", 4)], 128, 16, base_snrs)
    )
    mr4 = crossing_points(sweep("minres", 4, 128, 16, (14.0, 16.0, 17.0)), 1e-3)
    gap_mr = snr_gap(mr4, chol, 1e-3)
    gap_cr = snr_gap(cr4, chol, 1e-3)
    gap_gm = snr_gap(gm4, chol, 1e-3)
    assert 1.3 <= gap_mr <= 3.3, f"minres gap {gap_mr:.3f} dB"
    assert abs(gap_cr) <= 0.4 and abs(gap_gm) <= 0.4

    cr3 = crossing_points(sweep("cr", 3, 128, 16, (11.0, 12.0, 13.0)), 1e-2)
    mr3 = crossing_points(sweep("minres", 3, 128, 16, (14.0, 15.0, 16.0)), 1e-2)
    advantage = snr_gap(mr3, cr3, 1e-2)
    assert advantage >= 1.5, f"cr advantage over minres is {advantage:.3f} dB"
    print(
        "PASS criterion 5: 128x16 k=4 gaps at 1e-3: "
        f"minres {gap_mr:+.3f} dB, cr {gap_cr:+.3f} dB, gmres {gap_gm:+.3f} dB; "
        f"k=3 cr beats minres by {advantage:.2f} dB at 1e-2"
    )


def test_criterion_6_correlation_robustness():
    scenarios = {
        "uncorrelated": ChannelScenario(),
        "user": ChannelScenario("user_correlated", zeta_t=0.2),
        "bs": ChannelScenario("bs_correlated", zeta_r=0.3),
        "full": ChannelScenario("fully_correlated", zeta_t=0.2, zeta_r=0.3),
    }
    snrs = (6.0, 8.0, 10.0)
    detectors = ("cr", "gmres", "minres")
    crossings, wall = {}, {}
    for tag, scenario in scenarios.items():
        start = time.perf_counter()
        results = sweeps([(det, 4) for det in detectors], 128, 8, snrs, scenario=scenario, target=1000)
        wall[tag] = time.perf_counter() - start
        for det, result in zip(detectors, results):
            crossings[det, tag] = interpolate_snr_at_ber(crossing_points(result, 1e-2), 1e-2)
    degradation = {
        (det, tag): crossings[det, tag] - crossings[det, "uncorrelated"]
        for det in ("cr", "gmres", "minres")
        for tag in ("user", "bs", "full")
    }
    for det in ("cr", "gmres"):
        for tag in ("user", "bs", "full"):
            assert degradation[det, tag] <= 1.0, (
                f"{det} degrades {degradation[det, tag]:.3f} dB under {tag}"
            )
    assert degradation["minres", "full"] > degradation["cr", "full"]
    print(
        "PASS criterion 6: correlation degradation at 1e-2 (dB) "
        f"cr {degradation['cr', 'user']:.2f}/{degradation['cr', 'bs']:.2f}/{degradation['cr', 'full']:.2f}, "
        f"gmres {degradation['gmres', 'full']:.2f} full, "
        f"minres {degradation['minres', 'full']:.2f} full; "
        "run_sweeps wall " + ", ".join(f"{tag} {seconds:.1f} s" for tag, seconds in wall.items())
    )


def test_criterion_7_table_exactness():
    selftest.check_complexity_tables(m_values=(8, 16, 32, 64, 128), k_values=(2, 3, 4))
    print("PASS criterion 7: closed-form counts exact on the full grid, spot values 816/1648/576")


def test_criterion_8_complexity_reduction():
    baseline = cholesky_cost(60).complex_mults
    mults = {a: analytic_cost(a, 60, 3).complex_mults for a in ("cr", "minres", "gmres")}
    selftest.check_complexity_tables()  # cr within 20% of the baseline, and the ordering
    assert mults["minres"] <= 0.30 * baseline
    assert mults["gmres"] <= 0.60 * baseline
    coeff = cr_leading_coefficient(seed=MASTER_SEED, k=3)
    print(
        "PASS criterion 8: reductions vs inversion baseline "
        f"cr {1 - mults['cr'] / baseline:.1%}, minres {1 - mults['minres'] / baseline:.1%}, "
        f"gmres {1 - mults['gmres'] / baseline:.1%}; cr leading coefficient {coeff:.3f}"
    )


def test_criterion_9_determinism():
    config = SimConfig(
        n=64, m=4, qam_order=64, detector="cr", k_iterations=4,
        snr_db_list=(2.0, 5.0, 8.0), target_bit_errors=200,
        max_bits=100_000, master_seed=MASTER_SEED,
    )
    serial = run_sweep(config)
    parallel = run_sweep(config, workers=3)
    rerun = run_sweep(config)
    assert serial == parallel == rerun
    print("PASS criterion 9: sweep bit-identical across reruns and serial/parallel execution")
