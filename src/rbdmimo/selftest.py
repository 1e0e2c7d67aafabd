"""Named invariant checks, runnable from the CLI.

Each check raises CheckFailure with a diagnostic on its first violation.
Each condition is written as the pass condition negated, so a NaN fails it.
They are the one definition of each invariant: `rbdmimo selftest` runs
them on 20 problems (M <= 8) in well under a second, and acceptance
criteria 1-3 and the unit tests run them on their own problem families.
"""

from __future__ import annotations

import numpy as np

from .complexity import analytic_cost, cholesky_cost, measured_counter, random_problem
from .detectors import cr_detect, exact_detect, gmres_detect, minres_detect, residual_bound_minres
from .rngstream import mix_seed
from .sim import (FLAG_BELOW_RESOLUTION, FLAG_OK, MIN_FRAMES_PER_POINT, BerPoint, SimConfig, _check_seed,
                  draw_frames, frame_errors, run_ber_point, run_trial, snr_to_sigma2)


class CheckFailure(AssertionError):
    def __init__(self, name: str, detail: str):
        self.name = name
        super().__init__(f"{name}: {detail}")


def _problems(seed, count=20, m_max=8):
    for i in range(count):
        m = 2 + mix_seed(seed, i, 0) % (m_max - 1)
        sigma2 = 0.01 + (mix_seed(seed, i, 1) % 1000) / 1000.0
        yield random_problem(m, mix_seed(seed, i, 2), n=4 * m, sigma2=sigma2)


def check_oracle_equivalence(problems):
    """cr(K=M) and gmres(V=M) match the Cholesky solution to 1e-8 relative."""
    for prob in problems:
        exact = exact_detect(prob).s_hat
        scale = np.linalg.norm(exact)
        for name, detect in (("cr", cr_detect), ("gmres", gmres_detect)):
            got = detect(prob, prob.M).s_hat
            rel = np.linalg.norm(got - exact) / scale
            if not rel <= 1e-8:
                raise CheckFailure("oracle equivalence", f"{name} off by {rel:.3g} at M={prob.M}")


def check_minres_monotonicity(problems, depth: int | None = None):
    """minres(depth, or M if None) residual norms never increase and obey the contraction factor."""
    for prob in problems:
        factor = residual_bound_minres(prob.A).minres_step_factor
        res = minres_detect(prob, prob.M if depth is None else depth).trace.residual_norms
        for k in range(len(res) - 1):
            if not res[k + 1] <= res[k] * (1 + 1e-12):
                raise CheckFailure(
                    "minres residual monotonicity",
                    f"residual grew {res[k]:.6g} -> {res[k + 1]:.6g} at step {k}, M={prob.M}",
                )
            if not res[k + 1] ** 2 <= factor * res[k] ** 2 + 1e-12 * res[0] ** 2:
                raise CheckFailure(
                    "minres residual monotonicity",
                    f"contraction bound {factor:.6g} violated at step {k}, M={prob.M}",
                )


def check_gmres_bound(problems):
    """gmres(V=M) residuals stay below the condition-number bound at every step."""
    for prob in problems:
        bound = residual_bound_minres(prob.A)
        res = gmres_detect(prob, prob.M).trace.residual_norms
        for k in range(len(res)):
            limit = bound.gmres_factor(k) * res[0] + 1e-12 * res[0]
            if not res[k] <= limit:
                raise CheckFailure(
                    "gmres residual bound",
                    f"residual {res[k]:.6g} above bound {limit:.6g} at step {k}, M={prob.M}",
                )


def check_cr_monotonicity(problems):
    """cr(K=M) residuals strictly decrease while iterate norms never decrease."""
    for prob in problems:
        trace = cr_detect(prob, prob.M).trace
        res, its = trace.residual_norms, trace.iterate_norms
        for k in range(len(res) - 1):
            if not res[k + 1] < res[k]:
                raise CheckFailure(
                    "cr residual decrease",
                    f"residual {res[k]:.6g} -> {res[k + 1]:.6g} at step {k}, M={prob.M}",
                )
            if not its[k + 1] >= its[k] * (1 - 1e-12):
                raise CheckFailure(
                    "cr iterate growth",
                    f"iterate norm shrank {its[k]:.6g} -> {its[k + 1]:.6g} at step {k}, M={prob.M}",
                )


def check_gmres_cr_agreement(problems, depth: int) -> float:
    """gmres and cr residuals at depth min(M, depth) agree to 1e-6 of the first; returns the worst gap."""
    worst = 0.0
    for prob in problems:
        k = min(prob.M, depth)
        res_g = gmres_detect(prob, k).trace.residual_norms
        res_c = cr_detect(prob, k).trace.residual_norms
        scale = max(res_g[0], 1e-30)
        for i, (g, c) in enumerate(zip(res_g, res_c)):
            gap = abs(g - c) / scale
            if not gap <= 1e-6:
                raise CheckFailure(
                    "gmres cr residual agreement",
                    f"step {i}: gmres {g:.6g} vs cr {c:.6g}, M={prob.M}",
                )
            worst = max(worst, gap)
    return worst


def check_complexity_tables(m_values=(8, 16, 32, 64, 128), k_values=(2, 3, 4)):
    """Closed-form counts equal their polynomials, evaluated in floats, on the M x k grid,
    hit the spot values, and order cr < minres < gmres."""
    for m in m_values:
        for k in k_values:
            forms = {
                "minres": (2 * k * m, 4 * k * m**2 + 2 * k * m),
                "gmres": ((k**2 / 2 + 3 * k / 2 + 1) * m, (5 * k**2 / 2 + k / 2 + 1) * m**2 + (k**2 / 2 + k / 2) * m),
                "cr": ((4 * k + 1) * m, (k + 3) * m**2 + 8 * k * m),
            }
            for algorithm, (adds, mults) in forms.items():
                got = analytic_cost(algorithm, m, k)
                if not (got.complex_adds == adds == int(adds) and got.complex_mults == mults == int(mults)):
                    raise CheckFailure(
                        "complexity table spot values", f"{algorithm}(M={m},k={k}) = {got}, want {adds}, {mults}"
                    )
    spots = {"minres": 816, "gmres": 1648, "cr": 576}
    for algorithm, want in spots.items():
        got = analytic_cost(algorithm, 8, 3).complex_mults
        if got != want:
            raise CheckFailure("complexity table spot values", f"{algorithm}(M=8,k=3) = {got}, want {want}")
    mults = {a: analytic_cost(a, 60, 3).complex_mults for a in spots}
    if not (mults["cr"] < mults["minres"] < mults["gmres"]):
        raise CheckFailure("complexity table spot values", f"ordering violated: {mults}")
    baseline = cholesky_cost(60).complex_mults
    if not mults["cr"] <= 0.2 * baseline:
        raise CheckFailure(
            "complexity table spot values",
            f"cr at M=60,k=3 is {mults['cr'] / baseline:.1%} of baseline, want <= 20%",
        )


def check_matvec_budget(problems, depths):
    """Counted products at each depth k: 2k for minres, one per cr iteration after three at init."""
    for prob in problems:
        for k in depths:
            got = measured_counter("minres", prob, k).matvecs
            if got != 2 * k:
                raise CheckFailure("matvec budget", f"minres used {got} products, want {2 * k}")
            got = measured_counter("cr", prob, k).matvecs
            if got != k + 3:
                raise CheckFailure("matvec budget", f"cr used {got} products, want {k + 3}")


def _serial_ber_point(config: SimConfig, snr_index: int) -> BerPoint:
    """run_ber_point's result, summed from run_trial one frame at a time."""
    snr_db = config.snr_db_list[snr_index]
    errors = bits = frames = 0
    while frames < MIN_FRAMES_PER_POINT or (errors < config.target_bit_errors and bits < config.max_bits):
        e, n = run_trial(config, snr_db, mix_seed(config.master_seed, snr_index, frames))
        errors, bits, frames = errors + e, bits + n, frames + 1
    flag = FLAG_OK if errors >= config.target_bit_errors else FLAG_BELOW_RESOLUTION
    return BerPoint(snr_db, bits, errors, errors / bits, frames, flag)


def check_determinism(seed):
    """Identical (config, seed) trials produce identical error counts, a
    chunk of frames gives each frame what run_trial gives it alone, and a
    BER point equals the frame-by-frame sum under the serial stop rule."""
    config = SimConfig(
        n=16, m=4, qam_order=16, detector="cr", k_iterations=3,
        snr_db_list=(6.0,), master_seed=seed,
    )
    first = run_trial(config, 6.0, mix_seed(seed, 0, 0))
    second = run_trial(config, 6.0, mix_seed(seed, 0, 0))
    if first != second:
        raise CheckFailure("trial determinism", f"{first} != {second}")
    seeds = [mix_seed(seed, 0, t) for t in range(8)]
    chunk = frame_errors(config, *draw_frames(config, snr_to_sigma2(0.0, config.m), seeds)).tolist()
    alone = [run_trial(config, 0.0, t)[0] for t in seeds]
    if chunk != alone:
        raise CheckFailure("trial determinism", f"chunk errors {chunk} != per-frame errors {alone}")
    # both points outlast the first chunk: 30-60 frames to 100 errors, a budget of 60
    config = SimConfig(
        n=16, m=4, qam_order=16, detector="cr", k_iterations=3,
        snr_db_list=(0.0, 3.0), target_bit_errors=100, max_bits=60 * 16, master_seed=seed,
    )
    for i, snr_db in enumerate(config.snr_db_list):
        point, serial = run_ber_point(config, snr_db), _serial_ber_point(config, i)
        if point != serial:
            raise CheckFailure("trial determinism", f"BER point {point} != frame-by-frame {serial}")


def run_selftest(seed: int = 2024) -> list[str]:
    """Run every named check; returns the list of failure messages.

    A seed outside SimConfig's master seed rule raises ConfigError before
    any check runs.
    """
    _check_seed(seed, "seed")
    problems = list(_problems(seed))
    checks = (
        ("oracle equivalence", lambda: check_oracle_equivalence(problems)),
        ("minres residual monotonicity", lambda: check_minres_monotonicity(problems)),
        ("gmres residual bound", lambda: check_gmres_bound(problems)),
        ("cr residual decrease", lambda: check_cr_monotonicity(problems)),
        ("gmres cr residual agreement", lambda: check_gmres_cr_agreement(problems, 6)),
        ("complexity table spot values", check_complexity_tables),
        ("matvec budget", lambda: check_matvec_budget([random_problem(8, mix_seed(seed, 99))], (4,))),
        ("trial determinism", lambda: check_determinism(seed)),
    )
    failures = []
    for name, check in checks:
        try:
            check()
        except CheckFailure as exc:
            failures.append(str(exc))
            print(f"FAIL {exc}")
        else:
            print(f"PASS {name}")
    return failures
