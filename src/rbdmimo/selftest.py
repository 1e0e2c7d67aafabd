"""Fast named invariant checks, runnable from the CLI.

Each check raises CheckFailure with a diagnostic on violation.  The suite
covers the load-bearing invariants at small scale (M <= 8) and finishes in
a few seconds.
"""

from __future__ import annotations

import numpy as np

from .complexity import analytic_cost, cholesky_cost, measured_counter, random_problem
from .detectors import cr_detect, exact_detect, gmres_detect, minres_detect, residual_bound_minres
from .rngstream import mix_seed
from .sim import SimConfig, run_frames, run_trial


class CheckFailure(AssertionError):
    def __init__(self, name: str, detail: str):
        self.name = name
        super().__init__(f"{name}: {detail}")


def _problems(seed, count=20, m_max=8):
    for i in range(count):
        m = 2 + mix_seed(seed, i, 0) % (m_max - 1)
        sigma2 = 0.01 + (mix_seed(seed, i, 1) % 1000) / 1000.0
        yield random_problem(m, mix_seed(seed, i, 2), n=4 * m, sigma2=sigma2)


def check_oracle_equivalence(seed):
    """cr(K=M) and gmres(V=M) match the Cholesky solution to 1e-8 relative."""
    for prob in _problems(seed):
        exact = exact_detect(prob).s_hat
        scale = np.linalg.norm(exact)
        for name, detect in (("cr", cr_detect), ("gmres", gmres_detect)):
            got = detect(prob, prob.M).s_hat
            rel = np.linalg.norm(got - exact) / scale
            if rel > 1e-8:
                raise CheckFailure("oracle equivalence", f"{name} off by {rel:.3g} at M={prob.M}")


def check_minres_monotonicity(seed):
    """minres residual norms never increase and obey the contraction factor."""
    for prob in _problems(seed):
        bound = residual_bound_minres(prob.A)
        factor = bound.minres_step_factor
        res = minres_detect(prob, prob.M).trace.residual_norms
        for k in range(len(res) - 1):
            if res[k + 1] > res[k] * (1 + 1e-12):
                raise CheckFailure(
                    "minres residual monotonicity",
                    f"residual grew {res[k]:.6g} -> {res[k + 1]:.6g} at step {k}, M={prob.M}",
                )
            if res[k + 1] ** 2 > factor * res[k] ** 2 + 1e-12 * res[0] ** 2:
                raise CheckFailure(
                    "minres residual monotonicity",
                    f"contraction bound {factor:.6g} violated at step {k}, M={prob.M}",
                )


def check_gmres_bound(seed):
    """gmres residuals stay below the condition-number bound at every step."""
    for prob in _problems(seed):
        bound = residual_bound_minres(prob.A)
        res = gmres_detect(prob, prob.M).trace.residual_norms
        for k in range(len(res)):
            limit = bound.gmres_factor(k) * res[0] + 1e-12 * res[0]
            if res[k] > limit:
                raise CheckFailure(
                    "gmres residual bound",
                    f"residual {res[k]:.6g} above bound {limit:.6g} at step {k}, M={prob.M}",
                )


def check_cr_monotonicity(seed):
    """cr residuals strictly decrease while iterate norms never decrease."""
    for prob in _problems(seed):
        trace = cr_detect(prob, prob.M).trace
        res, its = trace.residual_norms, trace.iterate_norms
        for k in range(len(res) - 1):
            if not res[k + 1] < res[k]:
                raise CheckFailure(
                    "cr residual decrease",
                    f"residual {res[k]:.6g} -> {res[k + 1]:.6g} at step {k}, M={prob.M}",
                )
            if its[k + 1] < its[k] * (1 - 1e-12):
                raise CheckFailure(
                    "cr iterate growth",
                    f"iterate norm shrank {its[k]:.6g} -> {its[k + 1]:.6g} at step {k}, M={prob.M}",
                )


def check_gmres_cr_agreement(seed):
    """gmres and cr residual histories agree on Hermitian PD systems."""
    for prob in _problems(seed):
        k = min(prob.M, 6)
        res_g = gmres_detect(prob, k).trace.residual_norms
        res_c = cr_detect(prob, k).trace.residual_norms
        for i in range(min(len(res_g), len(res_c))):
            if abs(res_g[i] - res_c[i]) > 1e-6 * max(res_g[0], 1e-30):
                raise CheckFailure(
                    "gmres cr residual agreement",
                    f"step {i}: gmres {res_g[i]:.6g} vs cr {res_c[i]:.6g}, M={prob.M}",
                )


def check_complexity_tables(seed):
    """Closed-form counts hit the spot values and order cr < minres < gmres."""
    spots = {"minres": 816, "gmres": 1648, "cr": 576}
    for algorithm, want in spots.items():
        got = analytic_cost(algorithm, 8, 3).complex_mults
        if got != want:
            raise CheckFailure("complexity table spot values", f"{algorithm}(M=8,k=3) = {got}, want {want}")
    mults = {a: analytic_cost(a, 60, 3).complex_mults for a in spots}
    if not (mults["cr"] < mults["minres"] < mults["gmres"]):
        raise CheckFailure("complexity table spot values", f"ordering violated: {mults}")
    baseline = cholesky_cost(60).complex_mults
    if mults["cr"] > 0.2 * baseline:
        raise CheckFailure(
            "complexity table spot values",
            f"cr at M=60,k=3 is {mults['cr'] / baseline:.1%} of baseline, want <= 20%",
        )


def check_matvec_budget(seed):
    """Instrumented product counts: 2k for minres, one per cr iteration after init."""
    prob = random_problem(8, mix_seed(seed, 99))
    k = 4
    got = measured_counter("minres", prob, k).matvecs
    if got != 2 * k:
        raise CheckFailure("matvec budget", f"minres used {got} products, want {2 * k}")
    got = measured_counter("cr", prob, k).matvecs
    if got != k + 3:
        raise CheckFailure("matvec budget", f"cr used {got} products, want {k + 3}")


def check_determinism(seed):
    """Identical (config, seed) trials produce identical error counts, and a
    chunk of frames gives each frame what run_trial gives it alone."""
    config = SimConfig(
        n=16, m=4, qam_order=16, detector="cr", k_iterations=3,
        snr_db_list=(6.0,), master_seed=seed,
    )
    first = run_trial(config, 6.0, mix_seed(seed, 0, 0))
    second = run_trial(config, 6.0, mix_seed(seed, 0, 0))
    if first != second:
        raise CheckFailure("trial determinism", f"{first} != {second}")
    seeds = [mix_seed(seed, 0, t) for t in range(8)]
    chunk = run_frames(config, 0.0, seeds).tolist()
    alone = [run_trial(config, 0.0, t)[0] for t in seeds]
    if chunk != alone:
        raise CheckFailure("trial determinism", f"chunk errors {chunk} != per-frame errors {alone}")


CHECKS = (
    ("oracle equivalence", check_oracle_equivalence),
    ("minres residual monotonicity", check_minres_monotonicity),
    ("gmres residual bound", check_gmres_bound),
    ("cr residual decrease", check_cr_monotonicity),
    ("gmres cr residual agreement", check_gmres_cr_agreement),
    ("complexity table spot values", check_complexity_tables),
    ("matvec budget", check_matvec_budget),
    ("trial determinism", check_determinism),
)


def run_selftest(seed: int = 2024, emit=print) -> list[str]:
    """Run every named check; returns the list of failure messages."""
    failures = []
    for name, check in CHECKS:
        try:
            check(seed)
        except CheckFailure as exc:
            failures.append(str(exc))
            emit(f"FAIL {exc}")
        else:
            emit(f"PASS {name}")
    return failures
