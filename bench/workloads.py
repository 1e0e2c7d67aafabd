"""The benchmark's workloads.

Each workload turns a seed into inputs (`prepare`), warms the program's
first-call caches (`warm_up`), runs one timed pass through the public
rbdmimo API (`run_pass`), and checks a pass against references (`check`).
`digest` reduces a pass to one comparable value per item (BER point or
problem), so passes can be compared with each other and with `replay`.

`replay` repeats the pass call by call, with a span around each call into
a layer.  With a disabled tracer it serves as the correctness replay of
the untraced run; with an enabled one it gives the per-layer numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from spans import Tracer

from rbdmimo.channel import ChannelScenario, generate_channel
from rbdmimo.complexity import measured_cost
from rbdmimo.detectors import (
    cr_detect,
    exact_detect,
    gmres_detect,
    minres_detect,
    preprocess,
)
from rbdmimo.linalg import cholesky_factor, cholesky_solve, hermitian_eigen_extrema
from rbdmimo.modem import awgn_add, qam_demodulate_hard, qam_modulate, qam_spec
from rbdmimo.rngstream import complex_normal, mix_seed, uniform_stream
from rbdmimo.sim import (
    FLAG_BELOW_RESOLUTION,
    FLAG_OK,
    MIN_FRAMES_PER_POINT,
    SimConfig,
    run_sweep,
    run_trial,
    snr_to_sigma2,
)

MASTER_SEED = 20_260_809
QAM_ORDER = 64
K_ITERATIONS = 4
TARGET_BIT_ERRORS = 100
MINRES_K = 8
DETECTORS = ("cholesky", "cr", "gmres", "minres")
COUNTED = ("minres", "gmres", "cr")

# Relative tolerances of the detector checks.  Solutions that are exact in
# exact arithmetic agree with LAPACK to round-off; the Krylov references
# solve a least-squares problem on a power basis and lose a few digits.
# ORACLE_TOL is acceptance criterion 1's bound, scaled by cond(A) in the
# check: past M = 16, cr at depth M loses conjugacy and stops near a
# 1e-8 relative residual, so its forward error reaches about
# 1e-8 x cond(A) / 5 (worst seen: 9.1e-8 at M = 25, cond(A) = 43), while
# gmres stays within 1e-12.
EXACT_TOL = 1e-9
ORACLE_TOL = 1e-8
KRYLOV_TOL = 1e-7

_ITERATIVE = {"minres": minres_detect, "gmres": gmres_detect, "cr": cr_detect}


def detect(name: str, prob, k: int):
    return exact_detect(prob) if name == "cholesky" else _ITERATIVE[name](prob, k)


def relative_error(got, want) -> float:
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def reference_solution(name: str, a, y, k: int):
    """What each detector computes, in plain numpy, from a zero start.

    cholesky solves A s = y; cr and gmres minimize ||y - A s|| over the
    Krylov space span{y, Ay, ..., A^(k-1) y}; minres takes k steepest
    residual-descent steps.
    """
    if name == "cholesky":
        return np.linalg.solve(a, y)
    if name == "minres":
        s = np.zeros_like(y)
        for _ in range(k):
            r = y - a @ s
            ar = a @ r
            s = s + (np.vdot(ar, r) / np.vdot(ar, ar)) * r
        return s
    basis = [y]
    for _ in range(min(k, len(y)) - 1):
        basis.append(a @ basis[-1])
    q, _ = np.linalg.qr(np.column_stack(basis))
    return q @ np.linalg.lstsq(a @ q, y, rcond=None)[0]


def early_stopped(name: str, iterations: int, k: int, m: int) -> bool:
    return iterations < (min(k, m) if name == "gmres" else k)


def counted_run(index: int, m: int) -> tuple[str, int]:
    """Algorithm and depth of problem `index`'s counted run.

    k stays below M so that no run can stop early and each count depends
    only on (algorithm, M, k).
    """
    return COUNTED[index % len(COUNTED)], min(K_ITERATIONS, m - 1)


def random_problems(seed: int, per_m: int, m_range: tuple[int, int]):
    """Seeded detection problems, `per_m` of each M in m_range, in a seeded order.

    Each has N = M x 2..16 and sigma2 in [0.01, 1], drawn as in the test
    suite's problem batches.  Every seed gets the same multiset of M, so
    the work of a pass hardly depends on the seed.
    """
    gen = uniform_stream(seed)
    ms = gen.permutation(np.repeat(np.arange(m_range[0], m_range[1] + 1), per_m))
    problems = []
    for i, m in enumerate(ms.tolist()):
        n = m * int(gen.integers(2, 17))
        sigma2 = float(gen.uniform(0.01, 1.0))
        item_seed = mix_seed(seed, i)
        h = generate_channel(n, m, ChannelScenario(), mix_seed(item_seed, 0)).H
        y = complex_normal(uniform_stream(mix_seed(item_seed, 1)), n)
        problems.append(preprocess(h, y, sigma2))
    return problems


def _probe_linalg(tracer: Tracer, prob) -> None:
    """Time the package's Cholesky and the LAPACK floor on the same A."""
    with tracer.span("linalg.cholesky"):
        cholesky_solve(cholesky_factor(prob.A), prob.y_mf)
    with tracer.span("linalg.np_solve"):
        np.linalg.solve(prob.A, prob.y_mf)


def _count_detection(tracer: Tracer, name: str, result, k: int, m: int) -> None:
    tracer.count(f"detectors.{name}.iterations", result.iterations)
    tracer.count(f"detectors.{name}.early_stop", float(early_stopped(name, result.iterations, k, m)))


@dataclass(frozen=True)
class BerSweep:
    """`run_sweep` for every detector at k=4, 64-QAM, over a fixed SNR list.

    Each point stops at TARGET_BIT_ERRORS or after `frames_per_point`
    frames (the bit budget), whichever comes first.  The SNR lists are
    chosen so that the low-SNR points always stop at the error target and
    the others always at the budget: both stop rules run, and a pass does
    nearly the same number of frames whatever the seed.
    """

    name: str
    n: int
    m: int
    snr_db_list: tuple[float, ...]
    frames_per_point: int
    scenario: ChannelScenario = ChannelScenario()

    @property
    def normals_per_item(self) -> int:
        """Complex normals drawn per frame: the channel plus the noise."""
        return self.n * self.m + self.n

    @property
    def bits_per_item(self) -> int:
        return self.m * qam_spec(QAM_ORDER).bits_per_symbol

    def prepare(self, seed: int) -> list[SimConfig]:
        return [
            SimConfig(
                n=self.n, m=self.m, qam_order=QAM_ORDER, detector=det,
                k_iterations=K_ITERATIONS, snr_db_list=self.snr_db_list,
                scenario=self.scenario, target_bit_errors=TARGET_BIT_ERRORS,
                max_bits=self.frames_per_point * self.bits_per_item, master_seed=seed,
            )
            for det in DETECTORS
        ]

    def warm_up(self, configs) -> None:
        for cfg in configs:
            run_trial(cfg, cfg.snr_db_list[0], mix_seed(cfg.master_seed, 0, 0))

    def run_pass(self, configs):
        return [run_sweep(cfg) for cfg in configs]

    def items(self, output) -> int:
        return sum(p.frames for sweep in output for p in sweep.points)

    def digest(self, output) -> list[tuple]:
        """One (detector, snr_db, frames, bits, errors, flag) row per BER point."""
        return [
            (sweep.config.detector, p.snr_db, p.frames, p.bits_sent, p.bit_errors, p.flag)
            for sweep in output
            for p in sweep.points
        ]

    def check(self, configs, output, reference) -> set[int]:
        """Indices of BER points that break the stop rule, or that differ from
        the points recorded for this seed, if there are any."""
        recorded = reference["ber_points"].get(self.name, {}).get(str(configs[0].master_seed))
        bad = set()
        for i, row in enumerate(self.digest(output)):
            _, _, frames, bits, errors, flag = row
            reached = errors >= TARGET_BIT_ERRORS
            stopped = frames >= MIN_FRAMES_PER_POINT and (reached or bits >= configs[0].max_bits)
            want_flag = FLAG_OK if reached else FLAG_BELOW_RESOLUTION
            if bits != frames * self.bits_per_item or not stopped or flag != want_flag:
                bad.add(i)
            elif recorded is not None and list(row) != recorded[i]:
                bad.add(i)
        return bad

    def replay(self, configs, tracer: Tracer) -> tuple[list[tuple], set[int]]:
        """Every frame of every point, stage by stage, with the stop rule re-applied.

        Each detector output is checked against `reference_solution`; when
        tracing, each frame's bit errors are also checked against
        `run_trial` on the same trial seed.
        """
        rows, bad = [], set()
        for cfg in configs:
            for snr_index, snr_db in enumerate(cfg.snr_db_list):
                row, ok = self._replay_point(cfg, snr_db, snr_index, tracer)
                if not ok:
                    bad.add(len(rows))
                rows.append(row)
        return rows, bad

    def _replay_point(self, cfg: SimConfig, snr_db: float, snr_index: int, tracer: Tracer):
        spec = qam_spec(cfg.qam_order)
        n_bits = cfg.m * spec.bits_per_symbol
        sigma2 = snr_to_sigma2(snr_db, cfg.m)
        det, k = cfg.detector, cfg.k_iterations
        ok = True
        errors = bits = frames = 0
        while True:
            trial_seed = mix_seed(cfg.master_seed, snr_index, frames)
            tracer.item += 1
            if tracer.enabled:
                with tracer.span("sim.run_trial"):
                    expected = run_trial(cfg, snr_db, trial_seed)[0]
            with tracer.span("sim.frame"):
                with tracer.span("rngstream.uniform_stream"):
                    gen = uniform_stream(mix_seed(trial_seed, 0))
                with tracer.span("rngstream.bits"):
                    tx_bits = gen.integers(0, 2, size=n_bits)
                with tracer.span("modem.qam_modulate"):
                    symbols = qam_modulate(tx_bits, spec)
                with tracer.span("channel.generate_channel"):
                    h = generate_channel(cfg.n, cfg.m, cfg.scenario, mix_seed(trial_seed, 1)).H
                received = h @ symbols
                with tracer.span("modem.awgn_add"):
                    y = awgn_add(received, sigma2, mix_seed(trial_seed, 2))
                with tracer.span("detectors.preprocess"):
                    prob = preprocess(h, y, sigma2)
                with tracer.span("detectors." + det):
                    result = detect(det, prob, k)
                with tracer.span("modem.qam_demodulate_hard"):
                    rx_bits = qam_demodulate_hard(result.s_hat, spec)
                e = int(np.count_nonzero(rx_bits != tx_bits))
            if tracer.enabled:
                ok &= e == expected
                if det == "cholesky":
                    _probe_linalg(tracer, prob)
                else:
                    _count_detection(tracer, det, result, k, cfg.m)
            tol = EXACT_TOL if det == "cholesky" else KRYLOV_TOL
            ok &= relative_error(result.s_hat, reference_solution(det, prob.A, prob.y_mf, k)) <= tol
            errors += e
            bits += n_bits
            frames += 1
            if frames >= MIN_FRAMES_PER_POINT and (errors >= cfg.target_bit_errors or bits >= cfg.max_bits):
                break
        flag = FLAG_OK if errors >= cfg.target_bit_errors else FLAG_BELOW_RESOLUTION
        return (det, float(snr_db), frames, bits, errors, flag), ok


@dataclass(frozen=True)
class KrylovSolves:
    """Every detector at full Krylov depth, plus one counted run per problem
    and the same run uncounted."""

    name: str
    per_m: int
    m_range: tuple[int, int]
    normals_per_item = 0
    bits_per_item = 0

    def prepare(self, seed: int):
        return random_problems(seed, self.per_m, self.m_range)

    def warm_up(self, problems) -> None:
        self.run_pass(problems[:1])

    @staticmethod
    def _one(index: int, prob, tracer: Tracer):
        alg, k = counted_run(index, prob.M)
        with tracer.span("detectors.cholesky"):
            ex = exact_detect(prob)
        with tracer.span("detectors.cr"):
            cr = cr_detect(prob, prob.M)
        with tracer.span("detectors.gmres"):
            gm = gmres_detect(prob, prob.M)
        with tracer.span("detectors.minres"):
            mr = minres_detect(prob, MINRES_K)
        with tracer.span("complexity.uncounted_run"):
            detect(alg, prob, k)
        with tracer.span("complexity.measured_cost"):
            cost = measured_cost(alg, prob, k)
        return ex, cr, gm, mr, cost

    def run_pass(self, problems):
        untraced = Tracer(False)
        return [self._one(i, prob, untraced) for i, prob in enumerate(problems)]

    def items(self, output) -> int:
        return len(output)

    def digest(self, output) -> list[tuple]:
        return [
            (ex.s_hat.tobytes(), cr.s_hat.tobytes(), gm.s_hat.tobytes(),
             tuple(mr.trace.residual_norms), cost)
            for ex, cr, gm, mr, cost in output
        ]

    def check(self, problems, output, reference) -> set[int]:
        """cr/gmres(M) match exact_detect, which matches LAPACK; minres(8)
        residuals never grow; counted ops equal the recorded counts."""
        bad = set()
        for i, (prob, (ex, cr, gm, mr, cost)) in enumerate(zip(problems, output)):
            alg, k = counted_run(i, prob.M)
            want = reference["counted_ops"][alg][str(prob.M)]
            oracle_tol = ORACLE_TOL * np.linalg.cond(prob.A)
            r = mr.trace.residual_norms
            if (
                relative_error(ex.s_hat, np.linalg.solve(prob.A, prob.y_mf)) > EXACT_TOL
                or relative_error(cr.s_hat, ex.s_hat) > oracle_tol
                or relative_error(gm.s_hat, ex.s_hat) > oracle_tol
                or any(b > a * (1 + 1e-12) for a, b in zip(r, r[1:]))
                or [cost.complex_adds, cost.complex_mults] != want
            ):
                bad.add(i)
        return bad

    def replay(self, problems, tracer: Tracer) -> tuple[list[tuple], set[int]]:
        out = []
        for i, prob in enumerate(problems):
            tracer.item += 1
            out.append(self._one(i, prob, tracer))
            if tracer.enabled:
                _probe_linalg(tracer, prob)
                with tracer.span("linalg.eigen_extrema"):
                    hermitian_eigen_extrema(prob.A)
                _, cr, gm, mr, cost = out[-1]
                _count_detection(tracer, "cr", cr, prob.M, prob.M)
                _count_detection(tracer, "gmres", gm, prob.M, prob.M)
                _count_detection(tracer, "minres", mr, MINRES_K, prob.M)
                alg = counted_run(i, prob.M)[0]
                tracer.count(f"complexity.{alg}.mults", cost.complex_mults)
                tracer.count(f"complexity.{alg}.adds", cost.complex_adds)
        return self.digest(out), set()


WORKLOADS = {
    w.name: w
    for w in (
        # 4 dB reaches 100 errors in about 30 frames; 10 and 12 dB need more
        # than 700, so they stop at the 100-frame budget.
        BerSweep("ber-128x8-iid", n=128, m=8, snr_db_list=(4.0, 10.0, 12.0), frames_per_point=100),
        KrylovSolves("krylov-m2-32", per_m=6, m_range=(2, 32)),
    )
}
