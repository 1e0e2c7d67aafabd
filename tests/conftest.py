"""Shared fixtures: deterministic random MMSE problem instances, cr's
leading-coefficient fit, fault injection, a thread harness, failing thread
starts, the BLAS thread count, and the hypothesis profile every property test
runs under."""

import ctypes
import sys
import threading

import numpy as np
import pytest

import rbdmimo.detectors as detectors
import rbdmimo.blas as blas
from rbdmimo.complexity import leading_coefficient, measured_cost, random_problem
from rbdmimo.detectors import MmseProblem
from rbdmimo.linalg import norm2
from rbdmimo.rngstream import mix_seed, uniform_stream

# Property tests draw the same examples on every run (derandomize, no example
# database), never time out on a slow host, and stay bounded in number.  Without
# hypothesis (the `test` extra) only the property-test modules fail to collect.
try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("rbdmimo", derandomize=True, database=None, deadline=None, max_examples=100)
    settings.load_profile("rbdmimo")


def make_problem(m, seed, n=None, sigma2=0.5) -> MmseProblem:
    """random_problem, with N = 4M unless given and sigma2 = 0.5."""
    return random_problem(m, seed, n=4 * m if n is None else n, sigma2=sigma2)


def random_complex(gen, *shape):
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def stack_problems(problems) -> MmseProblem:
    return MmseProblem(A=np.stack([p.A for p in problems]), y_mf=np.stack([p.y_mf for p in problems]))


def assert_same_result(got, want):
    assert np.array_equal(got.s_hat, want.s_hat)
    assert got.iterations == want.iterations
    assert got.trace.residual_norms == want.trace.residual_norms
    assert got.trace.iterate_norms == want.trace.iterate_norms


def problem_batch(count, seed, m_range=(2, 16), n_factor_range=(2, 16), sigma2_range=(0.01, 1.0)):
    """Iterate `count` problems with randomized shape and noise level."""
    gen = uniform_stream(seed)
    for i in range(count):
        m = int(gen.integers(m_range[0], m_range[1] + 1))
        n = m * int(gen.integers(n_factor_range[0], n_factor_range[1] + 1))
        sigma2 = float(gen.uniform(*sigma2_range))
        yield make_problem(m, mix_seed(seed, i), n=n, sigma2=sigma2)


def cr_leading_coefficient(seed, k):
    """cr's leading coefficient, fit to its counted mults on random_problem(M, seed), M = 8..64; k + 3 within 5%."""
    m_values = [8, 16, 32, 64]
    counts = [measured_cost("cr", random_problem(m, seed), k).complex_mults for m in m_values]
    coeff = leading_coefficient(m_values, counts)
    assert abs(coeff - (k + 3)) <= 0.05 * (k + 3), (seed, k, coeff)
    return coeff


def gmres_buffers(r0, v_max):
    """gmres_start's state for a (B, M) batch of nonzero starting residuals, and their (B,) norms beta."""
    r0 = np.asarray(r0, dtype=np.complex128)
    beta = norm2(r0)
    return (*detectors.gmres_start(r0, beta, v_max), beta)


def sign_flipped_minres(prob, k, **kwargs):
    """minres_detect with its step coefficient negated, for mutation checks.

    The fault lives only for this call: kernel_coeff is patched in the
    detectors module and restored before returning.
    """
    coeff = detectors.kernel_coeff
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detectors, "kernel_coeff", lambda *args, **kw: -coeff(*args, **kw))
        return detectors.minres_detect(prob, k, **kwargs)


def run_in_threads(*targets, switch_interval=None, timeout=120):
    """Run each target in a thread of its own, all at once, and assert every one has ended.

    With switch_interval given, the interpreter switches threads that often
    while they run.  Each thread is joined for at most timeout seconds.
    """
    threads = [threading.Thread(target=target) for target in targets]
    interval = sys.getswitchinterval()
    if switch_interval is not None:
        sys.setswitchinterval(switch_interval)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def fail_thread_starts(monkeypatch):
    """Make threading.Thread.start raise until the test ends, so a draw that starts a thread fails."""

    def start(self):
        raise AssertionError(f"a thread was started: {self!r}")

    monkeypatch.setattr(threading.Thread, "start", start)


def blas_threads():
    """The threads the loaded OpenBLAS runs on, or None where it reports none."""
    get = blas.openblas_function("get")
    if get is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get()
