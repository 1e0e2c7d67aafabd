"""Shared fixtures: deterministic random MMSE problem instances, fault injection,
a thread-start recorder, and the hypothesis profile every property test runs under."""

import threading

import numpy as np
import pytest

import rbdmimo.detectors as detectors
from rbdmimo.channel import ChannelScenario, generate_channel
from rbdmimo.detectors import MmseProblem, preprocess
from rbdmimo.linalg import norm2
from rbdmimo.rngstream import complex_normal, mix_seed, uniform_stream

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
    """Random SPD detection problem from a random channel draw."""
    n = 4 * m if n is None else n
    h = generate_channel(n, m, ChannelScenario(), mix_seed(seed, 0)).H
    y = complex_normal(uniform_stream(mix_seed(seed, 1)), n)
    return preprocess(h, y, sigma2)


def problem_batch(count, seed, m_range=(2, 16), n_factor_range=(2, 16), sigma2_range=(0.01, 1.0)):
    """Iterate `count` problems with randomized shape and noise level."""
    gen = uniform_stream(seed)
    for i in range(count):
        m = int(gen.integers(m_range[0], m_range[1] + 1))
        n = m * int(gen.integers(n_factor_range[0], n_factor_range[1] + 1))
        sigma2 = float(gen.uniform(*sigma2_range))
        yield make_problem(m, mix_seed(seed, i), n=n, sigma2=sigma2)


def gmres_buffers(r0, v_max):
    """gmres_detect's buffers for a (B, M) batch of nonzero starting residuals.

    Returns (basis, columns, product, beta): the (V+1, B, M) basis holding
    r0 / beta, the (V, V+1, B) Hessenberg columns, the identity real
    (B, V+1, V+1) rotation product and the (B,) residual norms beta.
    """
    r0 = np.asarray(r0, dtype=np.complex128)
    frames, size = r0.shape
    beta = norm2(r0)
    basis = np.zeros((v_max + 1, frames, size), dtype=np.complex128)
    basis[0] = r0 / beta[:, None]
    columns = np.zeros((v_max, v_max + 1, frames), dtype=np.complex128)
    product = np.tile(np.eye(v_max + 1), (frames, 1, 1))
    return basis, columns, product, beta


def sign_flipped_minres(prob, k, **kwargs):
    """minres_detect with its step coefficient negated, for mutation checks.

    The fault lives only for this call: kernel_coeff is patched in the
    detectors module and restored before returning.
    """
    coeff = detectors.kernel_coeff
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detectors, "kernel_coeff", lambda *args, **kw: -coeff(*args, **kw))
        return detectors.minres_detect(prob, k, **kwargs)


class RecordingThread(threading.Thread):
    """A Thread that counts its starts: patched in for threading.Thread to see the Box-Muller helper."""

    started = 0

    def start(self):
        RecordingThread.started += 1
        super().start()
