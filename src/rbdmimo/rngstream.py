"""Deterministic random streams for reproducible simulation.

Every random draw in this package flows from a 64-bit integer seed through
a counter-based uniform generator (Philox), so identical seeds reproduce
identical values regardless of call order or parallel scheduling.  Normal
variates are produced by the Box-Muller transform applied to that uniform
stream; complex Gaussians take one Box-Muller pair per entry.

The public draws are per frame: `uniform_stream(seed)` keys a fresh
Philox by one integer seed, `complex_normal` reads a frame's normals from
it, and neither touches per-thread state.  The chunk draws
(`uniform_bits_rows`, `_chunk_normals`) give row b of a batch exactly
what a fresh `uniform_stream(seeds[b])` gives, but from one Philox per
thread whose state is reset per seed (`Philox(key=seed)` builds a
generator, about 15 us, and also reads the OS entropy pool for a seed it
then discards).  The reset and the read of a row happen inside one call
(`_fill_rows`), so no caller holds the shared generator between rows.

One Box-Muller session per chunk: `_chunk_normals` fills the uniforms of
several row groups (a chunk's channel entries and its noise) and
transforms them together, each group scaled by its own variance, one for
the group or one per row (a packed chunk's frames of several SNRs).
Box-Muller on the counter-based Philox (Box & Muller 1958; Salmon et al.,
SC'11) makes every row a pure function of its seed, so neither the
grouping nor the shared generator changes a value: row b of a group
equals `complex_normal(uniform_stream(seeds[b]), n, variance)`.

Bits contract: a row of n bits is `uniform_stream(seed).integers(0, 2, n)`.
numpy draws that range from successive 32-bit halves of the raw 64-bit
Philox words, low half first, and keeps the top bit of each (Lemire's
method never rejects for a range of two).  `uniform_bits_rows` therefore
reads bit 31 and then bit 63 of each of the first ceil(n / 2) raw words,
which gives the same bits without the per-bit sampling loop.

Helper thread: Box-Muller's cos and sin are most of the cost of a normal,
and numpy releases the GIL inside them.  From TRIG_THREAD_ENTRIES entries
of the whole session up (a 128x8 chunk of channels and noise qualifies
from 15 frames), and only if the process may run on more CPUs
(`os.sched_getaffinity`) than there are processes drawing on them, every
group's cos runs on a helper thread while the calling thread forms every
group's radii and sines.  A process draws alone unless a sweep's pool
worker records its pool's size (`_share_cpus`), so a serial run needs two
CPUs and a pool of w workers more than w.  Both threads apply the same
ufuncs to the same inputs, so the values do not depend on whether the
helper runs.  Starting and joining a thread costs about 35-45 us on a
2-vCPU VM (Python 3.11, numpy 2.4), so up to about 2**13 entries the
split does not pay (1.03 of the serial time); at 2**14 entries
Box-Muller takes 0.79 of its serial time and at 2**15-2**16 entries
0.66-0.67 (medians of interleaved in-process pairs).

Memory: each drawing thread has one chunk buffer (`_thread.chunk`), which
grows to the largest chunk and is then reused.  `sim.draw_frames` draws
its chunk's uniforms into it (`_chunk_normals`), Box-Muller forms the
radii in place over them and writes the complex normals over the dead
uniforms, so a steady run of chunks does not allocate them afresh (glibc
hands an array of a chunk's size back to the kernel when it is freed, and
the next chunk page-faults it in again).  A correlated scenario's chunk
also asks for a spare region of B N M complex entries past its normals,
and `channel.correlate_channel` writes the first product into it and a
second back over the dead W, so its H is never allocated afresh either
(fresh products page-faulted about 500-1,100 times a 2 MiB chunk).  Cos
and sin go to one fresh array per session, and the public draws return
fresh arrays.  A chunk of B frames of N x M holds B N (M + 1) normals, 16
bytes each, and `sim.CHUNK_ENTRIES` caps B N M, so a simulating thread's
buffer stays within 16 (1 + 1/M) CHUNK_ENTRIES bytes, 2.25 MiB at 128x8
and 4 MiB at most, and the correlated products' region adds at most
16 CHUNK_ENTRIES bytes (2 MiB), unless a single frame exceeds the cap
and runs alone.

Threads and fork: the generator and the chunk buffer are
`threading.local`, so concurrent callers reset their own generator and
draw into their own buffer.  The helper draws nothing and owns no buffer:
it writes only the calling thread's cos array, which that thread does not
touch before the join, and no thread outlives the call.  A forked worker
therefore inherits a consistent copy of its parent's generator, which
every row resets before it reads, and of its chunk buffer, which every
chunk writes before it reads.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

_MASK64 = (1 << 64) - 1
_BIT_SHIFTS = np.array([31, 63], dtype=np.uint64)  # the top bits of a raw word's two 32-bit halves

# Box-Muller runs cos on a helper thread from this many entries up, if the
# process has a CPU to spare (see the module docstring)
TRIG_THREAD_ENTRIES = 2**14

# splitmix64 constants (Steele/Lea/Flood generator, public domain)
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(x):
    """One splitmix64 step: 64-bit add-gamma then xor-shift-multiply finalizer.

    x is an int in [0, 2**64) or a uint64 array; the masks make int
    arithmetic wrap exactly as uint64 arithmetic does.
    """
    x = (x + _GAMMA) & _MASK64
    z = (x ^ (x >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _is_integer(value) -> bool:
    """Whether value is an int or a numpy integer; a bool is not (the package's one integer test)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))


def _seed_int(seed) -> int:
    """An int or numpy integer seed modulo 2**64; anything else, a bool included, raises TypeError."""
    if not _is_integer(seed):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    return int(seed) & _MASK64


def _component(c):
    """A seed component modulo 2**64: an int (see _seed_int), or a uint64 array for an integer array."""
    if not isinstance(c, np.ndarray):
        return _seed_int(c)
    if c.dtype.kind not in "iu":
        raise TypeError(f"seed components must be integers, got an array of {c.dtype}")
    return c.astype(np.uint64)  # signed values wrap, as int & _MASK64 does


def mix_seed(*components):
    """Fold integer components into a single 64-bit seed.

    The running state is xored with each component (taken modulo 2**64)
    and passed through splitmix64, so the result depends on both the
    values and their order.  This is the documented mixing function behind
    all derived seeds (per-trial, per-purpose sub-streams).  Components
    may be integer arrays, which broadcast together: the result is then a
    uint64 array of the seeds the ints would give one by one.
    """
    acc = 0x8BADF00D5EEDC0DE
    for c in components:
        acc = splitmix64(acc ^ _component(c))
    return acc


def seed_array(seeds) -> np.ndarray:
    """uint64 array of 64-bit seeds from an integer array or a sequence of ints.

    Each seed is checked and taken modulo 2**64, as mix_seed takes its components.
    """
    if isinstance(seeds, np.ndarray):
        return _component(seeds)
    return np.array([_component(s) for s in seeds], dtype=np.uint64)


def uniform_stream(seed: int) -> np.random.Generator:
    """Counter-based uniform stream (Philox) keyed by an integer seed taken modulo 2**64.

    This is where a public draw's seed becomes a Philox key.  Anything but
    an int or a numpy integer, a bool included, raises TypeError.
    """
    return np.random.Generator(np.random.Philox(key=_seed_int(seed)))


_thread = threading.local()


def _thread_philox():
    """This thread's (Generator, key, state): one Philox per thread, reset row by row.

    Writing `state` into the generator, with a seed in key[0], is
    bit-identical to building Philox(key=seed), and much cheaper.  The
    state holds Python ints: the setter converts it entry by entry, which
    takes about 0.5 us a reset from lists and 2 us from uint64 arrays.
    """
    try:
        return _thread.philox
    except AttributeError:
        key = [0, 0]
        state = {
            "bit_generator": "Philox",
            "state": {"counter": [0] * 4, "key": key},
            "buffer": [0] * 4,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        _thread.philox = (np.random.Generator(np.random.Philox(0)), key, state)
        return _thread.philox


def _carve(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive C-contiguous views of `flat`, one of each shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


def _fill_rows(seeds, out: np.ndarray, raw: bool = False) -> None:
    """Write row b of out from a fresh uniform_stream(seeds[b]).

    The row gets the stream's first doubles in [0, 1), or its first raw
    64-bit words if raw.  Each seed is taken modulo 2**64 here, the one
    place a row's seed becomes a Philox key.
    """
    gen, key, state = _thread_philox()
    bitgen = gen.bit_generator
    for seed, row in zip(seeds, out):
        key[0] = int(seed) & _MASK64
        bitgen.state = state
        if raw:
            row[:] = bitgen.random_raw(row.size)
        else:
            gen.random(out=row)


def uniform_bits_rows(seeds, n: int) -> np.ndarray:
    """(len(seeds), n) bits in {0, 1}: row b is uniform_stream(seeds[b]).integers(0, 2, n).

    Each row reads bit 31, then bit 63, of successive raw 64-bit Philox
    words, which is exactly what integers(0, 2, n) draws (see the module
    docstring).
    """
    words = np.empty((len(seeds), (n + 1) // 2), dtype=np.uint64)
    _fill_rows(seeds, words, raw=True)
    bits = (words[..., None] >> _BIT_SHIFTS) & np.uint64(1)
    return bits.reshape(len(seeds), 2 * words.shape[1])[:, :n].astype(np.int64)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


# processes drawing on this process's CPUs: 1, or a sweep pool's worker count
_drawing_processes = 1


def _share_cpus(processes: int) -> None:
    """Record that `processes` processes, this one among them, draw on this process's CPUs."""
    global _drawing_processes
    _drawing_processes = processes


def _helper_runs(size: int) -> bool:
    """Whether Box-Muller over `size` entries runs cos on a helper thread (see the module docstring)."""
    return size >= TRIG_THREAD_ENTRIES and _usable_cpus() > _drawing_processes


def _cos_all(angles, outs) -> None:
    for angle, out in zip(angles, outs):
        np.cos(angle, out=out)


def _check_variance(variance, rows: int = 1, name: str = "variance") -> None:
    """A variance is one finite float >= 0, or a 1-D array of one per row; a bool is none (ValueError naming it)."""
    if np.asarray(variance).dtype == bool:
        raise ValueError(f"{name} must be finite and >= 0, not a bool, got {variance!r}")
    v = np.asarray(variance, dtype=float)
    if v.ndim and v.shape != (rows,):
        raise ValueError(f"expected one {name} or one per row ({rows}), got shape {v.shape}")
    if not all(0.0 <= x < math.inf for x in v.flat):  # NaN fails both comparisons
        raise ValueError(f"{name} must be finite and >= 0, got {variance!r}")


def _box_muller(uniforms, variances) -> list[np.ndarray]:
    """sqrt(variance / 2) * (z0 + 1j z1) for the Box-Muller pairs (z0, z1) of each group.

    Group g is a C-contiguous (B, 2, n) array of uniforms in [0, 1): u[:, 0]
    feeds the radii, u[:, 1] the angles; its result is the same memory read
    as (B, n) complex, scaled by variances[g], one float or one per row.
    The radii are formed in place in u[:, 0] (mapped into (0, 1] so the
    logarithm stays finite), cos and sin go into the two halves of one
    fresh array, and the output is written over the uniforms once the
    radii and angles are dead.  If _helper_runs for the whole session,
    every group's cos runs on a helper thread, started and joined here,
    while this thread forms every group's radii and sines.
    """
    shapes = [(u.shape[0], u.shape[2]) for u in uniforms]
    size = sum(map(math.prod, shapes))
    trig = np.empty(2 * size)
    z0s, z1s = _carve(trig[:size], shapes), _carve(trig[size:], shapes)
    angles = [np.multiply(u[:, 1], 2.0 * np.pi, out=u[:, 1]) for u in uniforms]
    helper = None
    if _helper_runs(size):
        helper = threading.Thread(target=_cos_all, args=(angles, z0s))
        helper.start()
    try:
        radii = []
        for u in uniforms:
            radius = np.subtract(1.0, u[:, 0], out=u[:, 0])
            np.log(radius, out=radius)
            np.multiply(radius, -2.0, out=radius)
            radii.append(np.sqrt(radius, out=radius))
        if helper is None:
            _cos_all(angles, z0s)
        for angle, z1 in zip(angles, z1s):
            np.sin(angle, out=z1)
    finally:
        if helper is not None:
            helper.join()
    outs = []
    for u, z0, z1, radius, variance in zip(uniforms, z0s, z1s, radii, variances):
        z0 *= radius
        z1 *= radius
        out = u.reshape(u.shape[0], 2 * u.shape[2]).view(np.complex128)  # the uniforms are dead from here
        scale = np.sqrt(np.divide(variance, 2.0))
        if np.ndim(scale):  # one variance per row
            scale = scale[:, None]
        np.multiply(z0, scale, out=out.real)
        np.multiply(z1, scale, out=out.imag)
        outs.append(out)
    return outs


def complex_normal(gen: np.random.Generator, n: int, variance: float = 1.0) -> np.ndarray:
    """n circularly-symmetric complex Gaussians with per-entry variance `variance`.

    Each entry uses one Box-Muller pair, variance/2 per real dimension; the
    first n uniforms of the stream feed the radii, the next n the angles.
    A negative, non-finite or bool variance raises ValueError before any draw.
    """
    _check_variance(variance)
    return _unchecked_complex_normal(gen, n, variance)


def _unchecked_complex_normal(gen: np.random.Generator, n: int, variance) -> np.ndarray:
    """complex_normal's draw, for a caller that has already checked the variance."""
    return _box_muller([gen.random(2 * n).reshape(1, 2, n)], [variance])[0][0]


def _chunk_normals(groups, spare: int = 0) -> list[np.ndarray]:
    """One (len(seeds), n) array per (seeds, n, variance) group, one Box-Muller session in this thread's chunk buffer.

    A group's variance is one float or one per seed, and row b of the
    group is complex_normal(uniform_stream(seeds[b]), n, variance of row
    b).  With spare > 0 one more array follows the groups: `spare` complex
    entries of the buffer past the normals, holding no values, for a
    caller's work on the chunk (sim's channel products).  The arrays are
    views of the chunk buffer, so they hold their values only until this
    thread's next chunk; a caller must not return them.  A negative or
    non-finite variance, or a variance array that is not one per seed,
    raises ValueError before any draw.
    """
    for seeds, _, variance in groups:
        _check_variance(variance, len(seeds))
    shapes = [(len(seeds), 2, n) for seeds, n, _ in groups]
    floats = sum(map(math.prod, shapes))
    buf = getattr(_thread, "chunk", None)
    if buf is None or buf.size < floats + 2 * spare:  # so it grows to the largest chunk and then stays
        buf = _thread.chunk = np.empty(floats + 2 * spare)
    uniforms = _carve(buf[:floats], shapes)
    for (seeds, _, _), u in zip(groups, uniforms):
        _fill_rows(seeds, u)
    normals = _box_muller(uniforms, [variance for _, _, variance in groups])
    return normals + [buf[floats:floats + 2 * spare].view(np.complex128)] if spare else normals
