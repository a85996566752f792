"""Pure helpers of the repository benchmark: seeded inputs, the
percentile rule, the cell and byte formulas and the metric-name check.

Nothing here starts a process or reads a clock, so perfbench/test_metrics.py
can pin every rule down without building the compiler.
"""

import json
import math
import random
import re

# ---------------------------------------------------------------------------
# Percentiles

# The candidates, lowest first. A run reports its median plus the highest
# of these that still has at least MIN_BEYOND samples above it.
PERCENTILES = (50, 90, 99, 99.9)
MIN_BEYOND = 10


def rank(n, p):
    """Nearest-rank position (1-based) of percentile p among n samples."""
    return max(1, math.ceil(p * n / 100.0))


def samples_beyond(n, p):
    """How many of n sorted samples lie strictly above percentile p."""
    return n - rank(n, p)


def tail_percentile(n):
    """The highest percentile with at least MIN_BEYOND samples beyond it,
    or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def min_samples(p):
    """The smallest sample count for which percentile p is reportable."""
    n = 1
    while samples_beyond(n, p) < MIN_BEYOND:
        n += 1
    return n


def percentile(values, p):
    """Nearest-rank percentile of values (p in 0..100]."""
    s = sorted(values)
    return s[rank(len(s), p) - 1]


def median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


# ---------------------------------------------------------------------------
# Metric names

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def valid_metric_name(name):
    return bool(NAME_RE.match(name))


# ---------------------------------------------------------------------------
# Programs: the five Fsc_driver.Benchmarks generators

GENERATORS = ("gauss_seidel", "pw_advection", "laplace", "residual", "smooth")


def interior(gen, dims):
    """Interior cells of one sweep: the product of the extents (the 2-D
    Laplace generator takes one extent for both dimensions)."""
    return dims[0] * dims[0] if gen == "laplace" else math.prod(dims)


def cells(gen, dims, niter):
    """Cell updates of one program run: every interior cell once per
    iteration (the copy-back of a two-array sweep is part of the update)."""
    return interior(gen, dims) * niter


# 8-byte streams per interior cell per iteration, summed over the nests of
# one iteration: each nest reads every distinct array it touches once and
# writes its target once (neighbour reads hit cache, no write-allocate).
#   gauss_seidel / laplace: sweep (u -> unew: 2) + copy-back (unew -> u: 2)
#   pw_advection: three nests, each reads u, v, w and writes one of su/sv/sw
#   residual: r = f(u) (2); the edge probe touches nx cells of u, r, u (3)
#   smooth: rs = f(u) (2) + d = f(rs, u) (3)
STREAMS = {
    "gauss_seidel": 4,
    "laplace": 4,
    "pw_advection": 12,
    "residual": 2,
    "smooth": 5,
}


def computed_bytes(gen, dims, niter):
    """Bytes one program run moves, computed from its array sizes (not
    measured): streams x 8 bytes x interior cells x iterations."""
    per_iter = STREAMS[gen] * 8 * interior(gen, dims)
    if gen == "residual":
        per_iter += 3 * 8 * dims[0]
    return per_iter * niter


# ---------------------------------------------------------------------------
# Seeded inputs


def _draw_dims(rng, gen):
    if gen == "laplace":
        return [rng.randint(8, 64)]
    return [rng.randint(4, 14) for _ in range(3)]


def program_specs(seed, count, prefix="p", start=0):
    """count distinct small programs drawn from the seed: each names a
    generator, extents no other program of the stream shares (so every
    program emits different kernel bodies) and an iteration count.
    Programs start..start+count-1 of the stream; the stream is the same
    for every start, so it can be drawn in chunks."""
    rng = random.Random(seed)
    seen = set()
    out = []
    i = 0
    while len(out) < count:
        gen = GENERATORS[rng.randrange(len(GENERATORS))]
        dims = _draw_dims(rng, gen)
        niter = rng.randint(1, 3)
        if (gen, tuple(dims)) in seen:
            continue
        seen.add((gen, tuple(dims)))
        if i >= start:
            out.append({"name": "%s%05d" % (prefix, i), "gen": gen,
                        "dims": dims, "niter": niter})
        i += 1
    return out


# serve-mix: target and action weights of one job
SERVE_TARGETS = (("serial", 35), ("openmp", 25), ("gpu-optimised", 20),
                 ("dist", 20))
SERVE_FRESH_ONE_IN = 4
SERVE_COMPILE_ONE_IN = 8
BATCH = 8


def _weighted(rng, table):
    total = sum(w for _, w in table)
    x = rng.randrange(total)
    for name, w in table:
        if x < w:
            return name
        x -= w
    raise AssertionError("unreachable")


def serve_jobs(seed, client, count, bases):
    """The job stream of one serve-mix client: count jobs over the base
    programs (bases: list of (name, source)). About three in four jobs
    repeat a base program; the rest append a seeded comment line to one,
    which gives a fresh cache key (a full compile and a cache write) with
    the same reference checksums. Returns (line, base name, fresh?,
    action, target) tuples; the line is the exact JSON sent."""
    rng = random.Random("%d/%s" % (seed, client))
    jobs = []
    for k in range(count):
        base, src = bases[rng.randrange(len(bases))]
        fresh = rng.randrange(SERVE_FRESH_ONE_IN) == 0
        if fresh:
            src = src + "! fresh %d %s %d %d\n" % (seed, client, k,
                                                   rng.randrange(1 << 30))
        action = "compile" if rng.randrange(SERVE_COMPILE_ONE_IN) == 0 \
            else "run"
        target = _weighted(rng, SERVE_TARGETS)
        line = json.dumps({"id": k, "client": client, "action": action,
                           "target": target, "source": src},
                          sort_keys=True)
        jobs.append((line, base, fresh, action, target))
    return jobs
