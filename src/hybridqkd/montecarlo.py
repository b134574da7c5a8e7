"""Pulse-level stochastic BB84 simulation, the oracle for the analytic pipeline.

Event model per pulse: draw a photon number k from the source distribution,
thin each photon through the channel with survival probability eta, draw a
dark count with probability y0. A click is at least one surviving photon or
a dark count. Clicks are sifted with an unbiased coin; a sifted click errs
with probability e_d when only a photon arrived, e0 when only a dark count
fired and e_d + e0 when both did, so errors have the mean e0 y0 + e_d A of
``channel.totals`` (the convention of Ma, Qi, Zhao and Lo, PRA 72, 012326).

The sampler spends work only where a click can happen. Most pulses are
vacuum and dark counts are rare, so the pulses that emit (k >= 1) and the
pulses with a dark count are each drawn as the successes of a Bernoulli
process, from geometric gaps between successes; that is the law of one
independent coin per pulse. Emitting pulses draw k from the source
distribution conditioned on k >= 1. A photon arrives when the first
survivor among the k photons exists, i.e. a Geometric(eta) draw is at most
k, which has probability 1 - (1 - eta)^k, the binomial-thinning law of
"at least one survivor". One uniform w per click gives both coins:
sifted is w < 1/2 and an error is w < err_p / 2, so P(sifted) = 1/2 and
P(error | sifted) = err_p, the joint law of two independent coins.

Pulses are processed in blocks of 2^20, each with its own counter-based
substream (Philox keyed through SeedSequence spawn keys), so tallies are
bit-identical for a fixed seed regardless of how blocks are executed.
Within a block the draws come in a fixed order: the emission gaps, one
uniform per emission for k, one Geometric(eta) per emission, the dark-count
gaps, and one uniform per click, photon clicks first. The k, arrival and
click draws are taken in chunks of ``CHUNK``. A Generator fills an array one
element after another and Philox keeps its buffered outputs in its state
between calls, so n draws taken in chunks are the n draws of one call, and
the chunk size does not change the stream. A block keeps only the emitting
positions (int64), k - 1 (uint8 while k stays below 256) and an arrival
mask: about 10 bytes per emitting pulse, plus one chunk of draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DetectorModel
from .errors import DomainError
from .photon_stats import PhotonNumberDistribution, multiphoton_probability
from .security import _bound_terms

BLOCK_SIZE = 1 << 20
# Draws per call within a block: the size of the per-chunk temporaries.
CHUNK = 1 << 15
# Largest accepted n_pulses. One core simulates about 150 Mpulses/s over
# the benchmark's montecarlo-cells (0 to 20 dB) and 70 Mpulses/s at 0 dB and
# mu = 0.269, where a quarter of the pulses emit (Xeon, numpy 2.4), so this is
# two to four hours of simulation; anything larger is a typo, not a run.
MAX_PULSES = 10**12


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run: source, channel transmissivity, detector, seed."""

    n_pulses: int
    seed: int
    dist: PhotonNumberDistribution
    eta: float
    det: DetectorModel

    def __post_init__(self):
        if not 1 <= self.n_pulses <= MAX_PULSES:
            raise DomainError(f"n_pulses must be in [1, {MAX_PULSES:.0e}], got {self.n_pulses!r}")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise DomainError(f"transmissivity must be in [0, 1], got {self.eta!r}")


@dataclass(frozen=True)
class SimTally:
    """Counts and binomial estimators from one simulation."""

    n_pulses: int
    n_clicks: int
    n_sifted: int
    n_errors: int
    q_tot_hat: float
    e_tot_hat: float
    stderr_q: float
    stderr_e: float


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.Philox(seq))


def _bernoulli_positions(rng: np.random.Generator, p: float, size: int) -> np.ndarray:
    """Sorted indices of the successes among ``size`` independent Bernoulli(p) trials.

    The gaps between successive successes are i.i.d. Geometric(p), so summing
    gaps until they pass the end of the block samples the same law as one coin
    per trial, with work proportional to the number of successes.
    """
    if p <= 0.0:
        return np.empty(0, dtype=np.int64)
    p = min(p, 1.0)  # rounding in a CDF tail can put p just above 1
    chunks = []
    last = -1  # index of the latest success drawn so far
    while last < size - 1:
        mean = (size - 1 - last) * p
        count = int(mean + 6.0 * math.sqrt(mean * (1.0 - p)) + 1.0)
        positions = rng.geometric(p, count)
        np.cumsum(positions, out=positions)
        positions += last
        chunks.append(positions)
        last = int(positions[-1])
    positions = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return positions[: np.searchsorted(positions, size)]


def _photon_hits(
    rng: np.random.Generator, probs: np.ndarray, eta: float, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one block's emissions: pulse indices, photon numbers minus one,
    arrival flags.

    Pulses with k >= 1 photons are the successes of Bernoulli(1 - p0) trials;
    each draws k from ``probs[1:] / (1 - p0)``. At least one of k photons
    survives exactly when the first survivor's index, Geometric(eta), is <= k.
    """
    tail = np.cumsum(probs[1:])
    p_emit = float(tail[-1])
    emitting = _bernoulli_positions(rng, p_emit, size)
    cdf = tail / p_emit if p_emit > 0.0 else tail
    cdf[-1] = 1.0  # guard float shortfall so sampling never runs past the vector
    extra = _extra_photons(rng, cdf, emitting.size)
    return emitting, extra, _arrivals(rng, eta, extra)


def _extra_photons(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    """k - 1 for n emissions, k drawn by inverting the conditional CDF over
    k >= 1, in an unsigned type that also holds k."""
    extra = np.zeros(n, dtype=np.min_scalar_type(cdf.size))
    buf = np.empty(min(n, CHUNK))  # every chunk's uniforms, so no two chunks coexist
    for start in range(0, n, CHUNK):
        u = rng.random(out=buf[: n - start])
        multi = u >= cdf[0]  # k >= 2: rare, so only these go through searchsorted
        extra[start : start + u.size][multi] = np.searchsorted(cdf, u[multi], side="right")
    return extra


def _arrivals(rng: np.random.Generator, eta: float, extra: np.ndarray) -> np.ndarray:
    """Whether some photon of each emission arrives: the first survivor's
    index, Geometric(eta), is at most k."""
    if eta >= 1.0:
        return np.ones(extra.size, dtype=bool)
    if eta <= 0.0:
        return np.zeros(extra.size, dtype=bool)
    arrived = np.empty(extra.size, dtype=bool)
    for start in range(0, extra.size, CHUNK):
        chunk = slice(start, start + CHUNK)
        k = extra[chunk] + 1
        np.less_equal(rng.geometric(eta, k.size), k, out=arrived[chunk])
    return arrived


def _block_counts(rng: np.random.Generator, config: SimConfig, size: int) -> tuple[int, int, int]:
    """Clicks, sifted clicks and errors among one block of ``size`` pulses.

    A function of its own, so that none of the block's arrays outlives it.
    Photon clicks are counted in place in the arrival mask, never copied out.
    """
    det = config.det
    emitting, _, arrived = _photon_hits(rng, config.dist.probs, config.eta, size)
    dark = _bernoulli_positions(rng, det.y0, size)
    both = dark[:0]  # emitting indices of the photon clicks that a dark count joins
    if emitting.size and dark.size:
        at = np.minimum(np.searchsorted(emitting, dark), emitting.size - 1)
        both = at[(emitting[at] == dark) & arrived[at]]
    n_alone = dark.size - both.size
    # one uniform per click, photon clicks first: sifted when w < 1/2, an error
    # when w < err_p / 2
    sifted = errors = 0
    buf = np.empty(CHUNK)  # every chunk's uniforms, so no two chunks coexist
    for start in range(0, emitting.size, CHUNK):
        hit = arrived[start : start + CHUNK]
        w = rng.random(out=buf[: np.count_nonzero(hit)])
        sifted += int(np.count_nonzero(w < 0.5))
        errors += int(np.count_nonzero(w < 0.5 * det.e_d))
        lo, hi = np.searchsorted(both, (start, start + CHUNK))
        if hi > lo:  # err_p = e_d + e0: add w in [e_d / 2, (e_d + e0) / 2)
            joined = np.zeros(hit.size, dtype=bool)
            joined[both[lo:hi] - start] = True
            w_both = w[joined[hit]]
            band = (w_both >= 0.5 * det.e_d) & (w_both < 0.5 * (det.e_d + det.e0))
            errors += int(np.count_nonzero(band))
    for start in range(0, n_alone, CHUNK):
        w = rng.random(out=buf[: n_alone - start])
        sifted += int(np.count_nonzero(w < 0.5))
        errors += int(np.count_nonzero(w < 0.5 * det.e0))
    return int(np.count_nonzero(arrived)) + n_alone, sifted, errors


def simulate(config: SimConfig) -> SimTally:
    """Run the pulse-level simulation and tally clicks, sifted events, errors."""
    n_clicks = n_sifted = n_errors = 0
    n_blocks = (config.n_pulses + BLOCK_SIZE - 1) // BLOCK_SIZE
    for block in range(n_blocks):
        size = min(BLOCK_SIZE, config.n_pulses - block * BLOCK_SIZE)
        clicks, sifted, errors = _block_counts(_block_rng(config.seed, block), config, size)
        n_clicks += clicks
        n_sifted += sifted
        n_errors += errors
    n = config.n_pulses
    q_hat = n_clicks / n
    stderr_q = math.sqrt(q_hat * (1.0 - q_hat) / n)
    if n_sifted > 0:
        e_hat = n_errors / n_sifted
        stderr_e = math.sqrt(e_hat * (1.0 - e_hat) / n_sifted)
    else:
        e_hat = 0.0
        stderr_e = 0.0
    return SimTally(n, n_clicks, n_sifted, n_errors, q_hat, e_hat, stderr_q, stderr_e)


def empirical_skr(
    tally: SimTally, det: DetectorModel, dist: PhotonNumberDistribution
) -> float:
    """SKR bound from simulated totals and the exact multiphoton probability.

    Matches the analytic bound within statistical error; regimes where the
    bound is meaningless (no single-photon gain, conditional error >= 1/2)
    are clamped to zero.
    """
    if tally.n_clicks == 0:
        raise DomainError("no clicks recorded: key rate is undefined")
    p_m = multiphoton_probability(dist)
    skr, _, clamped = _bound_terms(tally.q_tot_hat, tally.e_tot_hat, p_m, det.f_ec)
    if clamped:
        return 0.0
    return skr
