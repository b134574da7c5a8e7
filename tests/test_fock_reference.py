"""Closed forms of the photon-number model against explicit Fock sums.

The analytic code never sums over the Poisson tail: totals, multiphoton
probability, moments and loss are closed forms for a finite Fock part
convolved with Poisson statistics. The sums written out below, over the
materialized vector ``dist.probs``, are the reference they must match.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridqkd import (
    DetectorModel,
    DomainError,
    PhotonNumberDistribution,
    QdSourceParams,
    apply_loss,
    g2_of,
    hybrid_distribution,
    mean_photon_number,
    multiphoton_probability,
    qd_distribution,
    totals,
)
from hybridqkd.photon_stats import MU_MAX, POISSON_TAIL, single_photon_probability

REL = 1e-12
# The reference vector cuts its Poisson tail at mass 1e-13, but never below
# 20 photons; weighted by k(k - 1), that tail moves its g2 by up to 6.1e-12
# relative (at mu = 2.32, where the 20-photon floor binds).
REL_G2 = 1e-11
# Step of the central difference in mu.
H = 1e-5
DET = DetectorModel(e_d=0.008, y0=196 / 81.96e6)

sources = st.builds(
    lambda b, g2, mu: hybrid_distribution(qd_distribution(QdSourceParams(b, g2)), mu),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.5, exclude_max=True),
    st.floats(0.0, MU_MAX),
)
transmissivities = st.floats(0.0, 1.0)


def photon_numbers(dist):
    return np.arange(dist.probs.size)


def arrival(eta, ks):
    """1 - (1 - eta)^k for each k, without cancellation at small eta."""
    if eta == 1.0:
        return (ks > 0).astype(float)
    return -np.expm1(ks * np.log1p(-eta))


@settings(max_examples=300, deadline=None)
@given(sources, transmissivities)
def test_totals(dist, eta):
    a = arrival(eta, photon_numbers(dist))
    q_ref = dist.probs @ (DET.y0 + (1.0 - DET.y0) * a)
    err_ref = dist.probs @ (DET.e0 * DET.y0 + DET.e_d * a)
    q_tot, e_tot = totals(dist, eta, DET)
    assert q_tot == pytest.approx(q_ref, rel=REL)
    assert e_tot * q_tot == pytest.approx(err_ref, rel=REL)


@settings(max_examples=300, deadline=None)
@given(sources)
def test_multiphoton_probability(dist):
    assert multiphoton_probability(dist) == pytest.approx(dist.probs[2:].sum(), rel=REL)


@settings(max_examples=300, deadline=None)
@given(sources)
def test_single_photon_probability(dist):
    assert single_photon_probability(dist) == pytest.approx(dist.probs[1], rel=REL)


@settings(max_examples=300, deadline=None)
@given(sources)
def test_multiphoton_slope_is_single_photon_probability(dist):
    # dp_m/dmu = p1, which the optimizer's closed-form slope relies on. A
    # central difference with step H is good to about H^2 + 1e-16 / H.
    mu = min(max(dist.mu, H), MU_MAX - H)
    p_m = [multiphoton_probability(PhotonNumberDistribution(dist.f, m)) for m in (mu - H, mu + H)]
    p1 = single_photon_probability(PhotonNumberDistribution(dist.f, mu))
    assert (p_m[1] - p_m[0]) / (2.0 * H) == pytest.approx(p1, rel=1e-6, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(sources)
def test_moments(dist):
    ks = photon_numbers(dist)
    mean = ks @ dist.probs
    assert mean_photon_number(dist) == pytest.approx(mean, rel=REL)
    if mean == 0.0:
        with pytest.raises(DomainError):
            g2_of(dist)
    elif mean < 1e-100:  # the reference's k(k - 1) sum underflows here
        assert math.isfinite(g2_of(dist))
    else:
        g2_ref = (ks * (ks - 1.0)) @ dist.probs / mean**2
        assert g2_of(dist) == pytest.approx(g2_ref, rel=REL_G2)


@settings(max_examples=100, deadline=None)
@given(sources, transmissivities)
def test_apply_loss(dist, eta):
    # The two vectors cut their Poisson tails at different photon numbers, so
    # entries as small as the cut mass can only agree to that mass.
    ks = photon_numbers(dist)
    thin = np.array(
        [[math.comb(k, j) * eta**j * (1.0 - eta) ** (k - j) if j <= k else 0.0 for k in ks]
         for j in ks]
    )
    want = thin @ dist.probs
    got = apply_loss(dist, eta).probs
    n = max(want.size, got.size)
    want, got = np.pad(want, (0, n - want.size)), np.pad(got, (0, n - got.size))
    np.testing.assert_allclose(got, want, rtol=REL, atol=POISSON_TAIL)
