"""Property tests of the symmetric first-order rates over their whole domain.

Examples are derandomized, so every run draws the same inputs.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmrf.car import NoiseModel, sfcar_from_snr
from hgmrf.oracle import LatticeSpec, finite_lattice_rates
from hgmrf.physmap import PhysicalField
from hgmrf.rates import sfcar_rates, sfcar_rates_at_spacing

SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)

zetas = st.floats(0.0, 0.25, exclude_max=True)
log10_snrs = st.floats(-4.0, 5.0)
log10_alpha_ds = st.floats(-6.0, math.log10(50.0))


@SETTINGS
@given(zetas, log10_snrs)
def test_rates_at_zeta_converge_with_kli_below_mi(zeta, log10_snr):
    res = sfcar_rates(zeta, 10.0**log10_snr)
    assert res.converged
    assert 0.0 <= res.kli_rate <= res.mi_rate


@SETTINGS
@given(log10_alpha_ds, log10_snrs)
def test_rates_at_spacing_converge_with_kli_below_mi(log10_alpha_d, log10_snr):
    res = sfcar_rates_at_spacing(PhysicalField(1.0, 10.0**log10_alpha_d), 10.0**log10_snr)
    assert res.converged
    assert 0.0 <= res.kli_rate <= res.mi_rate


@SETTINGS
@given(st.floats(-150.0, -6.0), log10_snrs)
def test_rates_at_dense_spacing_converge_with_kli_below_mi(log10_alpha_d, log10_snr):
    # the peak at w1 = 0 narrows to ~1e-150 here; the w1 rule must reach it
    res = sfcar_rates_at_spacing(PhysicalField(1.0, 10.0**log10_alpha_d), 10.0**log10_snr)
    assert res.converged
    assert 0.0 <= res.kli_rate <= res.mi_rate


@SETTINGS
@given(zetas, log10_snrs, st.floats(1e-3, 2.0))
def test_rates_nondecreasing_in_snr(zeta, log10_snr, log10_step):
    # a step of at least 0.23% in SNR moves both rates far above rounding
    lower = sfcar_rates(zeta, 10.0**log10_snr)
    higher = sfcar_rates(zeta, 10.0 ** (log10_snr + log10_step))
    assert higher.kli_rate >= lower.kli_rate
    assert higher.mi_rate >= lower.mi_rate


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.floats(0.0, 0.2), log10_snrs)
def test_rates_match_torus_oracle(zeta, log10_snr):
    # for zeta <= 0.2 the torus eigenvalue sum at n = 1024 equals the
    # spectral integral to rounding (analytic periodic integrand)
    snr = 10.0**log10_snr
    noise = NoiseModel(sigma2=1.0)
    torus = finite_lattice_rates(sfcar_from_snr(snr, zeta, noise), noise, LatticeSpec(n=1024))
    res = sfcar_rates(zeta, snr)
    assert res.kli_rate == pytest.approx(torus.kli_rate, rel=1e-9, abs=0.0)
    assert res.mi_rate == pytest.approx(torus.mi_rate, rel=1e-9, abs=0.0)
