import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecswerner import entanglement, verify, werner
from ecswerner.catstates import ALPHA2_MIN, StateFamily, cat_params
from ecswerner.discord import discord_profile, discord_quasi_closed, werner_discord_closed
from ecswerner.entanglement import _closed_concurrence, concurrence_mixed
from ecswerner.qmatrix import eigvals_hermitian, partial_trace


def nan_like(real):
    """A stand-in for real that returns its result with every value NaN."""

    def fn(*args, **kwargs):
        return np.full(np.shape(real(*args, **kwargs)), math.nan)

    return fn


@pytest.mark.parametrize(
    "check",
    [
        verify.check_quasi_discord,
        verify.check_plus_family_equality,
        verify.check_werner_discord,
        verify.check_werner_basis_independence,
        verify.check_zurek,
        verify.check_nonnegativity,
    ],
)
def test_nan_discord_fails_the_check(monkeypatch, check):
    # a NaN deviation is reported as NaN and fails, where max(0.0, nan) would
    # read 0 and pass
    monkeypatch.setattr(verify, "discord_profile", nan_like(verify.discord_profile))
    result = check()
    assert math.isnan(result.deviation)
    assert not result.passed
    assert result.line().endswith("FAIL")


def test_nan_closed_form_fails_the_large_alpha_check(monkeypatch):
    # NaN from the second angle on, after a finite first column
    real = verify.discord_quasi_closed

    def closed(a, p, theta):
        value = real(a, p, theta)
        value[:, 1:] = math.nan
        return value

    monkeypatch.setattr(verify, "discord_quasi_closed", closed)
    result = verify.check_large_alpha_collapse()
    assert math.isnan(result.deviation) and not result.passed


def test_nan_spectrum_fails_the_psd_check(monkeypatch):
    monkeypatch.setattr(verify, "eigvals_hermitian", nan_like(verify.eigvals_hermitian))
    result = verify.check_psd()
    assert math.isnan(result.deviation) and not result.passed


def test_nan_lambdas_show_in_the_convention_note(monkeypatch):
    monkeypatch.setattr(verify, "_closed_lambdas", nan_like(verify._closed_lambdas))
    bracket_note = verify.convention_notes()[1]
    assert "reading max dev nan (kept)" in bracket_note
    assert "reading max dev nan (rejected)" not in bracket_note


def test_worst_matches_max_without_nan():
    # the same bits as max(), the first of equal values included
    for values in ([0.0, -0.0], [-0.0, 0.0], [0.0, -1e-17], [3e-16, 1e-15, 2e-16]):
        assert verify._worst(values).hex() == max(values).hex()
    assert math.isnan(verify._worst([0.0, math.nan, 1.0]))


def test_verify_makes_one_stacked_pipeline_call_per_check(monkeypatch):
    # one discord_profile call per check and one per phase of the
    # basis-independence check: 8 in all; the closed side takes whole
    # arrays, never one WernerSpec at a time
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(verify, "discord_profile")
    for module, name in [
        (werner, "spectrum_closed"),
        (werner, "wootters_lambdas_closed"),
        (entanglement, "concurrence_closed"),
    ]:
        count(module, name)
        if hasattr(verify, name):
            count(verify, name)
    verify.run_verification()
    assert calls == {"discord_profile": 8}


# |alpha|^2 log-uniform in [ALPHA2_MIN, 400], and a in [0, 1], each with both ends
mean_photons = st.one_of(
    st.sampled_from([ALPHA2_MIN, 400.0]),
    st.floats(math.log(ALPHA2_MIN), math.log(400.0)).map(lambda x: min(max(math.exp(x), ALPHA2_MIN), 400.0)),
)
mixings = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(StateFamily), mean_photons, mixings, st.floats(-math.pi, math.pi))
def test_closed_forms_match_the_pipeline_off_the_verify_grid(family, mean_photon, a, theta):
    # the core invariant at any point, under the tolerances of the matching verify checks
    p = cat_params(mean_photon)
    rhos = werner.werner_stack(family, np.array([a]), p)
    piped = discord_profile(rhos, [theta])[0, 0]
    if family.maximally_entangled:
        closed = werner_discord_closed(a)
    else:
        closed = discord_quasi_closed(a, p, theta)
    assert abs(closed - piped) < 1e-9
    assert piped >= -1e-9
    (res,) = concurrence_mixed(rhos)
    assert abs(res.concurrence - _closed_concurrence(family, a, p)) < 1e-9
    assert np.max(np.abs(res.lambdas - werner._closed_lambdas(family, a, p))) < 1e-9
    spectra, joint = werner._closed_spectra(family, a, p), eigvals_hermitian(rhos)[0]
    assert np.max(np.abs(joint - spectra.joint)) < 1e-10
    assert joint[-1] > -1e-12
    assert np.max(np.abs(eigvals_hermitian(partial_trace(rhos, "Y"))[0] - spectra.reduced_y)) < 1e-10
