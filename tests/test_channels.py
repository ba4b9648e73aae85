"""Channel generation, the ZF-DPC cascade, rates and JSON round trips."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehsched import (
    ChannelSet,
    CovarianceSet,
    UserConfig,
    WaterSystem,
    channelset_from_json,
    channelset_to_json,
    decompose_zf_dpc,
    generate_channels,
    weighted_rate,
)
from ehsched.channels import RANK_EPS, ZF_RTOL

from conftest import orthogonal_pair_channelset, two_mode_channelset


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def test_generate_channels_reproducible_and_shaped():
    users = (UserConfig(2), UserConfig(1, gamma=2.0))
    a = generate_channels(4, users, seed=7)
    b = generate_channels(4, users, seed=7)
    c = generate_channels(4, users, seed=8)
    assert a.H[0].shape == (2, 4) and a.H[1].shape == (1, 4)
    for ha, hb in zip(a.H, b.H):
        np.testing.assert_array_equal(ha, hb)
    assert not np.array_equal(a.H[0], c.H[0])
    assert a.seed == 7


def test_generate_channels_unit_average_gain():
    # E|h|^2 = 1 per entry; 20k samples put the sample mean within a few %.
    chans = generate_channels(50, (UserConfig(n=20),), seed=123)
    mean_sq = float(np.mean(np.abs(chans.H[0]) ** 2))
    assert abs(mean_sq - 1.0) < 0.05


def test_generate_channels_validation():
    with pytest.raises(ValueError):
        generate_channels(0, (UserConfig(1),), seed=1)
    with pytest.raises(ValueError):
        generate_channels(2, (), seed=1)
    with pytest.raises(ValueError):
        generate_channels(2, (UserConfig(1),))  # neither seed nor rng
    with pytest.raises(ValueError):
        UserConfig(0)
    with pytest.raises(ValueError):
        UserConfig(1, gamma=0.0)
    with pytest.raises(ValueError):
        ChannelSet(M=2, users=(UserConfig(1),), H=(np.zeros((2, 2)),))
    with pytest.raises(ValueError, match="one channel matrix per user is required"):
        ChannelSet(M=2, users=(UserConfig(1), UserConfig(1)), H=(np.zeros((1, 2)),))


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


def _assert_valid_decomposition(chans, eff):
    rows = 0
    for k, u in enumerate(chans.users):
        B, L = eff.B[k], eff.L[k]
        # Orthonormal transmit basis.
        np.testing.assert_allclose(
            B.conj().T @ B, np.eye(B.shape[1]), atol=1e-12
        )
        # Earlier users see nothing of user k's subspace.
        for j in range(k):
            resid = np.linalg.norm(chans.H[j] @ B)
            assert resid <= ZF_RTOL * np.linalg.norm(chans.H[j]) * np.linalg.norm(B)
        # L is lower-triangular with a positive real diagonal and
        # reproduces the effective channel's Gram matrix.
        assert np.allclose(L, np.tril(L))
        d = np.diagonal(L)
        assert np.all(d.real > 0.0) and np.all(np.abs(d.imag) <= 1e-12 * d.real)
        effk = chans.H[k] @ B
        np.testing.assert_allclose(
            effk @ effk.conj().T, L @ L.conj().T, atol=1e-10
        )
        # Eigenvalues: positive, descending, consistent with L.
        lam = eff.lam[k]
        assert np.all(lam > RANK_EPS)
        assert np.all(np.diff(lam) <= 1e-12)
        np.testing.assert_allclose(
            np.sort(lam), np.linalg.eigvalsh(L @ L.conj().T), rtol=1e-10
        )
        rows += u.n


def test_decompose_known_channels():
    chans = orthogonal_pair_channelset()
    eff = decompose_zf_dpc(chans)
    _assert_valid_decomposition(chans, eff)
    np.testing.assert_allclose(eff.lam[0], [1.0])
    np.testing.assert_allclose(eff.lam[1], [1.0])

    chans2 = two_mode_channelset()
    eff2 = decompose_zf_dpc(chans2)
    np.testing.assert_allclose(eff2.lam[0], [4.0, 1.0])


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_decompose_random_channels(seed):
    users = (UserConfig(2, gamma=1.5), UserConfig(1), UserConfig(1, gamma=0.5))
    chans = generate_channels(5, users, seed=seed)
    try:
        eff = decompose_zf_dpc(chans)
    except ValueError:
        return  # a degenerate draw is a legitimate rejection
    _assert_valid_decomposition(chans, eff)
    assert eff.num_users == 3
    np.testing.assert_array_equal(eff.gammas, [1.5, 1.0, 0.5])


def test_decompose_rejects_insufficient_antennas():
    chans = generate_channels(2, (UserConfig(2), UserConfig(1)), seed=3)
    with pytest.raises(ValueError, match="need M"):
        decompose_zf_dpc(chans)


def test_decompose_rejects_rank_deficiency():
    h = np.array([[1.0 + 0.0j, 1.0 + 0.0j]])
    chans = ChannelSet(
        M=2, users=(UserConfig(1), UserConfig(1)), H=(h, h.copy())
    )
    # User 1 lives in the null space of user 0's identical channel, so its
    # effective channel vanishes.
    with pytest.raises(ValueError):
        decompose_zf_dpc(chans)


# ---------------------------------------------------------------------------
# Rates
# ---------------------------------------------------------------------------


def test_weighted_rate_closed_form():
    # Orthogonal unit channels with weights (1, 2) and scalar covariances
    # (1, 3): 1*ln(2) + 2*ln(4) = 5 ln 2.
    eff = decompose_zf_dpc(orthogonal_pair_channelset(1.0, 2.0))
    covs = CovarianceSet(
        (np.array([[1.0 + 0.0j]]), np.array([[3.0 + 0.0j]]))
    )
    assert weighted_rate(eff, covs) == pytest.approx(5.0 * math.log(2.0), rel=1e-12)
    assert covs.total_power() == pytest.approx(4.0)


def test_weighted_rate_rejects_bad_covariances(pair_eff):
    with pytest.raises(ValueError, match="one covariance per user"):
        weighted_rate(pair_eff, CovarianceSet((np.eye(1),)))
    bad_shape = CovarianceSet((np.eye(2), np.eye(1)))
    with pytest.raises(ValueError, match="shape"):
        weighted_rate(pair_eff, bad_shape)
    not_psd = CovarianceSet((np.array([[-1.0]]), np.eye(1)))
    with pytest.raises(ValueError, match="PSD"):
        weighted_rate(pair_eff, not_psd)
    not_herm = CovarianceSet(
        (np.array([[1.0 + 1.0j]]), np.eye(1))
    )
    with pytest.raises(ValueError, match="Hermitian"):
        weighted_rate(pair_eff, not_herm)


def test_covarianceset_helpers(pair_eff):
    z = WaterSystem(pair_eff).covariances(0.0)
    assert z.total_power() == 0.0
    assert all(p.shape == (1, 1) for p in z.Phi)
    s = CovarianceSet((np.eye(1), 2.0 * np.eye(1))).scaled(3.0)
    assert s.total_power() == pytest.approx(9.0)


def test_weighted_rate_on_a_stack_matches_per_epoch_calls():
    """One batched call over an epoch stack equals one call per epoch bit
    for bit; per-epoch power and scaling follow the leading axis."""
    users = (UserConfig(n=2, gamma=1.0), UserConfig(n=1, gamma=1.7))
    eff = decompose_zf_dpc(generate_channels(4, users, seed=7))
    power = np.array([0.0, 0.3, 2.0, 9.0, 0.05])
    covs = WaterSystem(eff).covariances(power)
    assert [P.shape for P in covs.Phi] == [(5, 2, 2), (5, 1, 1)]
    rates = weighted_rate(eff, covs)
    assert rates.shape == power.shape
    for i in range(power.size):
        one = CovarianceSet(tuple(P[i] for P in covs.Phi))
        assert rates[i] == weighted_rate(eff, one)
        assert covs.total_power()[i] == one.total_power()
    tau = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    np.testing.assert_allclose(covs.scaled(tau).total_power(), tau * power, rtol=1e-12, atol=1e-15)


def test_weighted_rate_rejects_one_bad_epoch_in_a_stack(pair_eff):
    good = np.ones((3, 1, 1), dtype=complex)
    not_psd = good.copy()
    not_psd[1] = -1.0
    with pytest.raises(ValueError, match="PSD"):
        weighted_rate(pair_eff, CovarianceSet((not_psd, good)))
    not_herm = good.copy()
    not_herm[2] = 1.0 + 1.0j
    with pytest.raises(ValueError, match="Hermitian"):
        weighted_rate(pair_eff, CovarianceSet((good, not_herm)))
    with pytest.raises(ValueError, match="shape"):
        weighted_rate(pair_eff, CovarianceSet((good, np.ones((3, 2, 2)))))


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def test_json_round_trip_seed_form():
    chans = generate_channels(3, (UserConfig(1), UserConfig(2, gamma=0.7)), seed=99)
    doc = channelset_to_json(chans)
    assert doc["seed"] == 99 and "H" not in doc
    back = channelset_from_json(json.dumps(doc))
    for ha, hb in zip(chans.H, back.H):
        np.testing.assert_array_equal(ha, hb)


def test_json_round_trip_explicit_form():
    chans = orthogonal_pair_channelset(1.0, 2.0)
    doc = channelset_to_json(chans)
    assert "H" in doc and "seed" not in doc
    back = channelset_from_json(doc)
    for ha, hb in zip(chans.H, back.H):
        np.testing.assert_allclose(ha, hb)
    assert back.users[1].gamma == 2.0


def test_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        channelset_from_json({"users": [{"n": 1}]})  # no M
    with pytest.raises(ValueError):
        channelset_from_json({"M": 2, "users": [{"n": 1}]})  # no seed or H
    with pytest.raises(ValueError):
        channelset_from_json(
            {"M": 2, "users": [{"n": 1}], "H": [[[[0.0, 0.0]]]]}
        )  # 1x1 matrix against M=2
    with pytest.raises(ValueError, match="one explicit matrix per user"):
        channelset_from_json(
            {"M": 1, "users": [{"n": 1}], "H": [[[[1.0, 0.0]]], [[[2.0, 0.0]]]]}
        )  # a surplus matrix
    for entry in ([1.0], [1.0, 0.0, 2.0], 1.0):
        with pytest.raises(ValueError, match=r"\[re, im\] pair"):
            channelset_from_json({"M": 1, "users": [{"n": 1}], "H": [[[entry]]]})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_channel_set_rejects_non_finite_matrices(bad):
    H = np.array([[1.0 + 0.5j, bad]])
    with pytest.raises(ValueError, match="must be finite"):
        ChannelSet(M=2, users=(UserConfig(1),), H=(H,))
    doc = {"M": 2, "users": [{"n": 1}], "H": [[[[1.0, 0.5], [bad.real, bad.imag]]]]}
    with pytest.raises(ValueError, match="must be finite"):
        channelset_from_json(json.dumps(doc))


_SEEDED = {"M": 2, "users": [{"n": 1, "gamma": 1.0}], "seed": 3}


def _with(field, value):
    doc = json.loads(json.dumps(_SEEDED))
    if field == "n":
        doc["users"][0]["n"] = value
    else:
        doc[field] = value
    return doc


@pytest.mark.parametrize("field", ["M", "n", "seed"])
@pytest.mark.parametrize("value", [2.9, True, "2", None, math.inf])
def test_json_rejects_non_integral_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        channelset_from_json(_with(field, value))


_EXPLICIT = {"M": 1, "users": [{"n": 1, "gamma": 1.0}], "H": [[[[1.0, 0.0]]]]}


@pytest.mark.parametrize("field", ["gamma", "H-re", "H-im"])
@pytest.mark.parametrize("value", [True, "1.0"])
def test_json_rejects_real_fields_that_are_not_numbers(field, value):
    """``gamma`` and the explicit matrix entries are JSON numbers: a bool
    or a numeric string is invalid input that names the field, where it
    once read as 1.0."""
    doc = json.loads(json.dumps(_EXPLICIT))
    if field == "gamma":
        doc["users"][0]["gamma"] = value
    else:
        doc["H"][0][0][0][field == "H-im"] = value
    name = "gamma" if field == "gamma" else "H entry"
    with pytest.raises(ValueError, match=f"{name} must be a number"):
        channelset_from_json(doc)
    assert channelset_from_json(_EXPLICIT).H[0][0, 0] == 1.0


def test_json_rejects_an_integer_entry_past_the_float_range():
    """A JSON integer too large for a float is invalid input, where an
    explicit matrix entry once leaked ``OverflowError``."""
    doc = json.loads(json.dumps(_EXPLICIT))
    doc["H"][0][0][0][0] = 10**400
    with pytest.raises(ValueError, match="H entry is out of a float's range"):
        channelset_from_json(doc)


def test_json_accepts_integral_floats():
    want = channelset_from_json(_SEEDED)
    got = channelset_from_json(_with("M", 2.0) | {"seed": 3.0})
    assert (got.M, got.seed, type(got.M), type(got.seed)) == (2, 3, int, int)
    assert np.array_equal(got.H[0], want.H[0])
    assert channelset_from_json(_with("n", 1.0)).users[0].n == 1


def test_readme_channel_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Channel JSON", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    docs = [line for line in block.splitlines() if line.strip()]
    assert len(docs) == 2
    seeded, explicit = (channelset_from_json(doc) for doc in docs)
    assert seeded.seed == 42 and explicit.seed is None
    for chans in (seeded, explicit):
        decompose_zf_dpc(chans)
