"""MIMO broadcast channels and their zero-forcing DPC decomposition.

A transmitter with M antennas serves K users (user k has n_k receive
antennas).  Dirty-paper encoding in a fixed user order plus per-user
zero-forcing beamforming turns the broadcast channel into K parallel
point-to-point channels: user k is precoded inside the null space of the
channels of users 1..k-1, and the surviving effective channel is made
lower-triangular.  All rates are in nats (natural log).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Frobenius-relative tolerance for the zero-forcing identity H_j B_k ~ 0.
ZF_RTOL = 1e-8
# An eigenvalue of L_k L_k^H below this means the effective channel is
# rank deficient and the parallel-channel model breaks down.
RANK_EPS = 1e-12


@dataclass(frozen=True)
class UserConfig:
    """Antenna count and throughput weight of one user."""

    n: int
    gamma: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"user needs at least one antenna, got n={self.n}")
        if not (self.gamma > 0.0 and np.isfinite(self.gamma)):
            raise ValueError(f"weight must be positive and finite, got {self.gamma}")


@dataclass(frozen=True)
class ChannelSet:
    """Raw channel matrices H_k (n_k x M) for one realization."""

    M: int
    users: tuple[UserConfig, ...]
    H: tuple[np.ndarray, ...]
    seed: int | None = None

    def __post_init__(self):
        if len(self.users) != len(self.H):
            raise ValueError("one channel matrix per user is required")
        for u, h in zip(self.users, self.H):
            if h.shape != (u.n, self.M):
                raise ValueError(
                    f"channel matrix shape {h.shape} does not match (n={u.n}, M={self.M})"
                )
            if not np.all(np.isfinite(h)):
                raise ValueError("channel matrix entries must be finite")

    @property
    def gammas(self) -> np.ndarray:
        return np.array([u.gamma for u in self.users])


@dataclass(frozen=True)
class EffectiveChannels:
    """Parallel channels produced by the ZF-DPC cascade.

    B[k] is an orthonormal basis (M x nbar_k) of the subspace user k may
    transmit in, L[k] is the lower-triangular n_k x n_k effective channel
    with H_k B_k = [L_k, 0], lam[k] holds the eigenvalues of
    L_k L_k^H = U_k diag(lam) U_k^H sorted descending, and X[k] is the
    covariance basis L_k^{-1} U_k with its columns in the same order.
    """

    M: int
    B: tuple[np.ndarray, ...]
    L: tuple[np.ndarray, ...]
    lam: tuple[np.ndarray, ...]
    X: tuple[np.ndarray, ...]
    gammas: np.ndarray = field(repr=False)
    #: The water-filling systems built for these channels, one per weight
    #: vector (``WaterSystem.shared``).
    _systems: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_users(self) -> int:
        return len(self.L)


@dataclass(frozen=True)
class CovarianceSet:
    """Per-user transmit covariances Phi_k over the effective channels.

    ``Phi[k]`` has shape ``(..., n_k, n_k)``: one matrix for a single
    epoch, or a stack whose leading axis indexes the epochs of a schedule
    (``Phi[k][i]`` is user k's covariance in epoch i).
    """

    Phi: tuple[np.ndarray, ...]

    def total_power(self):
        """Sum power sum_k tr(Phi_k), one value per epoch."""
        return sum(np.trace(p, axis1=-2, axis2=-1).real for p in self.Phi)

    def scaled(self, tau) -> "CovarianceSet":
        """Energy-form covariances Theta_k = tau * Phi_k, with ``tau`` a
        scalar or one value per epoch."""
        t = np.asarray(tau)[..., None, None]
        return CovarianceSet(tuple(t * p for p in self.Phi))


def generate_channels(
    M: int, users: Sequence[UserConfig], seed: int | None = None, rng=None
) -> ChannelSet:
    """Draw i.i.d. unit-variance circularly-symmetric Gaussian channels.

    Entries are (randn + 1j*randn)/sqrt(2) so E|h|^2 = 1.  A counter-based
    Philox generator keyed by ``seed`` makes draws reproducible; an
    existing ``Generator`` may be passed instead.
    """
    if M < 1:
        raise ValueError("transmitter needs at least one antenna")
    users = tuple(users)
    if not users:
        raise ValueError("at least one user is required")
    if rng is None:
        if seed is None:
            raise ValueError("either seed or rng is required")
        rng = np.random.Generator(np.random.Philox(key=seed))
    H = []
    for u in users:
        re = rng.standard_normal((u.n, M))
        im = rng.standard_normal((u.n, M))
        H.append((re + 1j * im) / np.sqrt(2.0))
    return ChannelSet(M=M, users=users, H=tuple(H), seed=seed)


def _lq(A: np.ndarray) -> np.ndarray:
    """Lower-triangular L with A = [L, 0] Q for a row-orthonormal Q.

    Computed from the reduced QR of A^H; the diagonal of L is normalized
    to be real and positive so the decomposition is canonical.
    """
    q, r = np.linalg.qr(A.conj().T)
    d = np.diagonal(r).copy()
    mag = np.abs(d)
    if np.any(mag < RANK_EPS):
        raise ValueError("effective channel is rank deficient")
    phase = d / mag
    r = phase.conj()[:, None] * r
    return r.conj().T


def decompose_zf_dpc(chans: ChannelSet) -> EffectiveChannels:
    """Run the ZF-DPC cascade over the users in their given order.

    User k gets B_k = orthonormal basis of null([H_1; ...; H_{k-1}]) and
    L_k from the LQ factorization of H_k B_k.  Requires
    M >= sum_k n_k; rank-deficient stacks or effective channels raise
    ValueError, as does a violated zero-forcing residual.
    """
    n_total = sum(u.n for u in chans.users)
    if chans.M < n_total:
        raise ValueError(
            f"need M >= total receive antennas for ZF-DPC, got M={chans.M} < {n_total}"
        )
    B_list: list[np.ndarray] = []
    L_list: list[np.ndarray] = []
    lam_list: list[np.ndarray] = []
    X_list: list[np.ndarray] = []
    rows = 0
    for k, u in enumerate(chans.users):
        if k == 0:
            B = np.eye(chans.M, dtype=complex)
        else:
            stacked = np.vstack(chans.H[:k])
            # Last M-rows columns of the complete QR of stacked^H span the
            # null space when the stack has full row rank; a bad basis is
            # caught by the residual check below.
            q_full, _ = np.linalg.qr(stacked.conj().T, mode="complete")
            B = q_full[:, rows:]
        eff = chans.H[k] @ B
        L = _lq(eff)
        lam, U = np.linalg.eigh(L @ L.conj().T)
        lam, U = lam[::-1].copy(), U[:, ::-1]
        if np.any(lam < RANK_EPS):
            raise ValueError(f"user {k} effective channel is rank deficient")
        for j in range(k):
            resid = np.linalg.norm(chans.H[j] @ B)
            bound = ZF_RTOL * np.linalg.norm(chans.H[j]) * np.linalg.norm(B)
            if resid > bound:
                raise ValueError(
                    f"zero-forcing failed for pair (j={j}, k={k}): "
                    f"residual {resid:.3e} > {bound:.3e}"
                )
        B_list.append(B)
        L_list.append(L)
        lam_list.append(lam)
        X_list.append(np.linalg.solve(L, U))
        rows += u.n
    return EffectiveChannels(
        M=chans.M,
        B=tuple(B_list),
        L=tuple(L_list),
        lam=tuple(lam_list),
        X=tuple(X_list),
        gammas=chans.gammas,
    )


def _check_psd(Phi: np.ndarray, n: int) -> np.ndarray:
    if Phi.shape[-2:] != (n, n):
        raise ValueError(f"covariance shape {Phi.shape} does not match channel size {n}")
    scale = np.maximum(1.0, np.linalg.norm(Phi, axis=(-2, -1)))
    PhiH = Phi.conj().swapaxes(-1, -2)
    if np.any(np.linalg.norm(Phi - PhiH, axis=(-2, -1)) > 1e-8 * scale):
        raise ValueError("covariance is not Hermitian")
    Phi = 0.5 * (Phi + PhiH)
    w = np.linalg.eigvalsh(Phi)[..., 0]
    bad = w < -1e-10 * scale
    if np.any(bad):
        raise ValueError(f"covariance is not PSD (min eigenvalue {w[bad][0]:.3e})")
    return Phi


def resolve_weights(eff: EffectiveChannels, weights) -> np.ndarray:
    """The per-user throughput weights: ``weights`` as floats, or the
    users' gammas when it is ``None``; one positive finite weight per user
    is required."""
    w = eff.gammas if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (eff.num_users,):
        raise ValueError("one positive weight per user is required")
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be positive and finite")
    return w


def weighted_rate(eff: EffectiveChannels, covs: CovarianceSet, weights=None):
    """Weighted sum rate sum_k w_k * ln det(I + L_k Phi_k L_k^H), nats, one
    value per epoch of ``covs``.

    The weights w_k default to the users' gammas.
    """
    if len(covs.Phi) != eff.num_users:
        raise ValueError("one covariance per user is required")
    total = 0.0
    for gamma, L, Phi in zip(resolve_weights(eff, weights), eff.L, covs.Phi):
        n = L.shape[0]
        Phi = _check_psd(np.asarray(Phi, dtype=complex), n)
        A = np.eye(n) + L @ Phi @ L.conj().T
        sign, logdet = np.linalg.slogdet(0.5 * (A + A.conj().swapaxes(-1, -2)))
        if np.any(sign.real <= 0):
            raise ValueError("rate matrix is not positive definite")
        total += gamma * logdet
    return total


# ---------------------------------------------------------------------------
# JSON round trip.  Two accepted forms:
#   {"M": 4, "users": [{"n": 1, "gamma": 1.0}, ...], "seed": 7}
#   {"M": 4, "users": [...], "H": [[[ [re, im], ... ], ...], ...]}
# The first regenerates the matrices from the seed, the second carries them
# explicitly with each complex entry as an [re, im] pair.
# ---------------------------------------------------------------------------


def channelset_to_json(chans: ChannelSet) -> dict:
    doc: dict = {
        "M": chans.M,
        "users": [{"n": u.n, "gamma": u.gamma} for u in chans.users],
    }
    if chans.seed is not None:
        doc["seed"] = chans.seed
    else:
        doc["H"] = [
            [[[float(z.real), float(z.imag)] for z in row] for row in h]
            for h in chans.H
        ]
    return doc


def check_integer(value, name: str) -> int:
    """``value`` as an int: an integer, or a float with an integral value.
    A bool, a fractional or non-finite float or any other type raises
    ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _complex_entry(entry) -> complex:
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        raise ValueError(f"explicit matrix entry {entry!r} is not an [re, im] pair")
    return complex(entry[0], entry[1])


def channelset_from_json(doc: dict | str) -> ChannelSet:
    if isinstance(doc, str):
        doc = json.loads(doc)
    try:
        M = check_integer(doc["M"], "M")
        users = tuple(
            UserConfig(n=check_integer(u["n"], "n"), gamma=float(u.get("gamma", 1.0)))
            for u in doc["users"]
        )
        seed = check_integer(doc["seed"], "seed") if "seed" in doc else None
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed channel document: {exc}") from exc
    if "H" in doc:
        if len(doc["H"]) != len(users):
            raise ValueError("one explicit matrix per user is required")
        H = []
        for u, mat in zip(users, doc["H"]):
            arr = np.array([[_complex_entry(entry) for entry in row] for row in mat])
            if arr.shape != (u.n, M):
                raise ValueError(
                    f"explicit matrix shape {arr.shape} does not match (n={u.n}, M={M})"
                )
            H.append(arr)
        return ChannelSet(M=M, users=users, H=tuple(H), seed=None)
    if seed is None:
        raise ValueError("channel document needs either a seed or explicit matrices")
    return generate_channels(M, users, seed)
