"""Channel synthesis: steering vectors, LoS components, Rician fading
and the cascaded end-to-end channel through the diagonal phase control.

Conventions fixed here (the model leaves them open):
  * phase-control entries are exp(j*theta) -- unit modulus is the
    physical constraint on a passive reflecting element;
  * each BS->RIS block is N x N_B (RIS steering column times conjugated
    BS steering row), which is the only orientation that makes the
    stacked product H @ Phi @ G conformable;
  * every hop has free-space amplitude lambda / (4 pi d) times its share
    of the antenna gain;
  * a Rician factor K weighs a unit-norm LoS block against one CN(0, 1)
    NLoS entry: the per-entry LoS-to-NLoS power ratio is K / (N N_B) on
    BS->RIS and K / N on RIS->UAV, 11.9 dB and 18.0 dB at K = 30 dB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import all_finite
from .scene import GeometrySet, LinkGeometry, SystemConfig

__all__ = [
    "ChannelSet",
    "PhaseConfig",
    "steering_ris",
    "steering_bs",
    "los_bs_ris",
    "los_ris_uav",
    "rician_combine",
    "draw_nlos",
    "pathloss_amplitude",
    "assemble_channels",
    "cascaded_channel",
]


@dataclass(frozen=True)
class ChannelSet:
    """One fading realization of the whole scene.

    g_stacked : (N*N_R, N_B) complex -- per-RIS blocks stacked vertically.
    h_stacked : (N_U, N*N_R) complex -- per-UAV rows, RIS blocks side by side.
    pathloss_bs_ris : (N_R,) amplitude scalars applied to the BS->RIS blocks.
    pathloss_ris_uav : (N_R, N_U) amplitude scalars applied to the RIS->UAV rows.
    """

    g_stacked: np.ndarray
    h_stacked: np.ndarray
    pathloss_bs_ris: np.ndarray
    pathloss_ris_uav: np.ndarray

    def __post_init__(self):
        if not (all_finite(self.g_stacked) and all_finite(self.h_stacked)):
            raise ValueError("channel matrices contain non-finite entries")
        if self.g_stacked.shape[0] != self.h_stacked.shape[1]:
            raise ValueError(
                f"inconsistent element counts: G {self.g_stacked.shape}, H {self.h_stacked.shape}"
            )

    @property
    def n_elements(self) -> int:
        return self.g_stacked.shape[0]

    @property
    def n_uav(self) -> int:
        return self.h_stacked.shape[0]

    @property
    def n_bs_antennas(self) -> int:
        return self.g_stacked.shape[1]


@dataclass(frozen=True)
class PhaseConfig:
    """Per-element reflection phases, length N*N_R, each in [0, 2*pi]: the
    wrap, np.mod, rounds a tiny negative phase such as -1e-17 up to 2*pi."""

    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float)
        if t.ndim != 1:
            raise ValueError("theta must be a 1-D vector")
        if not all_finite(t):
            raise ValueError("theta contains non-finite entries")
        object.__setattr__(self, "theta", np.mod(t, 2 * np.pi))

    def __len__(self) -> int:
        return self.theta.shape[0]


def steering_ris(azimuth, elevation, n_x, n_y, d_x, d_y, wavelength) -> np.ndarray:
    """Normalized planar-array response of an n_x by n_y RIS, length N."""
    kx = 2 * np.pi * d_x / wavelength * np.cos(azimuth) * np.sin(elevation)
    ky = 2 * np.pi * d_y / wavelength * np.sin(azimuth) * np.sin(elevation)
    ax = np.exp(1j * kx * np.arange(n_x))
    ay = np.exp(1j * ky * np.arange(n_y))
    return np.kron(ax, ay) / np.sqrt(n_x * n_y)


def steering_bs(elevation, downtilt, n_b, d_z, wavelength) -> np.ndarray:
    """Normalized vertical-ULA response of the BS array, length n_b."""
    kz = 2 * np.pi * d_z / wavelength * np.cos(elevation - downtilt)
    return np.exp(1j * kz * np.arange(n_b)) / np.sqrt(n_b)


def _ris_link(geom: LinkGeometry, config: SystemConfig) -> tuple[np.ndarray, complex]:
    """The RIS steering vector of a link and its propagation-delay phasor."""
    a_r = steering_ris(
        geom.azimuth,
        geom.elevation,
        config.ris_elements_x,
        config.ris_elements_y,
        config.d_x,
        config.d_y,
        config.wavelength,
    )
    return a_r, np.exp(-2j * np.pi * config.carrier_freq * geom.delay)


def los_bs_ris(geom: LinkGeometry, config: SystemConfig) -> np.ndarray:
    """LoS BS->RIS block: outer product of the two steering vectors times
    the propagation-delay phasor.  Shape (N, N_B), unit Frobenius norm."""
    a_r, phasor = _ris_link(geom, config)
    a_b = steering_bs(
        geom.elevation, config.downtilt, config.n_bs_antennas, config.d_z, config.wavelength
    )
    return np.outer(a_r, a_b.conj()) * phasor


def los_ris_uav(geom: LinkGeometry, config: SystemConfig) -> np.ndarray:
    """LoS RIS->UAV row: conjugated RIS steering times the delay phasor.
    Shape (1, N), unit 2-norm."""
    a_r, phasor = _ris_link(geom, config)
    return (a_r.conj() * phasor)[np.newaxis, :]


def rician_combine(los: np.ndarray, nlos: np.ndarray, kappa: float) -> np.ndarray:
    """sqrt(k/(k+1)) * los + sqrt(1/(k+1)) * nlos.  For a unit-norm ``los``
    and CN(0, 1) ``nlos``, the per-entry power ratio is k / los.size."""
    if los.shape != nlos.shape:
        raise ValueError(f"shape mismatch: {los.shape} vs {nlos.shape}")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    return np.sqrt(kappa / (kappa + 1.0)) * los + np.sqrt(1.0 / (kappa + 1.0)) * nlos


def draw_nlos(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """i.i.d. CN(0, 1) matrix (real/imag parts each variance 1/2)."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def pathloss_amplitude(distance: float, wavelength: float) -> float:
    """Free-space amplitude lambda / (4 pi d)."""
    if distance <= 0:
        raise ValueError("distance must be > 0")
    return wavelength / (4.0 * np.pi * distance)


def assemble_channels(
    config: SystemConfig, geometry: GeometrySet, rng: np.random.Generator
) -> ChannelSet:
    """Draw one fading realization and stack it into a ChannelSet."""
    n = config.elements_per_ris
    n_b = config.n_bs_antennas
    pl_g = np.empty(config.n_ris)
    pl_h = np.empty((config.n_ris, config.n_uav))
    # per-hop amplitude share of the aggregate antenna/element gains
    hop_gain = 10.0 ** (config.antenna_gain_db / 40.0)

    g_blocks = []
    for nr, geom in enumerate(geometry.bs_ris):
        pl_g[nr] = hop_gain * pathloss_amplitude(geom.distance, config.wavelength)
        los = los_bs_ris(geom, config)
        nlos = draw_nlos(rng, n, n_b)
        g_blocks.append(pl_g[nr] * rician_combine(los, nlos, config.rician_bs_ris))
    g_stacked = np.vstack(g_blocks)

    h_rows = []
    for nu in range(config.n_uav):
        row_blocks = []
        for nr in range(config.n_ris):
            geom = geometry.ris_uav[nr][nu]
            pl_h[nr, nu] = hop_gain * pathloss_amplitude(geom.distance, config.wavelength)
            los = los_ris_uav(geom, config)
            nlos = draw_nlos(rng, 1, n)
            row_blocks.append(pl_h[nr, nu] * rician_combine(los, nlos, config.rician_ris_uav))
        h_rows.append(np.hstack(row_blocks))
    h_stacked = np.vstack(h_rows)

    return ChannelSet(
        g_stacked=g_stacked,
        h_stacked=h_stacked,
        pathloss_bs_ris=pl_g,
        pathloss_ris_uav=pl_h,
    )


def cascaded_channel(channels: ChannelSet, phases: PhaseConfig) -> np.ndarray:
    """End-to-end channel H @ Phi @ G, shape (N_U, N_B)."""
    if len(phases) != channels.n_elements:
        raise ValueError(
            f"phase vector length {len(phases)} != element count {channels.n_elements}"
        )
    return (channels.h_stacked * np.exp(1j * phases.theta)) @ channels.g_stacked
