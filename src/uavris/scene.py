"""Scenario configuration and link geometry.

Coordinates of the BS, the RISs and the UAVs are turned into the
azimuth/elevation angles and propagation delays that parameterize every
LoS channel component.  All frames share the global axes: elevation is
measured from the horizontal plane (asin of the normalized z component)
and azimuth is atan2(y, x) folded into [0, pi] by absolute value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

__all__ = [
    "SPEED_OF_LIGHT",
    "SystemConfig",
    "LinkGeometry",
    "GeometrySet",
    "link_geometry",
    "build_geometry",
    "default_config",
]


@dataclass(frozen=True)
class SystemConfig:
    """All scenario parameters: geometry, array sizes, carrier, Rician
    factors, noise and power budget.

    Rician factors and powers are linear (watts), not dB/dBm.  Elements
    are spaced half a wavelength, and every hop has free-space path loss.
    A Rician factor K is a per-entry LoS-to-NLoS power ratio of K / (N N_B)
    on BS->RIS and K / N on RIS->UAV (``uavris.channel``): 11.9 dB and
    18.0 dB at the default 30 dB.
    """

    bs_position: tuple[float, float, float] = (0.0, 0.0, 2.0)
    ris_positions: tuple[tuple[float, float, float], ...] = (
        (-2.5, 8.0, 0.0),
        (2.5, 0.0, 0.0),
    )
    uav_positions: tuple[tuple[float, float, float], ...] = (
        (-3.0, 10.0, 6.0),
        (2.0, 6.0, 10.0),
    )
    n_bs_antennas: int = 4
    ris_elements_x: int = 4
    ris_elements_y: int = 4
    carrier_freq: float = 28e9
    rician_bs_ris: float = 1000.0  # 30 dB
    rician_ris_uav: float = 1000.0  # 30 dB
    downtilt: float = 0.0
    noise_power: float = 1e-13  # -100 dBm
    p_max: float = 10 ** ((35.0 - 30.0) / 10.0)  # 35 dBm
    # aggregate BS/RIS/UAV antenna and element gains folded into the
    # large-scale budget (power dB, split evenly over the two hops);
    # calibrated so the 45 dBm best min-SINR sits in the 10-16 dB range
    antenna_gain_db: float = 38.0

    def __post_init__(self):
        for name in ("n_bs_antennas", "ris_elements_x", "ris_elements_y"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if len(self.ris_positions) < 1 or len(self.uav_positions) < 1:
            raise ValueError("need at least one RIS and one UAV")
        if self.rician_bs_ris < 0 or self.rician_ris_uav < 0:
            raise ValueError("Rician factors must be >= 0")
        if self.carrier_freq <= 0:
            raise ValueError("carrier_freq must be > 0")
        if self.noise_power <= 0:
            raise ValueError("noise_power must be > 0")
        if self.p_max <= 0:
            raise ValueError("p_max must be > 0")

    @property
    def n_ris(self) -> int:
        return len(self.ris_positions)

    @property
    def n_uav(self) -> int:
        return len(self.uav_positions)

    @property
    def elements_per_ris(self) -> int:
        return self.ris_elements_x * self.ris_elements_y

    @property
    def n_ris_elements(self) -> int:
        """Total number of controllable elements across all RISs."""
        return self.elements_per_ris * self.n_ris

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def d_x(self) -> float:
        """Element spacing of every array axis (d_x, d_y, d_z): half a wavelength."""
        return self.wavelength / 2

    d_y = d_z = d_x

    def with_p_max(self, p_max: float) -> "SystemConfig":
        return replace(self, p_max=p_max)


def default_config(**overrides) -> SystemConfig:
    """Default two-RIS / two-UAV scenario; fields may be overridden."""
    return replace(SystemConfig(), **overrides) if overrides else SystemConfig()


@dataclass(frozen=True)
class LinkGeometry:
    """Angles, distance and delay of one LoS link."""

    azimuth: float  # rad, in [0, pi]
    elevation: float  # rad, in [-pi/2, pi/2]
    distance: float  # m
    delay: float  # s

    def __post_init__(self):
        if not 0.0 <= self.azimuth <= np.pi:
            raise ValueError(f"azimuth {self.azimuth} outside [0, pi]")
        if not -np.pi / 2 <= self.elevation <= np.pi / 2:
            raise ValueError(f"elevation {self.elevation} outside [-pi/2, pi/2]")
        if self.distance <= 0:
            raise ValueError("distance must be > 0")


@dataclass(frozen=True)
class GeometrySet:
    """Per-link geometry for the whole scene.

    bs_ris[nr] is the BS -> RIS nr link; ris_uav[nr][nu] the RIS nr ->
    UAV nu link.
    """

    bs_ris: tuple[LinkGeometry, ...]
    ris_uav: tuple[tuple[LinkGeometry, ...], ...]


def link_geometry(source, target) -> LinkGeometry:
    """Geometry of the link from ``source`` to ``target`` (3-D points, m)."""
    v = np.asarray(target, dtype=float) - np.asarray(source, dtype=float)
    distance = float(np.linalg.norm(v))
    if distance == 0.0:
        raise ValueError("source and target coincide")
    elevation = float(np.arcsin(np.clip(v[2] / distance, -1.0, 1.0)))
    azimuth = abs(float(np.arctan2(v[1], v[0])))
    return LinkGeometry(
        azimuth=azimuth,
        elevation=elevation,
        distance=distance,
        delay=distance / SPEED_OF_LIGHT,
    )


def build_geometry(config: SystemConfig) -> GeometrySet:
    """LinkGeometry for every BS->RIS and RIS->UAV pair."""
    bs_ris = tuple(link_geometry(config.bs_position, p) for p in config.ris_positions)
    ris_uav = tuple(
        tuple(link_geometry(rp, up) for up in config.uav_positions)
        for rp in config.ris_positions
    )
    return GeometrySet(bs_ris=bs_ris, ris_uav=ris_uav)
