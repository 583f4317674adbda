import numpy as np
import pytest

from uavris.agent import DdpgHyperparams
from uavris.channel import steering_ris
from uavris.env import Variant
from uavris.metrics import dbm_to_watts
from uavris.scene import (
    SPEED_OF_LIGHT,
    SystemConfig,
    build_geometry,
    link_geometry,
    default_config,
)
from uavris.training import run_training


class TestLinkGeometry:
    def test_vertical_link(self):
        g = link_geometry((0, 0, 0), (0, 0, 5))
        assert g.distance == pytest.approx(5.0)
        assert g.elevation == pytest.approx(np.pi / 2)
        assert g.delay == pytest.approx(5.0 / SPEED_OF_LIGHT)

    def test_hand_trigonometry(self):
        g = link_geometry((0, 0, 0), (3, 0, 4))
        assert g.distance == pytest.approx(5.0)
        assert g.elevation == pytest.approx(np.arcsin(4 / 5))
        assert g.azimuth == pytest.approx(0.0)

    def test_bs_to_second_ris_distance(self):
        # BS (0,0,2) to RIS (2.5,0,0)
        g = link_geometry((0, 0, 2), (2.5, 0, 0))
        assert g.distance == pytest.approx(np.sqrt(2.5**2 + 2**2))

    def test_zero_distance_errors(self):
        with pytest.raises(ValueError):
            link_geometry((1, 2, 3), (1, 2, 3))

    def test_ranges_and_delay_consistency(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            src, dst = rng.uniform(-20, 20, 3), rng.uniform(-20, 20, 3)
            if np.allclose(src, dst):
                continue
            g = link_geometry(src, dst)
            assert 0.0 <= g.azimuth <= np.pi
            assert -np.pi / 2 <= g.elevation <= np.pi / 2
            assert g.delay * SPEED_OF_LIGHT == pytest.approx(g.distance, rel=1e-12)
            # independent distance formula
            d = np.sqrt(np.sum((np.asarray(dst, float) - src) ** 2))
            assert g.distance == pytest.approx(d, rel=1e-12)


class TestBuildGeometry:
    def test_default_scene_counts(self, config):
        geo = build_geometry(config)
        assert len(geo.bs_ris) == 2
        assert sum(len(r) for r in geo.ris_uav) == 4

    def test_colocated_axis_case(self):
        cfg = default_config(
            ris_positions=((0.0, 0.0, 10.0),),
            uav_positions=((0.0, 0.0, 20.0),),
            bs_position=(0.0, 0.0, 0.0),
        )
        geo = build_geometry(cfg)
        assert geo.bs_ris[0].elevation == pytest.approx(np.pi / 2)
        assert geo.ris_uav[0][0].elevation == pytest.approx(np.pi / 2)

    def test_deterministic(self, config):
        a, b = build_geometry(config), build_geometry(config)
        assert a == b


class TestSystemConfig:
    def test_rectangular_ris_runs(self):
        cfg = default_config(ris_elements_x=4, ris_elements_y=2, p_max=dbm_to_watts(45.0))
        assert cfg.elements_per_ris == 8
        geo = build_geometry(cfg)
        for link in (*geo.bs_ris, *geo.ris_uav[0], *geo.ris_uav[1]):
            a = steering_ris(
                link.azimuth, link.elevation, cfg.ris_elements_x, cfg.ris_elements_y,
                cfg.d_x, cfg.d_y, cfg.wavelength,
            )
            assert a.shape == (8,)
            assert np.linalg.norm(a) == pytest.approx(1.0, rel=1e-12)
        hyper = DdpgHyperparams(hidden_dims=(16, 16), batch_size=4, warmup_steps=4)
        trace = run_training(cfg, Variant.IC, total_steps=12, hyper=hyper)
        assert trace.feasible.all()
        assert np.isfinite(trace.min_sinr_db).all()

    def test_default_scene_is_table_sizes(self):
        cfg = default_config()
        assert cfg.n_bs_antennas == 4
        assert cfg.n_ris == 2
        assert cfg.n_uav == 2
        assert cfg.elements_per_ris == 16
        assert cfg.n_ris_elements == 32
        assert cfg.carrier_freq == 28e9
        assert cfg.rician_bs_ris == pytest.approx(1000.0)
        assert cfg.noise_power == pytest.approx(1e-13)

    def test_half_wavelength_default_spacing(self):
        cfg = default_config()
        assert cfg.d_x == pytest.approx(cfg.wavelength / 2)
        assert cfg.d_z == pytest.approx(cfg.wavelength / 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_bs_antennas": 0},
            {"uav_positions": ()},
            {"rician_bs_ris": -1.0},
            {"noise_power": 0.0},
            {"p_max": -2.0},
            {"carrier_freq": 0.0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)
