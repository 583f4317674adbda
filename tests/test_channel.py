import numpy as np
import pytest

from uavris.channel import (
    PhaseConfig,
    assemble_channels,
    cascaded_channel,
    draw_nlos,
    los_bs_ris,
    los_ris_uav,
    pathloss_amplitude,
    rician_combine,
    steering_ris,
    steering_bs,
)
from uavris.scene import build_geometry, link_geometry, default_config


class TestSteeringRis:
    def test_zero_elevation_flat(self):
        v = steering_ris(0.7, 0.0, 4, 4, 0.5, 0.5, 1.0)
        np.testing.assert_allclose(v, np.full(16, 0.25), atol=1e-15)

    def test_unit_norm_random_angles(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            az = rng.uniform(0, np.pi)
            el = rng.uniform(-np.pi / 2, np.pi / 2)
            v = steering_ris(az, el, 4, 4, 0.005, 0.005, 0.01)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_two_element_hand_case(self):
        # theta=0, phi=pi/2, half-wavelength spacing: phases (0, pi)
        v = steering_ris(0.0, np.pi / 2, 2, 1, 0.5, 0.5, 1.0)
        np.testing.assert_allclose(v, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)


class TestSteeringBs:
    def test_broadside(self):
        v = steering_bs(np.pi / 2, 0.0, 4, 0.5, 1.0)
        np.testing.assert_allclose(v, np.full(4, 0.5), atol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            v = steering_bs(rng.uniform(-np.pi / 2, np.pi / 2), 0.1, 8, 0.005, 0.01)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_endfire_alternation(self):
        v = steering_bs(0.3, 0.3, 4, 0.5, 1.0)
        np.testing.assert_allclose(v, np.array([1, -1, 1, -1]) / 2, atol=1e-12)


class TestLosComponents:
    def test_bs_ris_rank_one(self, config):
        geom = link_geometry(config.bs_position, config.ris_positions[0])
        block = los_bs_ris(geom, config)
        assert block.shape == (16, 4)
        s = np.linalg.svd(block, compute_uv=False)
        assert s[1] <= 1e-12 * s[0]

    def test_bs_ris_unit_frobenius(self, config):
        geom = link_geometry(config.bs_position, config.ris_positions[1])
        assert np.linalg.norm(los_bs_ris(geom, config)) == pytest.approx(1.0, abs=1e-12)

    def test_ris_uav_unit_norm_and_phase(self, config):
        geom = link_geometry(config.ris_positions[0], config.uav_positions[0])
        row = los_ris_uav(geom, config)
        assert row.shape == (1, 16)
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)
        ref = steering_ris(
            geom.azimuth, geom.elevation, 4, 4, config.d_x, config.d_y, config.wavelength
        )
        expected = -np.angle(ref) - 2 * np.pi * config.carrier_freq * geom.delay
        diff = np.angle(row[0]) - expected
        np.testing.assert_allclose(np.mod(diff + np.pi, 2 * np.pi) - np.pi, 0.0, atol=1e-9)


class TestRicianCombine:
    def test_kappa_zero_is_nlos(self, rng):
        los = rng.standard_normal((3, 3)) + 0j
        nlos = rng.standard_normal((3, 3)) + 0j
        np.testing.assert_array_equal(rician_combine(los, nlos, 0.0), nlos)

    def test_kappa_infinite_is_los(self, rng):
        los = rng.standard_normal((3, 3)) + 0j
        nlos = rng.standard_normal((3, 3)) + 0j
        np.testing.assert_allclose(rician_combine(los, nlos, 1e12), los, rtol=1e-6, atol=1e-6)

    def test_kappa_one_equal_weights(self, rng):
        los = rng.standard_normal((2, 2)) + 0j
        nlos = rng.standard_normal((2, 2)) + 0j
        np.testing.assert_allclose(rician_combine(los, nlos, 1.0), (los + nlos) / np.sqrt(2))

    def test_power_split(self):
        # E||rician||_F^2 = k/(k+1)*||los||^2 + 1/(k+1)*rows*cols
        rng = np.random.default_rng(0)
        los = np.ones((2, 2), dtype=complex) / 2.0  # unit Frobenius norm
        kappa = 3.0
        n_draws = 10_000
        total = 0.0
        for _ in range(n_draws):
            total += np.sum(np.abs(rician_combine(los, draw_nlos(rng, 2, 2), kappa)) ** 2)
        expected = kappa / (kappa + 1) * 1.0 + 1 / (kappa + 1) * 4
        # 3 standard errors of the empirical mean
        assert total / n_draws == pytest.approx(expected, abs=3 * 2.0 / np.sqrt(n_draws))


class TestDrawNlos:
    def test_moments(self):
        rng = np.random.default_rng(11)
        m = draw_nlos(rng, 400, 250)  # 1e5 entries
        assert abs(m.mean()) <= 0.02
        assert np.mean(np.abs(m) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_deterministic(self):
        a = draw_nlos(np.random.default_rng(5), 4, 4)
        b = draw_nlos(np.random.default_rng(5), 4, 4)
        np.testing.assert_array_equal(a, b)


class TestPathloss:
    def test_disabled(self):
        assert pathloss_amplitude(123.0, 0.01, enabled=False) == 1.0

    def test_fixed_point(self):
        lam = 0.02
        assert pathloss_amplitude(lam / (4 * np.pi), lam) == pytest.approx(1.0)

    def test_28ghz_10m(self):
        lam = 299_792_458.0 / 28e9
        amp = pathloss_amplitude(10.0, lam)
        assert amp == pytest.approx(8.52e-5, rel=1e-3)
        assert 20 * np.log10(amp) == pytest.approx(-81.4, abs=0.05)


class TestAssembleChannels:
    def test_default_scene_shapes(self, channels):
        assert channels.g_stacked.shape == (32, 4)
        assert channels.h_stacked.shape == (2, 32)

    def test_pure_los_unit_gain_block_moduli(self):
        cfg = default_config(
            rician_bs_ris=1e15, rician_ris_uav=1e15, pathloss_enabled=False
        )
        ch = assemble_channels(cfg, build_geometry(cfg), np.random.default_rng(0))
        np.testing.assert_allclose(np.abs(ch.g_stacked), 1 / np.sqrt(16 * 4), rtol=1e-6)
        np.testing.assert_allclose(np.abs(ch.h_stacked), 1 / np.sqrt(16), rtol=1e-6)

    def test_seed_determinism(self, config, geometry):
        a = assemble_channels(config, geometry, np.random.default_rng(42))
        b = assemble_channels(config, geometry, np.random.default_rng(42))
        np.testing.assert_array_equal(a.g_stacked, b.g_stacked)
        np.testing.assert_array_equal(a.h_stacked, b.h_stacked)


class TestPhaseConfig:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            PhaseConfig(np.array([0.0, bad]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            PhaseConfig(np.zeros((2, 2)))

    def test_wraps_into_range(self):
        theta = PhaseConfig(np.array([-np.pi, 3 * np.pi])).theta
        np.testing.assert_allclose(theta, [np.pi, np.pi])


class TestChannelSetChecks:
    def test_rejects_non_finite(self):
        from uavris.channel import ChannelSet

        with pytest.raises(ValueError, match="non-finite"):
            ChannelSet(
                g_stacked=np.array([[1.0 + np.nan * 1j]]), h_stacked=np.ones((1, 1)),
                pathloss_bs_ris=np.ones(1), pathloss_ris_uav=np.ones((1, 1)),
            )


class TestCascadedChannel:
    def test_identity_phases(self, channels):
        casc = cascaded_channel(channels, PhaseConfig(np.zeros(32)))
        np.testing.assert_allclose(casc, channels.h_stacked @ channels.g_stacked, atol=1e-15)

    def test_scalar_case(self):
        from uavris.channel import ChannelSet

        h = np.array([[0.5 + 0.2j]])
        g = np.array([[1.0 - 1.0j]])
        ch = ChannelSet(
            g_stacked=g, h_stacked=h, pathloss_bs_ris=np.ones(1), pathloss_ris_uav=np.ones((1, 1))
        )
        theta = 0.7
        casc = cascaded_channel(ch, PhaseConfig(np.array([theta])))
        assert casc[0, 0] == pytest.approx(h[0, 0] * np.exp(1j * theta) * g[0, 0])

    def test_per_ris_sum_equals_stacked_product(self, config, channels, rng):
        # row-wise block summation vs the single stacked matrix product
        theta = rng.uniform(0, 2 * np.pi, 32)
        phases = PhaseConfig(theta)
        n = config.elements_per_ris
        expected = np.zeros((2, 4), dtype=complex)
        for nu in range(2):
            for nr in range(2):
                h_blk = channels.h_stacked[nu, nr * n : (nr + 1) * n]
                g_blk = channels.g_stacked[nr * n : (nr + 1) * n, :]
                phi = np.diag(np.exp(1j * theta[nr * n : (nr + 1) * n]))
                expected[nu] += h_blk @ phi @ g_blk
        np.testing.assert_allclose(cascaded_channel(channels, phases), expected, atol=1e-12)
