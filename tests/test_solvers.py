import numpy as np
import pytest

from uavris.channel import PhaseConfig, cascaded_channel
from uavris.metrics import sinr_report
from uavris.solvers import (
    AssociationMatrix,
    BeamformingMatrix,
    RankDeficientError,
    ZeroBeamformerError,
    decode_association,
    ic_beamforming,
    normalize_beamformer,
    oresou_phases,
    quantize_one_bit,
    random_search_step,
)


def random_phases(rng, n):
    return PhaseConfig(theta=rng.uniform(0, 2 * np.pi, n))


class TestBeamformingMatrix:
    def test_transmit_power(self):
        f = np.array([[1.0, 1j], [0, 2.0]])
        bm = BeamformingMatrix(f_hat=f, p_max=10.0)
        assert bm.transmit_power == pytest.approx(6.0)

    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            BeamformingMatrix(f_hat=np.eye(2) * 3, p_max=1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            BeamformingMatrix(f_hat=np.array([[np.inf]]), p_max=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_nonfinite_named_even_under_an_infinite_budget(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            BeamformingMatrix(f_hat=np.array([[1.0, bad]]), p_max=np.inf)

    def test_overflowing_power_is_over_budget(self):
        # finite entries whose power overflows: over any finite budget
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="exceeds budget"):
            BeamformingMatrix(f_hat=np.full((2, 2), 1e200), p_max=1.0)

    def test_rejects_vector(self):
        with pytest.raises(ValueError, match="matrix"):
            BeamformingMatrix(f_hat=np.ones(2), p_max=10.0)


class TestAssociationMatrix:
    def test_serving_uav(self):
        a = AssociationMatrix(assoc=np.array([[1, 0], [0, 1], [0, 1]]))
        np.testing.assert_array_equal(a.serving_uav, [0, 1, 1])

    def test_rejects_multi_hot(self):
        with pytest.raises(ValueError):
            AssociationMatrix(assoc=np.array([[1, 1]]))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            AssociationMatrix(assoc=np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize("row", [[2, -1], [np.nan, 1.0], [1.0, np.inf]])
    def test_rejects_non_binary_entries(self, row):
        with pytest.raises(ValueError, match="0 or 1"):
            AssociationMatrix(assoc=np.array([row]))

    def test_rejects_empty_row(self):
        with pytest.raises(ValueError, match="sum to exactly 1"):
            AssociationMatrix(assoc=np.array([[1, 0], [0, 0]]))

    def test_accepts_bool(self):
        a = AssociationMatrix(assoc=np.array([[True, False], [False, True]]))
        assert a.assoc.dtype == np.int8
        np.testing.assert_array_equal(a.serving_uav, [0, 1])


class TestIcBeamforming:
    def test_effective_channel_is_scaled_identity(self, config, channels, rng):
        phases = random_phases(rng, 32)
        bm = ic_beamforming(channels, phases, config.p_max)
        eff = cascaded_channel(channels, phases) @ bm.f_hat
        off = eff - np.diag(np.diag(eff))
        assert np.max(np.abs(off)) <= 1e-9 * np.mean(np.abs(np.diag(eff)))
        # equal diagonal entries -> equal SINRs
        np.testing.assert_allclose(np.diag(eff), np.diag(eff)[0], rtol=1e-9)

    def test_power_binds_with_equality(self, config, channels, rng):
        bm = ic_beamforming(channels, random_phases(rng, 32), config.p_max)
        assert bm.transmit_power == pytest.approx(config.p_max, rel=1e-12)

    def test_snr_scales_with_budget(self, config, channels, rng):
        phases = random_phases(rng, 32)
        lo = ic_beamforming(channels, phases, config.p_max)
        hi = ic_beamforming(channels, phases, config.p_max * 100)
        r_lo = sinr_report(cascaded_channel(channels, phases) @ lo.f_hat, config.noise_power)
        r_hi = sinr_report(cascaded_channel(channels, phases) @ hi.f_hat, config.noise_power)
        assert r_hi.min_sinr_db - r_lo.min_sinr_db == pytest.approx(20.0, abs=1e-9)

    def test_rank_deficient_raises(self, config, channels, rng):
        from dataclasses import replace

        # duplicate UAV rows make the cascade row-rank deficient
        broken = replace(channels, h_stacked=np.vstack([channels.h_stacked[0]] * 2))
        with pytest.raises(RankDeficientError):
            ic_beamforming(broken, random_phases(rng, 32), config.p_max)


class TestOresouPhases:
    def test_assigned_contributions_coherent(self, config, channels, rng):
        assoc = decode_association(rng.standard_normal(64), 2)
        f_hat = normalize_beamformer(rng.standard_normal(16), 4, 2, config.p_max)
        phases = oresou_phases(assoc, channels, f_hat)
        serving = assoc.serving_uav
        bs_component = channels.g_stacked @ f_hat.f_hat
        for m in range(32):
            u = serving[m]
            contrib = (
                channels.h_stacked[u, m]
                * np.exp(1j * phases.theta[m])
                * bs_component[m, u]
            )
            assert abs(np.angle(contrib)) <= 1e-10

    def test_phases_in_range(self, config, channels, rng):
        assoc = decode_association(rng.standard_normal(64), 2)
        f_hat = normalize_beamformer(rng.standard_normal(16), 4, 2, config.p_max)
        theta = oresou_phases(assoc, channels, f_hat).theta
        assert ((theta >= 0) & (theta < 2 * np.pi)).all()

    def test_beats_random_phases_on_served_sum(self, config, channels, rng):
        # coherent combining maximizes each served UAV's assigned magnitude sum
        assoc = decode_association(rng.standard_normal(64), 2)
        f_hat = normalize_beamformer(rng.standard_normal(16), 4, 2, config.p_max)
        phases = oresou_phases(assoc, channels, f_hat)
        serving = assoc.serving_uav
        bs_component = channels.g_stacked @ f_hat.f_hat
        for u in range(2):
            mask = serving == u
            terms = (
                channels.h_stacked[u, mask]
                * np.exp(1j * phases.theta[mask])
                * bs_component[mask, u]
            )
            # coherent sum reaches the magnitude upper bound
            assert abs(terms.sum()) == pytest.approx(np.abs(terms).sum(), rel=1e-12)

    def test_size_mismatch(self, config, channels, rng):
        assoc = decode_association(rng.standard_normal(8), 2)
        f_hat = normalize_beamformer(rng.standard_normal(16), 4, 2, config.p_max)
        with pytest.raises(ValueError):
            oresou_phases(assoc, channels, f_hat)


class TestDecodeAssociation:
    def test_argmax_rows(self):
        a = decode_association(np.array([0.1, 0.9, 0.7, -0.2]), 2)
        np.testing.assert_array_equal(a.assoc, [[0, 1], [1, 0]])

    def test_tie_breaks_low(self):
        a = decode_association(np.array([0.5, 0.5]), 2)
        np.testing.assert_array_equal(a.assoc, [[1, 0]])

    def test_bad_length(self):
        with pytest.raises(ValueError):
            decode_association(np.zeros(5), 2)


class TestNormalizeBeamformer:
    def test_power_equality(self, rng):
        bm = normalize_beamformer(rng.standard_normal(16), 4, 2, 3.5)
        assert bm.transmit_power == pytest.approx(3.5, rel=1e-12)

    def test_scale_invariance(self, rng):
        raw = rng.standard_normal(16)
        a = normalize_beamformer(raw, 4, 2, 1.0)
        b = normalize_beamformer(7.0 * raw, 4, 2, 1.0)
        np.testing.assert_allclose(a.f_hat, b.f_hat, rtol=1e-12)

    def test_pair_layout(self):
        raw = np.array([1.0, 2.0, 3.0, -4.0])
        bm = normalize_beamformer(raw, 1, 2, np.sum(raw**2))
        np.testing.assert_allclose(bm.f_hat, [[1 + 2j, 3 - 4j]])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_beamformer(np.zeros(16), 4, 2, 1.0)
        with pytest.raises(ZeroBeamformerError):
            normalize_beamformer(np.zeros(16), 4, 2, 1.0)

    @pytest.mark.parametrize("uav", [0, 1])
    def test_one_zero_column_rejected(self, rng, uav):
        # the other column alone could meet the budget, but UAV `uav` would
        # get no power: its SINR is 0, -inf dB
        raw = rng.standard_normal((4, 2, 2))
        raw[:, uav, :] = 0.0
        with pytest.raises(ZeroBeamformerError, match=f"UAV {uav}$"):
            normalize_beamformer(raw.ravel(), 4, 2, 1.0)

    def test_zero_real_part_alone_is_served(self):
        raw = np.zeros((4, 2, 2))
        raw[0, :, 1] = 1.0  # purely imaginary entries in both columns
        bm = normalize_beamformer(raw.ravel(), 4, 2, 2.0)
        np.testing.assert_allclose(bm.f_hat[0], [1j, 1j])

    def test_result_does_not_alias_raw(self, rng):
        raw = rng.standard_normal(16)
        bm = normalize_beamformer(raw, 4, 2, 1.0)
        before = bm.f_hat.copy()
        raw[:] = 0.0
        np.testing.assert_array_equal(bm.f_hat, before)


class TestQuantizeOneBit:
    def test_snap_table(self):
        theta = np.array([0.0, np.pi / 4, np.pi / 2, np.pi / 2 + 0.01, np.pi, 3 * np.pi / 2, 5.9])
        out = quantize_one_bit(PhaseConfig(theta=theta)).theta
        np.testing.assert_array_equal(out, [0, 0, 0, np.pi, np.pi, 0, 0])

    def test_idempotent(self, rng):
        p = PhaseConfig(theta=rng.uniform(0, 2 * np.pi, 50))
        once = quantize_one_bit(p)
        np.testing.assert_array_equal(quantize_one_bit(once).theta, once.theta)


class TestRandomSearchStep:
    def test_constraints_hold(self, config, channels):
        rng = np.random.default_rng(9)
        phases, f_hat, report = random_search_step(
            rng, channels, config.p_max, config.noise_power
        )
        assert f_hat.transmit_power == pytest.approx(config.p_max, rel=1e-9)
        assert ((phases.theta >= 0) & (phases.theta < 2 * np.pi)).all()
        assert report.min_sinr > 0

    def test_one_bit_mode(self, config, channels):
        rng = np.random.default_rng(9)
        phases, _, _ = random_search_step(
            rng, channels, config.p_max, config.noise_power, one_bit=True
        )
        assert np.isin(phases.theta, (0.0, np.pi)).all()

    def test_report_matches_recomputation(self, config, channels):
        rng = np.random.default_rng(17)
        phases, f_hat, report = random_search_step(
            rng, channels, config.p_max, config.noise_power
        )
        redo = sinr_report(
            cascaded_channel(channels, phases) @ f_hat.f_hat, config.noise_power
        )
        np.testing.assert_allclose(report.per_uav_sinr, redo.per_uav_sinr, rtol=1e-12)
