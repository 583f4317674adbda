import numpy as np
import pytest

from uavris.metrics import db_to_linear, dbm_to_watts, linear_to_db, sinr_report


class TestConversions:
    def test_dbm_fixed_points(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)
        assert dbm_to_watts(-100.0) == pytest.approx(1e-13)
        assert dbm_to_watts(45.0) == pytest.approx(10 ** 1.5)

    def test_db_fixed_points(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert linear_to_db(100.0) == pytest.approx(20.0)
        assert linear_to_db(0.5) == pytest.approx(-10 * np.log10(2))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)


class TestSinrReport:
    def test_interference_free_diagonal(self):
        # effective = diag(2, 3), noise 1: SINRs exactly 4 and 9
        r = sinr_report(np.diag([2.0, 3.0]).astype(complex), 1.0)
        np.testing.assert_allclose(r.per_uav_sinr, [4.0, 9.0])
        assert r.min_sinr == pytest.approx(4.0)
        assert r.min_sinr_db == pytest.approx(10 * np.log10(4.0))
        assert r.sum_rate == pytest.approx(np.log2(5.0) + np.log2(10.0))

    def test_hand_computed_interference(self):
        # UAV0: desired |1|^2=1, interference |1j|^2=1, noise 0.5 -> 1/1.5
        # UAV1: desired |2|^2=4, interference |0.5|^2=0.25 -> 4/0.75
        eff = np.array([[1.0, 1j], [0.5, 2.0]])
        r = sinr_report(eff, 0.5)
        np.testing.assert_allclose(r.per_uav_sinr, [1 / 1.5, 4 / 0.75])
        assert r.min_sinr == pytest.approx(1 / 1.5)

    def test_phase_invariance_of_entries(self, rng):
        eff = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rot = eff * np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 3)))
        a, b = sinr_report(eff, 1e-3), sinr_report(rot, 1e-3)
        np.testing.assert_allclose(a.per_uav_sinr, b.per_uav_sinr, rtol=1e-12)

    def test_sum_rate_oracle(self, rng):
        eff = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r = sinr_report(eff, 0.1)
        assert r.sum_rate == pytest.approx(sum(np.log2(1 + s) for s in r.per_uav_sinr))

    def test_noise_monotonicity(self, rng):
        eff = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        low = sinr_report(eff, 1e-6)
        high = sinr_report(eff, 1e-2)
        assert (low.per_uav_sinr > high.per_uav_sinr).all()

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(ValueError):
            sinr_report(np.ones((2, 3)), 1.0)
        with pytest.raises(ValueError):
            sinr_report(np.eye(2), 0.0)

    def test_db_property(self):
        r = sinr_report(np.diag([3.0, 3.0]).astype(complex), 1.0)
        np.testing.assert_allclose(r.per_uav_sinr_db, 10 * np.log10(9.0))
