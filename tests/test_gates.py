"""Gate behavior: init, sampling, information cost, thresholding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibprune.errors import ContractError, ShapeError
from vibprune.gates import (
    GateInit,
    GateVector,
    Site,
    VibGate,
    alpha,
    hard_mask,
    kl_term,
    new_gate,
    normal32,
    sample_mask,
    soft_keep,
)
from vibprune.tensor import Tensor, backward, gradcheck, tsum


def make_gate(mu, sigma, site=Site.HEADS, beta=0.0):
    mu = np.asarray(mu, dtype=np.float32)
    return VibGate(mu.size, site, beta, mu, np.log(np.asarray(sigma, dtype=np.float32)))


class TestInit:
    def test_seeded_normal_init(self):
        g = new_gate(4, Site.HEADS, 1e-4, GateInit(1.0, 0.01, 0.1, seed=7))
        assert g.mu.data.min() > 0.95 and g.mu.data.max() < 1.05
        np.testing.assert_allclose(np.exp(g.log_sigma.data), 0.1, rtol=1e-6)

    def test_zero_variance_init(self):
        g = new_gate(1, Site.LAYER_MHA, 0.0, GateInit(1.0, 0.0, 0.5, seed=0))
        np.testing.assert_array_equal(g.mu.data, [1.0])
        np.testing.assert_allclose(np.exp(g.log_sigma.data), [0.5], rtol=1e-6)

    def test_same_seed_same_mu(self):
        a = new_gate(8, Site.FFN_OUTPUT, 0.0, GateInit(seed=3))
        b = new_gate(8, Site.FFN_OUTPUT, 0.0, GateInit(seed=3))
        np.testing.assert_array_equal(a.mu.data, b.mu.data)

    def test_zero_units_rejected(self):
        with pytest.raises(ContractError):
            new_gate(0, Site.HEADS, 0.0, GateInit())


class TestSampling:
    def test_reparameterized_value(self):
        g = make_gate([1.0], [0.5])
        z = sample_mask(g, [[[2.0]]])
        np.testing.assert_allclose(z.data, [[[2.0]]])

    def test_tiny_sigma_matches_mean(self):
        g = make_gate([0.7, 1.3], [1.0, 1.0])
        g.log_sigma.data[:] = -20.0
        eps = np.random.default_rng(0).normal(size=(2, 4, 2))
        z_s = sample_mask(g, eps).data
        assert np.abs(z_s - g.mu.data).max() < 1e-6

    def test_shape_mismatch(self):
        g = make_gate([1.0, 1.0], [0.1, 0.1])
        with pytest.raises(ShapeError):
            sample_mask(g, np.zeros((2, 3, 5)))

    def test_sample_mean_converges_to_mu(self):
        # mean of 10k draws within 3*sigma/100 of mu
        g = make_gate([0.8], [0.5])
        eps = np.random.default_rng(11).normal(size=(10000, 1, 1))
        z = sample_mask(g, eps).data
        assert abs(z.mean() - 0.8) < 3 * 0.5 / 100


class TestNormal32:
    def test_standard_normal(self):
        x = normal32(np.random.default_rng(0), 1_000_000)
        assert x.dtype == np.float32 and x.shape == (1_000_000,)
        assert np.isfinite(x).all()
        x = np.sort(x.astype(np.float64))
        assert abs(x.mean()) <= 3e-3
        assert abs(x.var() - 1.0) <= 5e-3
        # Kolmogorov-Smirnov distance to the standard normal CDF
        cdf = np.frompyfunc(lambda v: 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))),
                            1, 1)(x).astype(np.float64)
        n = x.size
        ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
        assert ks <= 1.5e-3

    def test_odd_count_and_seed_repeat(self):
        a = normal32(np.random.default_rng(21), 7)
        b = normal32(np.random.default_rng(21), 7)
        assert a.shape == (7,) and a.dtype == np.float32
        np.testing.assert_array_equal(a, b)
        assert normal32(np.random.default_rng(21), 0).shape == (0,)

    def test_edge_uniforms_stay_finite(self):
        class Edges:
            def random(self, n, dtype):
                u = np.zeros(n, dtype=dtype)
                u[: n // 2] = np.nextafter(np.float32(1.0), np.float32(0.0))
                return u

        x = normal32(Edges(), 4)
        assert np.isfinite(x).all() and np.abs(x).max() < 6.0


class TestKl:
    def test_zero_mu_gives_zero(self):
        g = make_gate([0.0, 0.0], [0.4, 2.0])
        assert kl_term(g).item() == 0.0

    def test_unit_ratio_gives_log2(self):
        g = make_gate([1.0], [1.0])
        assert math.isclose(kl_term(g).item(), math.log(2.0), rel_tol=1e-6)

    def test_three_to_one_gives_log10(self):
        g = make_gate([3.0], [1.0])
        assert math.isclose(kl_term(g).item(), math.log(10.0), rel_tol=1e-6)

    def test_nonnegative_and_zero_iff_zero_mu(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu = rng.uniform(-3, 3, size=4).astype(np.float32)
            sig = rng.uniform(0.05, 3, size=4)
            g = make_gate(mu, sig)
            v = kl_term(g).item()
            assert v >= 0.0
            if np.abs(mu).min() > 1e-3:
                assert v > 0.0

    def test_gradcheck(self):
        g = make_gate([0.9, -1.1, 0.3], [0.2, 0.5, 1.5])
        err = gradcheck(lambda ps: kl_term(g), [g.mu, g.log_sigma], eps=1e-4)
        assert err < 1e-4


class TestThresholding:
    def test_alpha_values(self):
        np.testing.assert_allclose(alpha(make_gate([2.0], [1.0])), [4.0], rtol=1e-6)
        np.testing.assert_allclose(alpha(make_gate([0.0], [0.1])), [0.0])
        np.testing.assert_allclose(alpha(make_gate([1.0, -1.0], [1.0, 1.0])), [1.0, 1.0],
                                   rtol=1e-6)

    def test_hard_mask_cases(self):
        assert hard_mask(make_gate([2.0], [1.0]), 0.0)[0] == 1.0  # log 4 > 0
        assert hard_mask(make_gate([1.0], [2.0]), 0.0)[0] == 0.0  # log 0.25 <= 0
        # boundary log alpha == tau is a drop
        assert hard_mask(make_gate([1.0], [1.0]), 0.0)[0] == 0.0

    def test_gate_vector_thresholds_like_its_gates(self):
        gates = [make_gate([2.0, 0.0, 1.0], [1.0, 0.1, 1.0]),   # keep, mu 0, tie
                 make_gate([0.3], [0.2]), make_gate([-3.0, 0.5], [2.0, 0.7])]
        v = GateVector(Tensor(np.concatenate([g.mu.data for g in gates])),
                       Tensor(np.concatenate([g.log_sigma.data for g in gates])))
        for tau in (-1.0, 0.0, 0.7):
            want = np.concatenate([hard_mask(g, tau) for g in gates])
            np.testing.assert_array_equal(hard_mask(v, tau), want)
        np.testing.assert_array_equal(alpha(v), np.concatenate([alpha(g) for g in gates]))

    def test_soft_keep_values(self):
        g = make_gate([1.0], [1.0])
        assert soft_keep(g, 0.0, 1.0).item() == pytest.approx(0.5)
        g = make_gate([2.0], [1.0])
        assert soft_keep(g, 0.0, 1.0).item() == pytest.approx(0.8, rel=1e-5)
        assert soft_keep(g, 0.0, 0.01).item() > 1.0 - 1e-6

    def test_temperature_contract(self):
        with pytest.raises(ContractError):
            soft_keep(make_gate([1.0], [1.0]), 0.0, 0.0)

    @given(
        mu=st.floats(min_value=-4, max_value=4).filter(lambda m: abs(m) > 1e-3),
        sigma=st.floats(min_value=0.01, max_value=10),
        tau=st.floats(min_value=-3, max_value=3),
        temp=st.floats(min_value=0.05, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_hard_matches_soft_threshold(self, mu, sigma, tau, temp):
        g = make_gate([mu], [sigma])
        la = float(np.log(alpha(g)[0]))
        if abs(la - tau) < 1e-4:
            return  # boundary treated separately
        hard = hard_mask(g, tau)[0]
        soft = soft_keep(g, tau, temp).item()
        assert hard == (1.0 if soft > 0.5 else 0.0)

    def test_saturated_soft_keep_stays_finite(self):
        # extremes that would overflow a naive sigmoid composition
        g = make_gate([1e-18, 1e12], [1e6, 1e-12])
        vals = soft_keep(g, 0.0, 1.0).data
        assert vals[0] == 0.0 and vals[1] == 1.0

    def test_soft_keep_gradients_flow(self):
        g = make_gate([1.2, 0.5], [0.5, 0.8])
        backward(tsum(soft_keep(g, 0.0, 1.0)))
        assert g.mu.grad is not None and g.log_sigma.grad is not None
        assert np.abs(g.mu.grad).max() > 0
