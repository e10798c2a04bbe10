import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from skinspec.polycore import (
    RecurrenceSpec,
    cheb_eval,
    cheb_u_roots,
    hat_sequences,
    y_map,
)


def test_cheb_eval_known_values():
    assert cheb_eval("second", 0, 0.3) == 1.0
    assert cheb_eval("second", 2, 1.0) == pytest.approx(3.0, abs=0.0)
    assert cheb_eval("first", 2, 0.5) == pytest.approx(-0.5, abs=1e-15)
    # U_k(1) = k + 1 along the whole ladder
    for k in range(12):
        assert cheb_eval("second", k, 1.0) == pytest.approx(k + 1.0)


def test_cheb_eval_rejects_bad_input():
    with pytest.raises(ValueError):
        cheb_eval("third", 2, 0.5)
    with pytest.raises(ValueError):
        cheb_eval("first", -1, 0.5)


def test_cheb_u_roots_small():
    assert cheb_u_roots(1) == pytest.approx([0.0], abs=1e-16)
    r3 = cheb_u_roots(3)
    assert r3 == pytest.approx([math.sqrt(2) / 2, 0.0, -math.sqrt(2) / 2], abs=1e-15)
    assert np.all(np.diff(r3) < 0)
    with pytest.raises(ValueError):
        cheb_u_roots(0)


def test_cheb_u_roots_vanish_under_evaluation():
    # Independent check: the returned points really are roots of U_10.
    for r in cheb_u_roots(10):
        assert abs(cheb_eval("second", 10, r)) < 1e-12


def test_cheb_bounds_on_interval():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1.0, 1.0, 64)
    for n in (0, 1, 3, 10, 30):
        assert np.max(np.abs(cheb_eval("first", n, xs))) <= 1.0 + 1e-12
        assert np.max(np.abs(cheb_eval("second", n, xs))) <= n + 1.0 + 1e-12


def test_u_identity_sin_ratio():
    # U_n(cos t) * sin t = sin((n+1) t)
    thetas = np.linspace(0.1, math.pi - 0.1, 53)
    for n in (1, 5, 20, 100):
        vals = cheb_eval("second", n, np.cos(thetas)) * np.sin(thetas)
        assert np.max(np.abs(vals - np.sin((n + 1) * thetas))) < 1e-10


def test_y_map_values():
    p = SimpleNamespace(alpha1=0.0, alpha2=0.0, beta1=1.0, gamma1=1.0, beta2=1.0, gamma2=1.0)
    assert y_map(p, 2.0) == pytest.approx(1.0)
    assert y_map(p, 0.0) == pytest.approx(-1.0)


def test_y_map_fig1_value_exceptional():
    # High-precision oracle: exact rational numerator over float sqrt(240).
    p = SimpleNamespace(alpha1=1.0, alpha2=2.0, beta1=3.0, gamma1=4.0, beta2=4.0, gamma2=5.0)
    x = 11.6217
    num = (Fraction(116217, 10000) - 1) * (Fraction(116217, 10000) - 2) - 12 - 20
    expected = float(num) / (2.0 * math.sqrt(240.0))
    got = y_map(p, x)
    assert got == pytest.approx(expected, rel=1e-14)
    assert abs(got) > 1.0  # one of the exceptional eigenvalues


def test_y_map_rejects_inadmissible():
    p = SimpleNamespace(alpha1=0.0, alpha2=0.0, beta1=1.0, gamma1=-1.0, beta2=1.0, gamma2=1.0)
    with pytest.raises(ValueError):
        y_map(p, 0.5)


def test_recurrence_spec_validation():
    with pytest.raises(ValueError):
        RecurrenceSpec(mu=0.1, beta_ratio=0.0, xi_p=1.0, xi_q=1.0)
    with pytest.raises(ValueError):
        RecurrenceSpec(mu=0.1, beta_ratio=np.array([2.0, -1.0]), xi_p=1.5, xi_q=0.5)


def test_hat_initial_values():
    # q_hat_1 - p_hat_1 = beta * xi_p, and the explicit first entries.
    spec = RecurrenceSpec(mu=0.37, beta_ratio=1.3, xi_p=1.0, xi_q=1.0)
    h = hat_sequences(spec, 3)
    assert h.q_hat[1] - h.p_hat[1] == pytest.approx(1.3 * spec.xi_p)
    assert h.p_hat[0] == spec.xi_p
    assert h.q_hat[0] == spec.xi_q
    d = (spec.xi_p - spec.xi_q) / spec.beta_ratio
    assert h.p_hat[1] == pytest.approx(2 * spec.mu * spec.xi_p + d)
    assert h.q_hat[1] == pytest.approx((2 * spec.mu + spec.beta_ratio) * spec.xi_p + d)


def test_hat_reduces_to_chebyshev_for_equal_seeds():
    # a = 0 with xi_p = xi_q = c collapses p_hat_k to c * U_k(mu).
    c = -2.2
    mu = math.cos(0.9)
    h = hat_sequences(RecurrenceSpec(mu=mu, beta_ratio=0.8, xi_p=c, xi_q=c), 20)
    for k in range(21):
        assert h.p_hat[k] == pytest.approx(c * cheb_eval("second", k, mu), rel=1e-12, abs=1e-12)


def test_recurrence_consistency_randomized():
    rng = np.random.default_rng(1234)
    for _ in range(40):
        mu = rng.uniform(-1.5, 1.5)
        spec = RecurrenceSpec(
            mu=mu,
            beta_ratio=rng.uniform(0.2, 3.0),
            xi_p=rng.uniform(-4, 4),
            xi_q=rng.uniform(-4, 4),
        )
        h = hat_sequences(spec, 60)
        for seq in (h.p_hat, h.q_hat):
            for k in range(1, 60):
                # Compare on the scale of index k+1; scale factors <= 1.
                f_k = math.exp(h.scale_log[k] - h.scale_log[k + 1])
                f_km1 = math.exp(h.scale_log[k - 1] - h.scale_log[k + 1])
                resid = seq[k + 1] - (2 * mu * seq[k] * f_k - seq[k - 1] * f_km1)
                assert abs(resid) <= 1e-12 * max(1.0, abs(seq[k + 1]))


def test_rescaling_keeps_values_finite():
    spec = RecurrenceSpec(mu=3.0, beta_ratio=1.0, xi_p=1.0, xi_q=0.5)
    h = hat_sequences(spec, 1200)
    assert np.all(np.isfinite(h.p_hat))
    assert np.all(np.isfinite(h.q_hat))
    assert h.scale_log[-1] > 0.0
    # log-magnitude keeps growing linearly ~ log(mu + sqrt(mu^2-1))
    lp, _ = h.log_abs()
    growth = (lp[1100] - lp[600]) / 500.0
    assert growth == pytest.approx(math.log(3.0 + math.sqrt(8.0)), rel=1e-3)


def test_linear_growth_bound_on_chebyshev_interval():
    # For |mu| <= 1 both families grow at most linearly in k:
    # |p_hat_k| <= (k+1)|xi_p| + k|xi_p - xi_q|/beta and the analogous
    # two-term bound for q_hat.
    rng = np.random.default_rng(77)
    ks = np.arange(201)
    for _ in range(25):
        spec = RecurrenceSpec(
            mu=rng.uniform(-1.0, 1.0),
            beta_ratio=rng.uniform(0.2, 3.0),
            xi_p=rng.uniform(-4, 4),
            xi_q=rng.uniform(-4, 4),
        )
        h = hat_sequences(spec, 200)
        d = abs(spec.xi_p - spec.xi_q) / spec.beta_ratio
        bound_p = (ks + 1) * abs(spec.xi_p) + ks * d
        assert np.all(np.abs(h.p_hat) <= bound_p * (1 + 1e-12) + 1e-12)
        b0 = abs(h.q_hat[1] - 2 * spec.mu * h.q_hat[0])
        bound_q = (ks + 1) * abs(spec.xi_q) + ks * b0
        assert np.all(np.abs(h.q_hat) <= bound_q * (1 + 1e-12) + 1e-12)


def test_hat_sequences_rejects_bad_input():
    spec = RecurrenceSpec(mu=0.0, beta_ratio=1.0, xi_p=1.0, xi_q=1.0)
    with pytest.raises(ValueError):
        hat_sequences(spec, -1)
    h = hat_sequences(spec, 0)
    assert len(h.p_hat) == 1


def _scalar_hats(spec: RecurrenceSpec, k_max: int):
    """Reference recurrence, one Python float at a time, with the 2**512 rescale rule."""
    p0, p1, q0, q1 = (float(v) for v in spec.initial_values)
    two_mu = 2.0 * spec.mu
    p, q, scale = [p0, p1], [q0, q1], [0.0, 0.0]
    pp, pc, qp, qc = p0, p1, q0, q1
    running = 0.0
    for _ in range(2, k_max + 1):
        pp, pc = pc, two_mu * pc - pp
        qp, qc = qc, two_mu * qc - qp
        if max(abs(pc), abs(qc), abs(pp), abs(qp)) > 2.0**512:
            pp, pc, qp, qc = (x * 2.0**-512 for x in (pp, pc, qp, qc))
            running += 512.0 * math.log(2.0)
        p.append(pc)
        q.append(qc)
        scale.append(running)
    return np.array(p), np.array(q), np.array(scale)


def test_lane_hats_match_scalar_reference_bitwise():
    # Bulk lanes, |mu| > 1 lanes that rescale many times, and two lanes whose
    # initial pair already exceeds 2**512: one rescaled by its k = 2 values
    # too, one (mu = 0) only because the initial pair enters the k = 2 test.
    rng = np.random.default_rng(4321)
    extra = np.array([
        # mu, beta_ratio, xi_p, xi_q
        [3.0, 1.0, 1.0, 0.5],
        [-40.0, 0.7, -2.0, 3.0],
        [1e100, 0.7, 1e60, 1.0],
        [0.0, 1e-10, 1e150, -1e150],
    ])
    mu, beta, xi_p, xi_q = np.vstack([
        np.array([rng.uniform(-1.2, 1.2, 40), rng.uniform(0.2, 3.0, 40),
                  rng.uniform(-4, 4, 40), rng.uniform(-4, 4, 40)]).T,
        extra,
    ]).T
    k_max = 1200
    h = hat_sequences(RecurrenceSpec(mu=mu, beta_ratio=beta, xi_p=xi_p, xi_q=xi_q), k_max)
    assert h.p_hat.shape == (k_max + 1, len(mu))
    assert np.all(h.scale_log[2, -2:] > 0.0)
    assert np.all(h.scale_log[-1, -4:] > 0.0)
    for j in range(len(mu)):
        lane = RecurrenceSpec(
            mu=float(mu[j]), beta_ratio=float(beta[j]), xi_p=float(xi_p[j]), xi_q=float(xi_q[j])
        )
        ref = _scalar_hats(lane, k_max)
        single = hat_sequences(lane, k_max)
        for got, one, want in zip(
            (h.p_hat[:, j], h.q_hat[:, j], h.scale_log[:, j]),
            (single.p_hat, single.q_hat, single.scale_log),
            ref,
        ):
            assert np.array_equal(got, want)
            assert np.array_equal(one, want)
