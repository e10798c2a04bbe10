import math

import numpy as np
import pytest

import skinspec as sk
from skinspec.capacitance import (
    ResonatorChain,
    dimer_coefficients,
    gauge_capacitance,
    generalized_matrix,
    interface_chain,
    mode_profile,
    subwavelength_frequencies,
)
from skinspec.toeplitz2 import build_interface, build_perturbed, decay_report, eigen_all

from conftest import random_equal_length_chain


def test_chain_validation():
    with pytest.raises(ValueError):
        ResonatorChain([1.0], [], [1.0])  # single resonator
    with pytest.raises(ValueError):
        ResonatorChain([1.0, 1.0], [1.0], [1.0, 0.0])  # zero gamma
    with pytest.raises(ValueError):
        ResonatorChain([1.0, 1.0], [1.0], [1.0, 1.0], delta=1.5)
    with pytest.raises(ValueError):
        ResonatorChain([1.0, -1.0], [1.0], [1.0, 1.0])


def test_gauge_capacitance_two_resonators():
    chain = ResonatorChain([1.0, 1.0], [1.0], [1.0, 1.0])
    C = gauge_capacitance(chain)
    assert C.diag[0] == pytest.approx(1.0 / (1.0 - math.exp(-1.0)))
    assert C.matvec(np.ones(2)) == pytest.approx([0.0, 0.0], abs=1e-15)


def test_gauge_capacitance_kernel_randomized():
    rng = np.random.default_rng(101)
    for _ in range(60):
        chain = random_equal_length_chain(rng)
        C = gauge_capacitance(chain)
        scale = max(np.abs(C.diag).max(), np.abs(C.upper).max(), np.abs(C.lower).max())
        assert np.max(np.abs(C.matvec(np.ones(chain.size)))) <= 1e-12 * scale


def test_dimer_coefficients_reference_values(dimer_chain_50):
    p = dimer_coefficients(dimer_chain_50)
    assert p.beta1 == pytest.approx(-1.0 / (1.0 - math.exp(-1.0)))
    assert p.gamma1 == pytest.approx(1.0 / (1.0 - math.exp(1.0)))
    assert p.gamma1 / p.beta1 == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert p.gamma2 / p.beta2 == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert p.skin_rate == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_dimer_consistency_entrywise():
    rng = np.random.default_rng(7)
    for _ in range(8):
        n = int(rng.integers(2, 30))
        chain = ResonatorChain.dimer(
            n,
            ell=rng.uniform(0.4, 1.8),
            s1=rng.uniform(0.3, 2.0),
            s2=rng.uniform(0.3, 2.0),
            gamma=rng.uniform(-1.5, 1.5) or 1.0,
        )
        C = gauge_capacitance(chain)
        B = build_perturbed(dimer_coefficients(chain), n)
        scale = np.abs(C.diag).max()
        assert np.max(np.abs(C.diag - B.diag)) <= 1e-14 * scale
        assert np.max(np.abs(C.upper - B.upper)) <= 1e-14 * scale
        assert np.max(np.abs(C.lower - B.lower)) <= 1e-14 * scale


def test_strong_gauge_overflow_raises():
    chain = ResonatorChain.dimer(6, gamma=800.0)
    with pytest.raises(FloatingPointError):
        gauge_capacitance(chain)
    with pytest.raises(FloatingPointError):
        dimer_coefficients(chain)


def test_dimer_coefficients_rejects_non_dimer():
    chain = ResonatorChain([1.0, 2.0, 1.0], [1.0, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        dimer_coefficients(chain)


def test_dimer_coefficients_gamma_sign_flip(dimer_chain_50):
    # Negating gamma swaps the sublattice roles and the beta/eta families:
    # the mirrored, left-localizing system.
    p = dimer_coefficients(dimer_chain_50)
    flipped = ResonatorChain(
        dimer_chain_50.lengths,
        dimer_chain_50.spacings,
        -dimer_chain_50.gammas,
        dimer_chain_50.delta,
        dimer_chain_50.v,
        dimer_chain_50.v_b,
    )
    q = dimer_coefficients(flipped)
    assert q.alpha1 == pytest.approx(p.alpha2)
    assert q.alpha2 == pytest.approx(p.alpha1)
    assert q.beta1 == pytest.approx(p.gamma1)
    assert q.beta2 == pytest.approx(p.gamma2)
    assert q.gamma1 == pytest.approx(p.beta1)
    assert q.gamma2 == pytest.approx(p.beta2)
    assert q.skin_rate == pytest.approx(1.0 / p.skin_rate)


def test_interface_chain_small():
    chain = interface_chain(4, 1.0)
    assert chain.gammas == pytest.approx([-1.0, -1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        interface_chain(5, 1.0)
    with pytest.raises(ValueError):
        interface_chain(4, -1.0)


def test_interface_capacitance_matches_block_construction():
    # For N = 4m+2 the interface capacitance matrix equals the mirrored-block
    # construction on the sublattice-swapped +gamma dimer coefficients, with
    # corner values beta2 and coupling eta1 (the gamma2 slot after the swap).
    for N in (6, 10, 62):
        m = (N - 2) // 4
        C = gauge_capacitance(interface_chain(N, 1.0))
        pp = dimer_coefficients(ResonatorChain.dimer(N))
        swapped = sk.PerturbedDimerParams(
            alpha1=pp.alpha2, alpha2=pp.alpha1, beta1=pp.beta2, beta2=pp.beta1,
            gamma1=pp.gamma2, gamma2=pp.gamma1, a=pp.beta2, b=pp.beta2,
        )
        B = build_interface(swapped, m, a=pp.beta2, b=pp.beta2)
        scale = np.abs(C.diag).max()
        assert np.max(np.abs(C.diag - B.diag)) <= 1e-14 * scale
        assert np.max(np.abs(C.upper - B.upper)) <= 1e-14 * scale
        assert np.max(np.abs(C.lower - B.lower)) <= 1e-14 * scale


def test_subwavelength_frequencies_kernel_and_order(dimer_chain_50):
    spec = subwavelength_frequencies(dimer_chain_50)
    assert spec.omegas[0] == 0.0
    assert np.all(np.diff(spec.omegas) >= 0)
    assert len(spec.negative_lambdas) == 0


def test_subwavelength_frequencies_equal_lengths_match_eigen_all(dimer_chain_50):
    params = dimer_coefficients(dimer_chain_50)
    lams = np.sort([q.lam for q in eigen_all(params, 50)])
    spec = subwavelength_frequencies(dimer_chain_50)
    assert spec.lambdas == pytest.approx(lams, abs=1e-10)


def test_subwavelength_frequencies_generalized_oracle():
    chain = ResonatorChain.dimer(4, ell=1.3, s1=0.9, s2=2.1, gamma=0.7, delta=0.01, v_b=1.4)
    spec = subwavelength_frequencies(chain)
    C = gauge_capacitance(chain).to_dense()
    V = np.diag(chain.lengths)
    ref = np.sort(np.linalg.eigvals(np.linalg.solve(V, C)).real)
    assert spec.lambdas == pytest.approx(ref, abs=1e-10)
    ref = np.where(np.abs(ref) <= 1e-10 * np.max(np.abs(ref)), 0.0, ref)  # kernel clamp
    ref_omega = chain.v_b * np.sqrt(chain.delta * np.clip(ref, 0.0, None))
    assert spec.omegas == pytest.approx(np.sort(ref_omega), abs=1e-10)


def test_generalized_matrix_band_signs(dimer_chain_50):
    G = generalized_matrix(dimer_chain_50)
    assert np.min(G.upper * G.lower) > 0.0


def test_mode_profile_constant():
    chain = ResonatorChain.dimer(4)
    prof = mode_profile(chain, np.ones(4), 5)
    assert np.all(prof.values == 1.0)
    assert prof.resonator_index_map.min() == -1
    assert prof.resonator_index_map.max() == 3


def test_mode_profile_tent():
    chain = ResonatorChain.dimer(4)
    e2 = np.zeros(4)
    e2[1] = 1.0
    prof = mode_profile(chain, e2, 7)
    left, right = chain.positions()
    outside = (prof.xs < right[0] - 1e-12) | (prof.xs > left[2] + 1e-12)
    assert np.max(np.abs(prof.values[outside])) == 0.0
    on_res = prof.resonator_index_map == 1
    assert np.all(prof.values[on_res] == 1.0)


def test_mode_profile_skin_mode_peaks_left(dimer_chain_50):
    params = dimer_coefficients(dimer_chain_50)
    pairs = eigen_all(params, 50)
    q = next(p for p in pairs if abs(p.lam) > 1e-6)
    rep = decay_report(q.vector, params)
    assert rep.satisfied
    prof = mode_profile(dimer_chain_50, q.vector, 3)
    on_res = prof.resonator_index_map >= 0
    peak = int(np.argmax(np.abs(prof.values) * on_res))
    assert prof.resonator_index_map[peak] in (0, 1)


def test_mode_profile_validation(dimer_chain_50):
    with pytest.raises(ValueError):
        mode_profile(dimer_chain_50, np.ones(49), 5)
    with pytest.raises(ValueError):
        mode_profile(dimer_chain_50, np.ones(50), 0)
