import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skinspec as sk
from skinspec import oracle
from skinspec.toeplitz2 import (
    DecayReport,
    NotAnEigenvalueError,
    bracket_report,
    build_interface,
    build_perturbed,
    certified_eigenvalues,
    char_poly,
    decay_report,
    eigen_all,
    eigenvector_exact,
    _fit_slope,
    interface_localization_check,
    mirrored_eigenvector,
)

from conftest import random_admissible


def test_params_admissibility():
    with pytest.raises(ValueError):
        sk.PerturbedDimerParams(0, 0, beta1=1, beta2=1, gamma1=-1, gamma2=1)
    p = sk.PerturbedDimerParams(0, 0, 1, 1, 1, 1)
    assert p.skin_rate == pytest.approx(1.0)


def test_build_perturbed_fig1_n3(fig1_params):
    T = build_perturbed(fig1_params, 3)
    assert T.diag == pytest.approx([10.0, 2.0, 11.0])
    assert T.upper == pytest.approx([3.0, 4.0])
    assert T.lower == pytest.approx([4.0, 5.0])


def test_build_perturbed_patterns(fig1_params):
    p = replace(fig1_params, a=0.0, b=0.0)
    T = build_perturbed(p, 5)
    assert T.diag == pytest.approx([1.0, 2.0, 1.0, 2.0, 1.0])
    T4 = build_perturbed(fig1_params, 4)
    assert T4.diag[-1] == pytest.approx(fig1_params.alpha2 + fig1_params.b)
    with pytest.raises(ValueError):
        build_perturbed(fig1_params, 1)


def test_char_poly_trivial_root(fig1_params):
    p = replace(fig1_params, a=0.0, b=0.0)
    for n in (3, 7, 11):
        assert char_poly(p, n, p.alpha1) == pytest.approx(0.0, abs=1e-9)


def test_char_poly_2x2(fig1_params):
    p = fig1_params
    for x in (-1.0, 0.7, 5.0):
        expect = (x - p.alpha1 - p.a) * (x - p.alpha2 - p.b) - p.beta1 * p.gamma1
        assert char_poly(p, 2, x) == pytest.approx(expect, rel=1e-13)


def test_char_poly_matches_determinant_sweep(fig1_params):
    rng = np.random.default_rng(2)
    for n in (4, 5, 9, 12):
        T = build_perturbed(fig1_params, n)
        for x in rng.uniform(-8.0, 16.0, 7):
            cp = char_poly(fig1_params, n, x)
            ds = oracle.det_sweep(T, x)
            assert cp == pytest.approx(ds, rel=1e-10, abs=1e-10 * max(1.0, abs(ds)))


def test_eigen_all_2x2_symmetric():
    p = sk.PerturbedDimerParams(0.0, 0.0, beta1=1.0, beta2=1.0, gamma1=1.0, gamma2=1.0)
    pairs = eigen_all(p, 2)
    assert [q.lam for q in pairs] == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert pairs[1].vector == pytest.approx([1.0, 1.0])
    assert pairs[0].klass == "bulk" and pairs[1].klass == "bulk"


def test_eigen_all_fig1_contains_target(fig1_params):
    pairs = eigen_all(fig1_params, 101)
    lams = np.array([q.lam for q in pairs])
    assert np.min(np.abs(lams - 11.6217)) < 5e-5
    assert all(q.method == "exact" for q in pairs)


def test_eigen_all_oracle_crosscheck_and_brackets():
    rng = np.random.default_rng(3)
    for _ in range(4):
        p = random_admissible(rng)
        pairs = eigen_all(p, 9)
        T = build_perturbed(p, 9)
        lams = oracle.sturm_eigenvalues(oracle.symmetrize(T))
        assert np.array([q.lam for q in pairs]) == pytest.approx(lams, rel=1e-10)
        for q in pairs:
            vi = oracle.inverse_iteration_vector(T, q.lam)
            assert min(np.max(np.abs(vi - q.vector)), np.max(np.abs(vi + q.vector))) < 1e-8


def test_eigenvalues_are_real_via_dense():
    rng = np.random.default_rng(4)
    p = random_admissible(rng)
    dense = build_perturbed(p, 17).to_dense()
    assert np.max(np.abs(np.linalg.eigvals(dense).imag)) < 1e-9


def test_eigenvector_exact_rejects_non_eigenvalue(fig1_params):
    with pytest.raises(NotAnEigenvalueError):
        eigenvector_exact(fig1_params, 9, 0.123456)


def test_eigenvector_exact_formula_degeneracy_falls_back():
    # a = b = 0, odd order: lambda = alpha1 is an eigenvalue but the closed
    # form degenerates to the zero vector there (both seeds vanish);
    # eigen_all must still produce the pair through inverse iteration.
    p = sk.PerturbedDimerParams(0.5, 2.0, 1.0, 1.5, 1.2, 0.7, a=0.0, b=0.0)
    pairs = eigen_all(p, 9)
    k = int(np.argmin([abs(q.lam - p.alpha1) for q in pairs]))
    assert pairs[k].lam == pytest.approx(p.alpha1, abs=1e-10)
    assert pairs[k].residual <= 1e-9
    with pytest.raises(NotAnEigenvalueError, match="degenerates"):
        eigenvector_exact(p, 9, p.alpha1)


def test_exact_residuals_up_to_201(fig1_params):
    for n in (52, 101, 201):
        pairs = eigen_all(fig1_params, n)
        for q in pairs:
            assert q.residual <= 1e-9 * max(1.0, abs(q.lam))


def test_exceptional_counts_randomized():
    rng = np.random.default_rng(6)
    for n in (41, 81, 101):
        for _ in range(3):
            p = random_admissible(rng)
            pairs = eigen_all(p, n)
            exceptional = sum(1 for q in pairs if q.klass == "exceptional")
            allowance = 11 if n % 2 else 12
            assert exceptional <= allowance


def test_bracket_report_fig1(fig1_params):
    rep101 = bracket_report(eigen_all(fig1_params, 101), fig1_params, 101)
    assert rep101.allowance == 11
    assert rep101.ok
    rep100 = bracket_report(eigen_all(fig1_params, 100), fig1_params, 100)
    assert rep100.allowance == 12
    assert rep100.ok


def test_mu_theta_classification(fig1_params):
    for q in eigen_all(fig1_params, 41):
        assert q.mu == pytest.approx(sk.y_map(fig1_params, q.lam))
        if q.klass == "bulk":
            assert abs(q.mu) <= 1.0 + 1e-10
            assert q.mu == pytest.approx(math.cos(q.theta), abs=1e-12)
        else:
            assert abs(q.mu) > 1.0 + 1e-10
            assert q.theta is None


def test_mirror_conjugation_entrywise(fig1_params):
    for n in (3, 8, 13):
        p = fig1_params.mirror_params(n)
        A = build_perturbed(fig1_params, n).mirrored()
        B = build_perturbed(p, n)
        assert B.diag == pytest.approx(A.diag)
        assert B.upper == pytest.approx(A.upper)
        assert B.lower == pytest.approx(A.lower)


def test_mirrored_eigenvector_small(fig1_params):
    lams = oracle.sturm_eigenvalues(oracle.symmetrize(build_perturbed(fig1_params, 3)))
    v = mirrored_eigenvector(fig1_params, 3, lams[1])
    ve = eigenvector_exact(fig1_params, 3, lams[1])
    assert v == pytest.approx(oracle.sign_fixed(ve[::-1]))


def test_mirrored_eigenvector_palindromic():
    # beta1 = gamma2, beta2 = gamma1, a = b: the matrix equals its own mirror.
    p = sk.PerturbedDimerParams(1.0, 2.0, beta1=1.5, beta2=0.8, gamma1=0.8, gamma2=1.5, a=0.3, b=0.3)
    lams = oracle.sturm_eigenvalues(oracle.symmetrize(build_perturbed(p, 7)))
    for lam in lams[::3]:
        vm = mirrored_eigenvector(p, 7, lam)
        v0 = eigenvector_exact(p, 7, lam)
        assert vm == pytest.approx(oracle.sign_fixed(v0[::-1]), abs=1e-12)


def test_mirrored_eigenvector_residual_n21(fig1_params):
    T = build_perturbed(fig1_params.swapped(), 21)
    lams = oracle.sturm_eigenvalues(oracle.symmetrize(build_perturbed(fig1_params, 21)))
    for lam in lams[::5]:
        v = mirrored_eigenvector(fig1_params, 21, lam)
        assert np.max(np.abs(T.matvec(v) - lam * v)) <= 1e-9 * max(1.0, abs(lam))
    with pytest.raises(ValueError):
        mirrored_eigenvector(fig1_params, 8, lams[0])


def test_build_interface_m1(fig1_params):
    p = fig1_params
    G = build_interface(p, 1, a=p.a, b=p.b)
    assert G.order == 6
    assert G.diag == pytest.approx(
        [p.alpha1 + p.a, p.alpha2, p.alpha1, p.alpha1, p.alpha2, p.alpha1 + p.b]
    )
    dense = G.to_dense()
    assert dense[2, 3] == pytest.approx(p.gamma2)
    assert dense[3, 2] == pytest.approx(p.gamma2)
    with pytest.raises(ValueError):
        build_interface(p, 0, 0.0, 0.0)


def test_build_interface_persymmetric_when_symmetric():
    p = sk.PerturbedDimerParams(1.0, 2.0, beta1=1.5, beta2=0.6, gamma1=1.5, gamma2=0.6, a=0.2, b=0.2)
    G = build_interface(p, 2, a=0.2, b=0.2).to_dense()
    assert np.allclose(G, G[::-1, ::-1].T)


def test_decay_report_saturated_bound(dimer_chain_50):
    params = sk.dimer_coefficients(dimer_chain_50)
    s = params.skin_rate
    j = np.arange(1, 41)
    v = s ** ((j - 1) // 2)
    rep = decay_report(v, params)
    assert rep.satisfied
    assert rep.bound_constant <= 1.0 + 1e-12
    assert rep.rate_fit == pytest.approx(math.log(s), rel=1e-6)
    assert rep.rate_theory == pytest.approx(-1.0)


def test_decay_report_flags_constant_vector(dimer_chain_50):
    params = sk.dimer_coefficients(dimer_chain_50)
    rep = decay_report(np.ones(50), params)
    assert not rep.satisfied
    assert rep.rate_fit == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        decay_report(np.zeros(10), params)


def test_decay_report_bound_beyond_float_range():
    # s^-(j-1)/2 overflows for a flat vector at gamma*ell = 14, N = 120.
    params = sk.dimer_coefficients(sk.ResonatorChain.dimer(120, gamma=14.0))
    rep = decay_report(np.ones(120), params)
    assert rep.bound_constant == math.inf
    assert not rep.satisfied


def test_decay_report_dimer_modes(dimer_chain_50):
    params = sk.dimer_coefficients(dimer_chain_50)
    for q in eigen_all(params, 50):
        rep = decay_report(q.vector, params)
        if abs(q.lam) < 1e-10:
            assert not rep.satisfied
        else:
            assert rep.satisfied
            assert abs(rep.rate_fit - (-1.0)) <= 0.05


def test_interface_check_synthetic_spike():
    m, n = 30, 60
    j = np.arange(1, n + 1)
    v = np.exp(-np.abs(j - m) / 2.0)
    rep = interface_localization_check(v, m, 1.0)
    assert rep.satisfied
    assert rep.peak_index == m
    assert rep.rate_fit_left == pytest.approx(0.5, rel=1e-9)
    assert rep.rate_fit_right == pytest.approx(-0.5, rel=1e-9)


def test_interface_check_flags_flat_vector():
    rep = interface_localization_check(np.ones(60), 30, 1.0)
    assert not rep.satisfied
    with pytest.raises(ValueError):
        interface_localization_check(np.ones(10), 9, 1.0)


def test_interface_check_bound_beyond_float_range():
    # exp(gamma*ell*d/2) overflows for a flat vector at gamma*ell = 40.
    rep = interface_localization_check(np.ones(90), 45, 40.0)
    assert rep.bound_constant == math.inf
    assert not rep.satisfied


def test_certified_eigenvalues_ascending_on_strong_interface():
    # Adjacent certified brackets overlap here; their midpoints used to descend.
    lams = certified_eigenvalues(sk.generalized_matrix(sk.interface_chain(160, 16.0)))
    assert len(lams) == 160
    assert np.all(np.diff(lams) >= 0.0)


def _interface_check_reference(v: np.ndarray, m: int, gamma_ell: float) -> DecayReport:
    """The per-cell loop that interface_localization_check replaced."""
    n = len(v)
    v_abs = np.abs(v)
    half_rate = gamma_ell / 2.0
    j = np.arange(1, n + 1, dtype=float)
    dist = np.abs(j - m)
    mask = dist > 0
    with np.errstate(divide="ignore"):
        log_ratio = np.log(v_abs[mask]) - np.log(dist[mask]) + half_rate * dist[mask]
    bound_constant = float(np.exp(np.max(log_ratio)))
    peak_index = int(np.argmax(v_abs)) + 1

    def side_rate(sites, d):
        keep = (d >= 2) & (sites >= 3) & (sites <= n - 2)
        sites, d = sites[keep], d[keep]
        if len(sites) == 0:
            return math.nan
        cell = (d // 2).astype(int)
        centers, logs = [], []
        for c in np.unique(cell):
            sel = cell == c
            env = v_abs[sites[sel] - 1].max()
            if env <= 1e-250:
                continue
            centers.append(sites[sel].mean())
            logs.append(math.log(env))
        return _fit_slope(np.asarray(centers), np.asarray(logs))

    left_sites = np.arange(1, m + 1)
    right_sites = np.arange(m + 1, n + 1)
    rate_left = side_rate(left_sites, m - left_sites)
    rate_right = side_rate(right_sites, right_sites - (m + 1))
    finite = np.isfinite(rate_left) and np.isfinite(rate_right)
    rtol = 0.1 * half_rate
    rates_ok = (
        finite
        and rate_left > 0.0
        and rate_right < 0.0
        and abs(abs(rate_left) - half_rate) <= rtol
        and abs(abs(rate_right) - half_rate) <= rtol
    )
    peak_ok = min(abs(peak_index - m), abs(peak_index - (m + 1))) <= 2
    return DecayReport(
        rate_fit=-(abs(rate_left) + abs(rate_right)) / 2.0 if finite else math.nan,
        rate_theory=-half_rate,
        bound_constant=bound_constant,
        satisfied=bool(peak_ok and rates_ok),
        rate_fit_left=rate_left,
        rate_fit_right=rate_right,
        peak_index=peak_index,
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_interface_check_matches_reference_loop(data):
    n = data.draw(st.integers(4, 90), label="n")
    m = data.draw(st.one_of(st.just(2), st.just(n - 2), st.integers(2, n - 2)), label="m")
    # Magnitudes from 1e-330 (zero) through the 1e-250 cut-off to 1e3.
    exponents = np.array(data.draw(st.lists(st.floats(-330.0, 3.0), min_size=n, max_size=n)))
    signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    v = signs * 10.0**exponents
    tiny = data.draw(st.sampled_from(["none", "left", "right"]), label="tiny side")
    if tiny == "left":
        v[:m] *= 1e-260
    elif tiny == "right":
        v[m:] *= 1e-260
    v[m - 1] = 1.0  # never the zero vector
    gamma_ell = data.draw(st.floats(0.05, 12.0), label="gamma_ell")
    rep = interface_localization_check(v, m, gamma_ell)
    # Exact: the repr tells -0.0, nan and every last bit apart.
    assert repr(astuple(rep)) == repr(astuple(_interface_check_reference(v, m, gamma_ell)))


def test_oracle_exact_agreement_large(fig1_params):
    T = build_perturbed(fig1_params, 201)
    lams = oracle.sturm_eigenvalues(oracle.symmetrize(T))
    pairs = eigen_all(fig1_params, 201)
    assert np.array([q.lam for q in pairs]) == pytest.approx(lams, rel=1e-10)


def test_eigen_all_1400_both_sign_patterns(fig1_params):
    for sign in (1.0, -1.0):
        p = replace(
            fig1_params,
            beta1=sign * fig1_params.beta1, beta2=sign * fig1_params.beta2,
            gamma1=sign * fig1_params.gamma1, gamma2=sign * fig1_params.gamma2,
        )
        pairs = eigen_all(p, 1400)
        lams = np.array([q.lam for q in pairs])
        ref = oracle.sturm_eigenvalues(oracle.symmetrize(build_perturbed(p, 1400)))
        assert np.all(np.abs(lams - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
        assert all(q.method == "exact" for q in pairs)
        assert all(q.residual <= 1e-9 * max(1.0, abs(q.lam)) for q in pairs)
