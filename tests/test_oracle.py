import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from skinspec import oracle
from skinspec.toeplitz2 import TridiagonalMatrix, build_perturbed, eigenvector_exact
from skinspec.capacitance import ResonatorChain, gauge_capacitance

from conftest import random_admissible


def test_symmetrize_symmetric_input():
    T = TridiagonalMatrix([1.0, 2.0, 3.0], [0.5, -0.25], [0.5, -0.25])
    S = oracle.symmetrize(T)
    assert S.offdiag == pytest.approx([0.5, 0.25])
    assert S.diag == pytest.approx([1.0, 2.0, 3.0])


def test_symmetrize_band_products(fig1_params):
    T = build_perturbed(fig1_params, 3)
    S = oracle.symmetrize(T)
    assert S.offdiag == pytest.approx([math.sqrt(12.0), math.sqrt(20.0)])


def test_symmetrize_rejects_sign_flip():
    T = TridiagonalMatrix([0.0, 0.0], [1.0], [-1.0])
    with pytest.raises(ValueError):
        oracle.symmetrize(T)


def test_symmetrize_preserves_spectrum_by_sign_alternation():
    # Determinant-sweep certificate: between consecutive eigenvalues of the
    # symmetrized matrix the characteristic polynomial of the original
    # matrix alternates sign, so both share the same n simple eigenvalues.
    rng = np.random.default_rng(5)
    p = random_admissible(rng)
    T = build_perturbed(p, 8)
    lams = oracle.sturm_eigenvalues(oracle.symmetrize(T))
    assert len(lams) == 8
    mids = 0.5 * (lams[1:] + lams[:-1])
    signs = [math.copysign(1.0, oracle.det_sweep(T, x)) for x in mids]
    assert all(signs[i] != signs[i + 1] for i in range(len(signs) - 1))
    for lam in lams:
        left = oracle.det_sweep(T, lam - 1e-7)
        right = oracle.det_sweep(T, lam + 1e-7)
        assert math.copysign(1.0, left) != math.copysign(1.0, right)


def test_sturm_count_bounds_and_2x2():
    S = oracle.SymTridiagonal([0.0, 0.0], [1.0])
    assert oracle.sturm_count(S, -10.0) == 0
    assert oracle.sturm_count(S, 10.0) == 2
    assert oracle.sturm_count(S, 0.0) == 1  # eigenvalues -1, +1


def test_sturm_eigenvalues_scalar():
    S = oracle.SymTridiagonal([5.0], [])
    assert oracle.sturm_eigenvalues(S) == pytest.approx([5.0])


def test_sturm_eigenvalues_chebyshev_spectrum():
    # Free tridiagonal Toeplitz matrix: eigenvalues 2 cos(k pi / 8), k=1..7.
    S = oracle.SymTridiagonal(np.zeros(7), np.ones(6))
    lams = oracle.sturm_eigenvalues(S)
    expect = np.sort(2.0 * np.cos(np.arange(1, 8) * np.pi / 8.0))
    assert lams == pytest.approx(expect, abs=1e-12)


def test_unperturbed_odd_dimer_has_alpha1(fig1_params):
    from dataclasses import replace

    p = replace(fig1_params, a=0.0, b=0.0)
    lams = oracle.sturm_eigenvalues(oracle.symmetrize(build_perturbed(p, 9)))
    assert np.min(np.abs(lams - p.alpha1)) < 1e-12


def test_sturm_count_certification():
    rng = np.random.default_rng(17)
    p = random_admissible(rng)
    S = oracle.symmetrize(build_perturbed(p, 21))
    lams = oracle.sturm_eigenvalues(S)
    counts = [oracle.sturm_count(S, 0.5 * (lams[i] + lams[i + 1])) for i in range(20)]
    assert counts == list(range(1, 21))


def test_sturm_matches_lapack():
    rng = np.random.default_rng(23)
    diag = rng.normal(size=30)
    off = rng.uniform(0.1, 2.0, 29)
    S = oracle.SymTridiagonal(diag, off)
    lams = oracle.sturm_eigenvalues(S)
    ref = eigh_tridiagonal(diag, off, eigvals_only=True)
    assert lams == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_sturm_guess_certifies_or_widens_back_to_oracle():
    # LAPACK estimates are certified in place; estimates off by 1e-6, by a
    # whole eigenvalue gap, or not finite fail certification and are widened
    # and bisected back to the eigenvalues of the guess-free oracle.
    rng = np.random.default_rng(37)
    S = oracle.symmetrize(build_perturbed(random_admissible(rng), 40))
    ref = oracle.sturm_eigenvalues(S)
    gap = np.append(np.diff(ref), 1.0)
    lapack = eigh_tridiagonal(S.diag, S.offdiag, eigvals_only=True, lapack_driver="sterf")
    for guess in (lapack, ref + 1e-6, ref + gap, ref - gap, np.full(40, np.nan)):
        lams = oracle.sturm_eigenvalues(S, guess=guess)
        assert np.all(np.abs(lams - ref) <= 2e-14 * np.maximum(1.0, np.abs(ref)))
    with pytest.raises(ValueError):
        oracle.sturm_eigenvalues(S, guess=ref[:-1])


def test_interlacing_with_trailing_submatrix():
    rng = np.random.default_rng(29)
    p = random_admissible(rng)
    S = oracle.symmetrize(build_perturbed(p, 12))
    full = oracle.sturm_eigenvalues(S)
    sub = oracle.sturm_eigenvalues(oracle.SymTridiagonal(S.diag[1:], S.offdiag[1:]))
    for i in range(11):
        assert full[i] <= sub[i] + 1e-12
        assert sub[i] <= full[i + 1] + 1e-12


def test_inverse_iteration_2x2():
    T = TridiagonalMatrix([0.0, 0.0], [1.0], [1.0])
    v = oracle.inverse_iteration_vector(T, 1.0)
    assert v == pytest.approx([1.0, 1.0], abs=1e-12)


def test_inverse_iteration_kernel_of_capacitance():
    C = gauge_capacitance(ResonatorChain.dimer(12))
    v = oracle.inverse_iteration_vector(C, 0.0)
    assert v == pytest.approx(np.ones(12), abs=1e-9)


def test_inverse_iteration_matches_exact_formula():
    rng = np.random.default_rng(31)
    for _ in range(3):
        p = random_admissible(rng)
        T = build_perturbed(p, 15)
        lams = oracle.sturm_eigenvalues(oracle.symmetrize(T))
        for lam in lams[::4]:
            vi = oracle.inverse_iteration_vector(T, lam)
            ve = eigenvector_exact(p, 15, lam)
            assert min(np.max(np.abs(vi - ve)), np.max(np.abs(vi + ve))) < 1e-8


def test_inverse_iteration_rejects_non_eigenvalue():
    T = TridiagonalMatrix([0.0, 0.0], [1.0], [1.0])
    with pytest.raises(oracle.ConvergenceError):
        oracle.inverse_iteration_vector(T, 0.37)
