import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from skinspec import oracle
from skinspec.toeplitz2 import (
    PerturbedDimerParams,
    TridiagonalMatrix,
    build_perturbed,
    eigenvector_exact,
)
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


def test_inverse_iteration_stall_message_plain_float():
    T = TridiagonalMatrix([1.0, 2.0, 3.0], [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(oracle.ConvergenceError) as err:
        oracle.inverse_iteration_vector(T, np.float64(10.0))
    assert "lambda=10.0" in str(err.value)
    assert "np.float64" not in str(err.value)


def _reference_sturm_eigenvalues(S, tol, guess=None):
    """The per-round loop: one count sweep per widening step and per bisection round."""
    n = S.order
    off_sq = S.offdiag**2
    glo, ghi = oracle._gershgorin(S)
    lo, hi = np.full(n, glo), np.full(n, ghi)
    active = np.ones(n, dtype=bool)
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        half = 0.5 * tol * np.maximum(1.0, np.abs(guess))
        todo = np.arange(n)
        active = ~np.isfinite(guess)
        while len(todo):
            with np.errstate(invalid="ignore", over="ignore"):
                a = np.fmax(guess[todo] - half[todo], glo)
                b = np.fmin(guess[todo] + half[todo], ghi)
            counts = oracle._sturm_counts(S.diag, off_sq, np.concatenate([a, b]))
            ok = (counts[: len(todo)] <= todo) & (todo < counts[len(todo) :])
            lo[todo[ok]] = a[ok]
            hi[todo[ok]] = b[ok]
            todo = todo[~ok]
            active[todo] = True
            half[todo] *= 16.0
    k = np.arange(n)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        width_ok = (hi - lo) < tol * np.maximum(1.0, np.abs(mid))
        stuck = (mid <= lo) | (mid >= hi)
        active &= ~(width_ok | stuck)
        if not active.any():
            return mid
        counts = oracle._sturm_counts(S.diag, off_sq, mid[active])
        below = counts <= k[active]
        idx = np.flatnonzero(active)
        lo[idx[below]] = mid[idx[below]]
        hi[idx[~below]] = mid[idx[~below]]
    raise oracle.ConvergenceError("Sturm bisection did not converge")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    kind=st.sampled_from(["random", "dimer", "clustered"]),
    guess_kind=st.sampled_from(["none", "lapack", "relative", "absolute", "shifted"]),
    holes=st.sampled_from([(), (np.nan,), (np.inf, -np.inf), (np.nan, np.inf, -np.inf)]),
)
def test_sturm_eigenvalues_match_reference_loop(seed, n, kind, guess_kind, holes):
    # sturm_eigenvalues must give the bits of the plain per-round loop kept
    # above, without a guess and with near, far or non-finite guesses.
    rng = np.random.default_rng(seed)
    if kind == "dimer" and n >= 2:
        S = oracle.symmetrize(build_perturbed(random_admissible(rng), n))
    else:
        off = rng.uniform(0.1, 2.0, n - 1)
        if kind == "clustered":  # nearly decoupled blocks: eigenvalues in tight clusters
            off[rng.random(n - 1) < 0.5] *= 1e-9
        S = oracle.SymTridiagonal(rng.normal(size=n), off)
    tol = 1e-14
    guess = None
    if guess_kind != "none":
        guess = eigh_tridiagonal(S.diag, S.offdiag, eigvals_only=True)
        if guess_kind == "relative":
            guess = guess * (1.0 + 1e-13 * rng.normal(size=n))
        elif guess_kind == "absolute":
            guess = guess + 1e-9 * rng.normal(size=n)
        elif guess_kind == "shifted":  # off by about a gap: some lanes climb the whole ladder
            guess = guess + rng.uniform(-1.0, 1.0, size=n) * rng.choice([0.0, 1e-3, 1.0], size=n)
        for value in holes:
            guess[rng.random(n) < 0.2] = value
    expect = _reference_sturm_eigenvalues(S, tol, guess)
    got = oracle.sturm_eigenvalues(S, tol, guess=guess)
    assert got.tobytes() == expect.tobytes()


# Seeded matrix-spectrum workload, seed 1, order 1400 (negative sign pattern).
NEG_N1400 = PerturbedDimerParams(
    alpha1=1.276683114342298, alpha2=2.1130033010530402,
    beta1=-3.4172977047909026, beta2=-3.539592876664203,
    gamma1=-4.028589263260022, gamma2=-4.959335882885403,
    a=7.249398316599502, b=-9.5653126765575,
)


def test_sturm_guess_path_sweeps_only_failed_lanes(monkeypatch):
    # After the 2,800-shift certification sweep only the 5 lanes whose LAPACK
    # estimate misses its bracket are swept: one widening step, then bisection.
    S = oracle.symmetrize(build_perturbed(NEG_N1400, 1400))
    guess = eigh_tridiagonal(S.diag, S.offdiag, eigvals_only=True, lapack_driver="sterf")
    sweeps = []
    counts = oracle._sturm_counts

    def counted(diag, off_sq, xs):
        sweeps.append(len(xs))
        return counts(diag, off_sq, xs)

    monkeypatch.setattr(oracle, "_sturm_counts", counted)
    got = oracle.sturm_eigenvalues(S, 1e-14, guess=guess)
    assert sweeps == [2800, 10, 5, 5, 5, 5, 1]
    assert got.tobytes() == _reference_sturm_eigenvalues(S, 1e-14, guess).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("band", ["diag", "offdiag"])
@pytest.mark.parametrize("with_guess", [False, True])
def test_sturm_eigenvalues_rejects_non_finite_bands(bad, band, with_guess):
    bands = {"diag": np.array([1.0, 2.0, 2.0]), "offdiag": np.array([0.5, 0.5])}
    bands[band][1] = bad
    guess = np.array([0.5, 1.5, 2.5]) if with_guess else None
    with pytest.raises(ValueError, match="finite"):
        oracle.sturm_eigenvalues(oracle.SymTridiagonal(**bands), guess=guess)


def _reference_sturm_counts(diag, off_sq, xs):
    """Counts with every pivot floored as it is formed, one row at a time."""
    q = diag[0] - xs
    np.copyto(q, -oracle._PIVMIN, where=np.abs(q) < oracle._PIVMIN)
    count = (q < 0.0).astype(np.int64)
    for i in range(1, len(diag)):
        q = diag[i] - xs - off_sq[i - 1] / q
        np.copyto(q, -oracle._PIVMIN, where=np.abs(q) < oracle._PIVMIN)
        count += q < 0.0
    return count


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 120),
    shifts=st.sampled_from([1, 7, 300, 5000]),
    kind=st.sampled_from(["random", "integer", "tiny"]),
)
def test_sturm_counts_match_floored_rows(seed, n, shifts, kind):
    # Integer bands with zero couplings and half-integer shifts hit exact zero
    # pivots, which the blocked sweep must floor as the row-by-row one does;
    # 5000 shifts split the rows over several blocks.
    rng = np.random.default_rng(seed)
    if kind == "random":
        diag, off_sq = rng.normal(size=n), rng.normal(size=n - 1) ** 2
    elif kind == "integer":
        diag = rng.integers(-2, 3, size=n).astype(float)
        off_sq = rng.integers(0, 3, size=n - 1) * 0.25
    else:  # pivots down at the floor's magnitude
        diag, off_sq = rng.normal(size=n) * 1e-299, (rng.normal(size=n - 1) * 1e-150) ** 2
    xs = rng.integers(-4, 5, size=shifts) * 0.5
    if kind == "random":
        xs = xs + rng.normal(size=shifts)
    xs[: min(3, shifts)] = [np.nan, np.inf, -np.inf][: min(3, shifts)]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        expect = _reference_sturm_counts(diag, off_sq, xs)
    assert np.array_equal(oracle._sturm_counts(diag, off_sq, xs), expect)
