"""Tests for the exact few-boson engine and counting calculus."""

import dataclasses
import importlib.util
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from tfcond import manybody as mb
from tfcond.grids import Field, apply_symbol, make_grid
from tfcond.harness import TOLERANCES
from tfcond.manybody import (
    ManyBodyState,
    ModeBasis,
    ProjectorContext,
    SymmetricSector,
    TrackReport,
    _rate_bounds,
    _shifted,
    _TensorEngine,
    _evaluate,
    assemble,
    build,
    evolve_and_track,
    ground_state,
    gp_modes_ground,
    hartree_from_hamiltonian,
    mu_weights,
    op_norm,
    pair_tensor,
    product_state,
    reduced_density,
    verify_appendix,
    verify_gap_chain,
)
from tfcond.model import InteractionSpec, RegimeParams, TrapSpec

# a nan from a 0/0 in the many-body layer fails the test instead of passing silently
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def alpha(psi, phi, lam, H=None):
    """The counting report of psi against phi, as evolve_and_track evaluates it."""
    return _evaluate(ProjectorContext(psi.sector, phi), psi, lam, H)


# frozen two-boson reference: h = diag(1, 2), w = [[1, .3], [.3, .5]],
# H = h1 + h2 + (g/N) W12 with g = 0.7, N = 2 (tests/oracles/twoboson_oracle.py)
TWOBOSON_SPECTRUM = (2.35, 3.105, 4.175)


def _diag_pair_tensor(w):
    M = w.shape[0]
    X = np.zeros((M * M, M * M), dtype=complex)
    for a in range(M):
        for b in range(M):
            X[a * M + b, a * M + b] = w[a, b]
    return X


# ---------------------------------------------------------------------------
# Test-side builders: a one-excitation state and the positive-type bound of
# the pair interaction against a mean-field reference.


def excitation_state(sector, phi, chi):
    """Symmetrized chi (x) phi^{(x) (N-1)}, i.e. adag(chi) applied to the product."""
    N, M = sector.N, sector.M
    prod = product_state(SymmetricSector(N - 1, M), phi).vector if N > 1 else np.ones(1)
    return ManyBodyState(sector, sector.lowering.T @ np.kron(chi, prod))


def interaction_lower_bound(H, phi):
    """Smallest eigenvalue of the positive-type interaction estimate.

    For kernels of positive type,
    (g/N) sum_{j<k} v_N(jk) >= -(g N / 2) <rho, v_N * rho> + g sum_j (v_N * rho)(x_j)
                               - g v_N(0),
    tested against rho = |phi|^2 as a sector matrix inequality, with
    v_N * rho the mean-field matrix W(phi) and <rho, v_N * rho> = phi^H W phi;
    the minimum eigenvalue should be nonnegative up to rounding.  H must be
    grid-built, so that it carries its kernel.
    """
    c = np.asarray(phi, dtype=complex)
    c = c / np.linalg.norm(c)
    W = mb._mean_field_matrix(H.v_tensor, c)
    ip = float((c.conj() @ W @ c).real)
    v0 = float(H.kernel.values.real[H.kernel.grid.n // 2])  # kernel sampled at the origin
    g, N = H.g, H.sector.N
    lhs = (g / (2 * N)) * H.sector.two_body_matrix(H.v_tensor)
    rhs = g * H.sector.one_body_matrix(W) - (g * N / 2 * ip + g * v0) * np.eye(H.sector.D)
    return float(np.min(np.linalg.eigvalsh(lhs - rhs)))


# ---------------------------------------------------------------------------
# Frozen loop oracle: the original state-by-state builders.  They keep their
# own itertools.product enumeration and dict index, so they share nothing
# with the stars-and-bars basis, its rank or the lowering map they check.


def _loop_basis(N, M):
    occs = [occ for occ in itertools.product(range(N + 1), repeat=M) if sum(occ) == N]
    return occs, {occ: i for i, occ in enumerate(occs)}


def _loop_one_body(N, M, h):
    occs, index = _loop_basis(N, M)
    out = np.zeros((len(occs), len(occs)), dtype=complex)
    for i, occ in enumerate(occs):
        for b in range(M):
            if occ[b] == 0:
                continue
            for a in range(M):
                if h[a, b] == 0:
                    continue
                if a == b:
                    out[i, i] += h[a, a] * occ[a]
                    continue
                m = list(occ)
                m[b] -= 1
                m[a] += 1
                out[index[tuple(m)], i] += h[a, b] * math.sqrt(occ[b] * (occ[a] + 1))
    return out


def _loop_two_body(N, M, X):
    occs, index = _loop_basis(N, M)
    X4 = np.asarray(X).reshape(M, M, M, M)
    out = np.zeros((len(occs), len(occs)), dtype=complex)
    for i, occ in enumerate(occs):
        for c in range(M):
            if occ[c] == 0:
                continue
            m1 = list(occ)
            m1[c] -= 1
            amp_c = math.sqrt(occ[c])
            for d in range(M):
                if m1[d] == 0:
                    continue
                m2 = list(m1)
                m2[d] -= 1
                amp_cd = amp_c * math.sqrt(m1[d])
                for b in range(M):
                    amp_b = amp_cd * math.sqrt(m2[b] + 1)
                    for a in range(M):
                        x = X4[a, b, c, d]
                        if x == 0:
                            continue
                        m = list(m2)
                        m[b] += 1
                        na = m[a] + 1
                        m[a] += 1
                        out[index[tuple(m)], i] += x * amp_b * math.sqrt(na)
    return out


def _loop_reduced_density(N, M, v):
    occs, index = _loop_basis(N, M)
    v = v / np.linalg.norm(v)
    gamma = np.zeros((M, M), dtype=complex)
    for i, occ in enumerate(occs):
        for b in range(M):
            if occ[b] == 0:
                continue
            gamma[b, b] += occ[b] * abs(v[i]) ** 2
            for a in range(M):
                if a == b:
                    continue
                m = list(occ)
                m[b] -= 1
                m[a] += 1
                j = index[tuple(m)]
                gamma[a, b] += math.sqrt(occ[b] * (occ[a] + 1)) * v[j].conjugate() * v[i]
    gamma = gamma.conj() / N
    return 0.5 * (gamma + gamma.conj().T)


def _loop_product(N, M, c):
    occs, _ = _loop_basis(N, M)
    c = np.asarray(c, dtype=complex) / np.linalg.norm(c)
    logfac = [math.lgamma(k + 1) for k in range(N + 1)]
    vec = np.zeros(len(occs), dtype=complex)
    for i, occ in enumerate(occs):
        amp = math.exp(0.5 * (logfac[N] - sum(logfac[k] for k in occ)))
        for a, k in enumerate(occ):
            amp *= c[a] ** k
        vec[i] = amp
    return vec / np.linalg.norm(vec)


def _loop_excitation(N, M, phi, chi):
    occs, index = _loop_basis(N, M)
    vec = np.zeros(len(occs), dtype=complex)
    if N == 1:
        for a in range(M):
            vec[index[tuple(int(b == a) for b in range(M))]] = chi[a]
        return vec / np.linalg.norm(vec)
    base, _ = _loop_basis(N - 1, M)
    prod = _loop_product(N - 1, M, phi)
    for i, occ in enumerate(base):
        for a in range(M):
            target = list(occ)
            target[a] += 1
            vec[index[tuple(target)]] += chi[a] * math.sqrt(occ[a] + 1) * prod[i]
    return vec / np.linalg.norm(vec)


def _loop_from_occupation(N, M, coeff):
    _, index = _loop_basis(N, M)
    vec = np.zeros((M,) * N, dtype=complex)
    logfac = [math.lgamma(k + 1) for k in range(N + 1)]
    for idx in np.ndindex(*vec.shape):
        occ = [0] * M
        for a in idx:
            occ[a] += 1
        w = math.exp(-0.5 * (logfac[N] - sum(logfac[k] for k in occ)))
        vec[idx] = coeff[index[tuple(occ)]] * w
    return vec


def _loop_pair_tensor(modes, kernel):
    """The original pair tensor: one convolution and one contraction per (b, d)."""
    grid, U, M = modes.grid, modes.values, modes.M
    P = U.conj()[:, None, :] * U[None, :, :]  # P[a,c](x) = conj(u_a) u_c
    V = np.zeros((M, M, M, M), dtype=complex)
    for b in range(M):
        for d in range(M):
            conv = apply_symbol(grid.kernel_symbol(kernel.values), P[b, d])
            V[:, b, :, d] = np.einsum("acx,x->ac", P, conv) * grid.dv
    V = V.reshape(M * M, M * M)
    return 0.5 * (V + V.conj().T)


# ---------------------------------------------------------------------------
# Frozen dense oracles for the projector calculus: the original
# ProjectorContext (a dense eigh of the occupation of phi, built from the loop
# oracle above) and the original pattern-sum P_k of the tensor engine (a sum
# over every placement of k factors q among the N slots).


class _EighProjectorContext:
    def __init__(self, sector, phi):
        phi = np.asarray(phi, dtype=complex)
        phi = phi / np.linalg.norm(phi)
        self.sector = sector
        occ_of_phi = _loop_one_body(sector.N, sector.M, np.outer(phi, phi.conj()))
        vals, vecs = np.linalg.eigh(occ_of_phi)
        k_float = sector.N - vals
        k_int = np.rint(k_float).astype(int)
        assert np.max(np.abs(k_float - k_int)) <= 1e-8
        self.k_of_col = k_int
        self.U = vecs

    def p_k(self, vec, k):
        coeff = self.U.conj().T @ vec
        coeff[self.k_of_col != k] = 0.0
        return self.U @ coeff

    def n_plus_matrix(self):
        return (self.U * self.k_of_col[None, :]) @ self.U.conj().T


def _loop_apply_weights(ctx, weights_by_k, vec, d):
    w = np.zeros(ctx.sector.D)
    for col, k in enumerate(ctx.k_of_col):
        if 0 <= k + d <= ctx.sector.N:
            w[col] = weights_by_k[k + d]
    return ctx.U @ (w * (ctx.U.conj().T @ vec))


def _loop_sector_weights(ctx, vec):
    coeff = np.abs(ctx.U.conj().T @ vec) ** 2
    out = np.zeros(ctx.sector.N + 1)
    for col, k in enumerate(ctx.k_of_col):
        out[k] += coeff[col]
    return out


def _pattern_p_k(eng, p, q, k, vec):
    out = np.zeros_like(vec)
    for qset in itertools.combinations(range(eng.N), k):
        term = vec
        for j in range(eng.N):
            term = eng.apply_one(q if j in qset else p, term, j)
        out = out + term
    return out


def _slot_split(eng, p, q, vec):
    """(N + 1, M^N) stack whose row k is P_k vec, by the slot recursion.

    P_k^{(n+1)} = P_k^{(n)} (x) p + P_{k-1}^{(n)} (x) q: P_k is the sum over
    the slot patterns with k factors q.
    """
    parts = np.zeros((eng.N + 1,) + eng.shape, dtype=complex)
    parts[0] = vec.reshape(eng.shape)
    for axis in range(1, eng.N + 1):  # stack axis 0 is k, axis j is slot j - 1
        on_q = eng.apply_one(q, parts[:-1], axis)
        parts = eng.apply_one(p, parts, axis)
        parts[1:] += on_q
    return parts.reshape(eng.N + 1, eng.size)


def _engine_split(eng, p, vec):
    """(N + 1, M^N) stack whose row k is the engine's P_k vec (f-hat of the k-th unit weight)."""
    U = eng.basis(p)
    return np.stack([eng.fhat(U, np.eye(eng.N + 1)[k], vec).ravel() for k in range(eng.N + 1)])


def _pattern_fhat(eng, p, q, fvals, vec, d=0):
    out = np.zeros_like(vec)
    for k in range(eng.N + 1):
        m = k + d
        if 0 <= m <= eng.N and fvals[m] != 0:
            out = out + fvals[m] * _pattern_p_k(eng, p, q, k, vec)
    return out


def _random_projector_pair(rng, M):
    phi = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    phi /= np.linalg.norm(phi)
    p = np.outer(phi, phi.conj())
    return phi, p, np.eye(M) - p


def _rel_dev(value, ref):
    return np.max(np.abs(value - ref)) / np.max(np.abs(ref))


def _toy_hamiltonian(N=3, M=3, g=0.5, beta=0.2, n=64, L=8.0, trap=True):
    grid = make_grid(1, n, L)
    modes = ModeBasis.harmonic(grid, M)
    inter = InteractionSpec(profile="gaussian", beta=beta)
    reg = RegimeParams(N=N, beta=beta, g_N=g, lambda_weight=0.5)
    return build(modes, TrapSpec(strength=1.0, s=2) if trap else None, inter, reg)


def _fitted_alpha_rate(rep, H, lam):
    """(a0, c) of the exponential envelope a0 exp(c t) fitted to alpha(t).

    a0 = alpha(0) + N^(d beta - lam); c is the largest log(alpha / a0) / t,
    floored at 1e-9.
    """
    a0 = rep.alpha[0] + H.sector.N ** (H.modes.grid.d * H.beta - lam)
    above = (rep.times > 0) & (rep.alpha > a0)
    c = float(np.max(np.log(rep.alpha[above] / a0) / rep.times[above], initial=0.0))
    return a0, max(c, 1e-9)


class TestSector:
    def test_dimension(self):
        sec = SymmetricSector(4, 3)
        assert sec.D == math.comb(6, 4) == 15
        assert len(sec.occs) == sec.D
        assert all(sum(occ) == 4 for occ in sec.occs)

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            SymmetricSector(40, 12)

    def test_one_body_identity_counts_particles(self):
        sec = SymmetricSector(5, 3)
        out = sec.one_body_matrix(np.eye(3))
        assert np.max(np.abs(out - 5 * np.eye(sec.D))) < 1e-14

    def test_two_body_identity_counts_pairs(self):
        sec = SymmetricSector(4, 2)
        out = sec.two_body_matrix(np.eye(4))
        assert np.max(np.abs(out - 4 * 3 * np.eye(sec.D))) < 1e-13

    @pytest.mark.parametrize("N, M", [(1, 3), (2, 2), (3, 1), (3, 2), (4, 3), (5, 4)])
    def test_matches_loop_oracle(self, N, M):
        rng = np.random.default_rng(100 * N + M)
        sec = SymmetricSector(N, M)
        seed_occs, _ = _loop_basis(N, M)
        assert np.array_equal(sec.occs, np.array(seed_occs))
        assert np.array_equal(sec.rank(sec.occs), np.arange(sec.D))

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        h, X, v = cplx(M, M), cplx(M * M, M * M), cplx(sec.D)
        phi, chi = cplx(M), cplx(M)
        assert _rel_dev(sec.one_body_matrix(h), _loop_one_body(N, M, h)) <= 1e-12
        if N > 1:
            T = _loop_two_body(N, M, X)
            assert _rel_dev(sec.two_body_matrix(X), T) <= 1e-12
            # <w, T v> = <A2 w, X A2 v> on the pair amplitudes, as the counting rate reads it
            w = cplx(sec.D)
            A2 = sec._pair_lowering
            pairs = np.vdot(A2 @ w, X @ (A2 @ v).reshape(M * M, -1))
            assert abs(pairs - np.vdot(w, T @ v)) <= 1e-12 * abs(np.vdot(w, T @ v))
        gamma = reduced_density(ManyBodyState(sec, v))
        assert _rel_dev(gamma, _loop_reduced_density(N, M, v)) <= 1e-12
        prod = product_state(sec, phi).vector
        assert _rel_dev(prod, _loop_product(N, M, phi)) <= 1e-12
        exc = excitation_state(sec, phi, chi).vector
        assert _rel_dev(exc, _loop_excitation(N, M, phi, chi)) <= 1e-12
        tensor = _TensorEngine(N, M).from_occupation(v)
        assert _rel_dev(tensor, _loop_from_occupation(N, M, v)) <= 1e-12

    def test_single_boson_has_no_pair_operator(self):
        sec = SymmetricSector(1, 3)
        X = np.arange(81.0).reshape(9, 9) + 1j
        assert np.array_equal(sec.two_body_matrix(X), np.zeros((3, 3)))

    def test_single_mode_counts_particles(self):
        sec = SymmetricSector(5, 1)
        assert sec.D == 1
        h = np.array([[2.5 - 1j]])
        # exact up to the rounding of sqrt(5)^2
        assert np.max(np.abs(sec.one_body_matrix(h) - 5 * h)) <= 1e-14 * abs(5 * h[0, 0])

    def test_vacuum_sector_rejected(self):
        with pytest.raises(ValueError, match="N >= 1"):
            SymmetricSector(0, 3)

    def test_rank_many_modes(self):
        # 3^40 exceeds int64, so no mixed-radix key of (n_0, .., n_39) would fit
        sec = SymmetricSector(2, 40)
        assert sec.D == 820
        step = np.diff(sec.occs, axis=0)
        first = step[np.arange(len(step)), np.argmax(step != 0, axis=1)]
        assert np.all(first > 0)  # strictly ascending lexicographic order
        assert np.array_equal(sec.rank(sec.occs), np.arange(sec.D))

    def test_matches_first_quantized_action(self):
        # occupation-basis matrices against explicit tensor products
        rng = np.random.default_rng(3)
        N, M = 3, 2
        sec = SymmetricSector(N, M)
        eng = _TensorEngine(N, M)
        coeff = rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D)
        coeff /= np.linalg.norm(coeff)
        psi_t = eng.from_occupation(coeff)

        h = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
        h = 0.5 * (h + h.conj().T)
        out_occ = sec.one_body_matrix(h) @ coeff
        out_t = sum(eng.apply_one(h, psi_t, j) for j in range(N))
        assert np.max(np.abs(eng.from_occupation(out_occ) - out_t)) < 1e-12

        X = rng.standard_normal((M * M, M * M)) + 1j * rng.standard_normal((M * M, M * M))
        out_occ2 = sec.two_body_matrix(X) @ coeff
        out_t2 = np.zeros_like(psi_t)
        for j in range(N):
            for k in range(N):
                if j == k:
                    continue
                moved = np.moveaxis(psi_t, (j, k), (0, 1))
                acted = eng.apply_pair(X, moved)
                out_t2 = out_t2 + np.moveaxis(acted, (0, 1), (j, k))
        assert np.max(np.abs(eng.from_occupation(out_occ2) - out_t2)) < 1e-12

    def test_projector_blocks_match_tensor_engine(self):
        rng = np.random.default_rng(7)
        N, M = 4, 2
        sec = SymmetricSector(N, M)
        eng = _TensorEngine(N, M)
        coeff = rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D)
        coeff /= np.linalg.norm(coeff)
        psi_t = eng.from_occupation(coeff)
        phi, p, q = _random_projector_pair(rng, M)
        ctx = ProjectorContext(sec, phi)
        oracle = _EighProjectorContext(sec, phi)
        split_t = _slot_split(eng, p, q, psi_t)
        split_e = _engine_split(eng, p, psi_t)
        parts = ctx.fhat(np.eye(N + 1), coeff)
        for k in range(N + 1):
            block = parts[k]
            ref_t = _pattern_p_k(eng, p, q, k, psi_t)
            # the sector split, the engine, the slot recursion and the pattern sum agree
            assert np.max(np.abs(eng.from_occupation(block) - ref_t)) < 1e-12
            assert np.max(np.abs(split_t[k] - ref_t.ravel())) < 1e-12
            assert np.max(np.abs(split_e[k] - ref_t.ravel())) < 1e-12
            assert abs(np.linalg.norm(block) - np.linalg.norm(oracle.p_k(coeff, k))) < 1e-12


class TestStates:
    def test_product_state_normalized(self):
        sec = SymmetricSector(5, 3)
        st = product_state(sec, np.array([3.0, 0.0, 4.0]))
        assert abs(np.linalg.norm(st.vector) - 1.0) < 1e-14

    def test_zero_state_rejected(self):
        sec = SymmetricSector(2, 2)
        with pytest.raises(ValueError, match="zero"):
            ManyBodyState(sec, np.zeros(sec.D))

    def test_excitation_orthogonal_to_product(self):
        sec = SymmetricSector(4, 3)
        phi = np.array([1.0, 0.0, 0.0])
        chi = np.array([0.0, 1.0, 0.0])
        prod = product_state(sec, phi)
        exc = excitation_state(sec, phi, chi)
        assert abs(np.vdot(prod.vector, exc.vector)) < 1e-14

    def test_excitation_single_particle(self):
        sec = SymmetricSector(1, 3)
        chi = np.array([0.0, 0.6, 0.8])
        exc = excitation_state(sec, np.array([1.0, 0, 0]), chi)
        gamma = reduced_density(exc)
        assert np.max(np.abs(gamma - np.outer(chi, chi.conj()))) < 1e-14


class TestReducedDensity:
    def test_product_gives_rank_one(self):
        sec = SymmetricSector(4, 2)
        c = np.array([1.0, 2.0 + 1.0j])
        c = c / np.linalg.norm(c)
        gamma = reduced_density(product_state(sec, c))
        assert np.max(np.abs(gamma - np.outer(c, c.conj()))) < 1e-13

    def test_excitation_mixture(self):
        N = 4
        sec = SymmetricSector(N, 3)
        phi = np.array([1.0, 0.0, 0.0])
        chi = np.array([0.0, 1.0, 0.0])
        gamma = reduced_density(excitation_state(sec, phi, chi))
        target = (1 / N) * np.outer(chi, chi.conj()) + (1 - 1 / N) * np.outer(
            phi, phi.conj()
        )
        assert np.max(np.abs(gamma - target)) < 1e-13

    def test_random_state_psd_trace_one(self):
        rng = np.random.default_rng(11)
        sec = SymmetricSector(3, 4)
        v = rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D)
        gamma = reduced_density(ManyBodyState(sec, v))
        vals = np.linalg.eigvalsh(gamma)
        assert vals[0] > -1e-14
        assert abs(np.sum(vals) - 1.0) < 1e-13


class TestHamiltonian:
    def test_two_boson_spectrum_matches_reference(self):
        h = np.diag([1.0, 2.0])
        w = np.array([[1.0, 0.3], [0.3, 0.5]])
        sec = SymmetricSector(2, 2)
        H = assemble(sec, h, _diag_pair_tensor(w), 0.7)
        vals = np.linalg.eigvalsh(H.matrix.toarray())
        assert np.max(np.abs(vals - np.array(TWOBOSON_SPECTRUM))) < 1e-12

    def test_two_boson_noninteracting(self):
        h = np.diag([1.0, 2.0])
        sec = SymmetricSector(2, 2)
        H = assemble(sec, h, np.zeros((4, 4)), 0.0)
        vals = np.linalg.eigvalsh(H.matrix.toarray())
        assert np.max(np.abs(vals - np.array([2.0, 3.0, 4.0]))) < 1e-13

    def test_build_is_hermitian(self):
        H = _toy_hamiltonian()
        assert abs(H.matrix - H.matrix.conj().T).max() < 1e-12

    def test_build_beta_mismatch(self):
        grid = make_grid(1, 32, 6.0)
        modes = ModeBasis.harmonic(grid, 2)
        inter = InteractionSpec(profile="gaussian", beta=0.3)
        reg = RegimeParams(N=2, beta=0.2, g_N=1.0, lambda_weight=0.5)
        with pytest.raises(ValueError, match="beta"):
            build(modes, None, inter, reg)

    def test_product_state_energy_identity(self):
        # <phi^N| H |phi^N> = N <h> + g (N-1)/2 <phi phi|v|phi phi>
        H = _toy_hamiltonian(N=4, M=3, g=0.8)
        rng = np.random.default_rng(5)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c /= np.linalg.norm(c)
        st = product_state(H.sector, c)
        e_sector = np.vdot(st.vector, H.matrix @ st.vector).real
        cc = np.kron(c, c)
        e_direct = (
            4 * (c.conj() @ H.h_mat @ c).real
            + H.g * 3 / 2 * (cc.conj() @ H.v_tensor @ cc).real
        )
        assert abs(e_sector - e_direct) < 1e-12 * max(1.0, abs(e_direct))

    def test_ground_state_free_is_sum_of_lowest(self):
        H = _toy_hamiltonian(N=3, M=3, g=0.0)
        e0, _ = ground_state(H)
        eps = np.linalg.eigvalsh(H.h_mat)
        assert abs(e0 - 3 * eps[0]) < 1e-10

    def test_ground_state_repulsion_raises_energy(self):
        energies = [ground_state(_toy_hamiltonian(N=3, M=3, g=g))[0] for g in (0.0, 0.5, 1.5)]
        assert energies[0] < energies[1] < energies[2]

    def test_ground_state_below_product(self):
        H = _toy_hamiltonian(N=3, M=3, g=1.0)
        e0, _ = ground_state(H)
        c = np.zeros(3, dtype=complex)
        c[0] = 1.0
        st = product_state(H.sector, c)
        assert e0 <= np.vdot(st.vector, H.matrix @ st.vector).real + 1e-12

    def test_pair_tensor_exchange_symmetry(self):
        grid = make_grid(1, 32, 6.0)
        modes = ModeBasis.harmonic(grid, 3)
        kern = InteractionSpec(profile="gaussian", beta=0.2).kernel_on_grid(grid, 4)
        V = pair_tensor(modes, kern).reshape(3, 3, 3, 3)
        assert np.max(np.abs(V - V.transpose(1, 0, 3, 2))) < 1e-12

    @pytest.mark.parametrize("M", [3, 5, 7])
    @pytest.mark.parametrize("kind", ["harmonic", "planewave"])
    def test_pair_tensor_matches_loop_oracle(self, kind, M):
        grid = make_grid(1, 64, 8.0)
        modes = getattr(ModeBasis, kind)(grid, M)
        kern = InteractionSpec(profile="gaussian", beta=0.2).kernel_on_grid(grid, 8)
        assert np.array_equal(pair_tensor(modes, kern), _loop_pair_tensor(modes, kern))

    def test_pair_tensor_rejects_a_complex_kernel(self):
        grid = make_grid(1, 32, 6.0)
        kern = InteractionSpec(profile="gaussian", beta=0.2).kernel_on_grid(grid, 4)
        with pytest.raises(ValueError, match="real"):
            pair_tensor(ModeBasis.harmonic(grid, 2), Field(grid, 1j * kern.values))


class TestModeBasis:
    def test_harmonic_orthonormal_and_ordered(self):
        grid = make_grid(1, 128, 10.0)
        modes = ModeBasis.harmonic(grid, 4)
        modes.check_orthonormal()
        from tfcond.manybody import mode_one_body

        hm = mode_one_body(modes, TrapSpec(strength=1.0, s=2))
        eps = np.sort(np.linalg.eigvalsh(hm))
        # 1D oscillator levels 1, 3, 5, 7
        assert np.max(np.abs(eps - np.array([1.0, 3.0, 5.0, 7.0]))) < 1e-6

    def test_planewave_orthonormal(self):
        modes = ModeBasis.planewave(make_grid(1, 32, 4.0), 5)
        assert np.max(np.abs(modes.gram() - np.eye(5))) < 1e-12

    def test_requires_1d(self):
        with pytest.raises(ValueError, match="1D"):
            ModeBasis.harmonic(make_grid(2, 16, 4.0), 2)

    def test_expand_project_roundtrip(self):
        modes = ModeBasis.harmonic(make_grid(1, 64, 8.0), 3)
        c = np.array([0.5, -0.3j, 0.2])
        back = modes.project(modes.expand(c))
        assert np.max(np.abs(back - c)) < 1e-12


class TestCounting:
    def test_mu_weights_table(self):
        mu = mu_weights(100, 0.5)
        assert mu[0] == 0.0
        assert abs(mu[5] - 0.5) < 1e-14
        assert mu[25] == 1.0
        assert mu[100] == 1.0

    def test_alpha_product_is_zero(self):
        sec = SymmetricSector(4, 3)
        c = np.array([1.0, 0.5, 0.25 + 0.1j])
        rep = alpha(product_state(sec, c), c, 0.5)
        assert rep.alpha < 1e-12
        assert sec.N * rep.depletion < 1e-12  # N_+ = N times the depletion
        assert rep.distance < 1e-13
        assert rep.sandwich_ok

    def test_alpha_one_excitation(self):
        N = 4
        sec = SymmetricSector(N, 3)
        phi = np.array([1.0, 0.0, 0.0])
        chi = np.array([0.0, 0.0, 1.0])
        rep = alpha(excitation_state(sec, phi, chi), phi, 0.5)
        assert abs(rep.alpha - N**-0.5) < 1e-12
        assert abs(N * rep.depletion - 1.0) < 1e-12

    def test_alpha_gauge_invariance(self):
        rng = np.random.default_rng(13)
        sec = SymmetricSector(3, 3)
        v = rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D)
        st = ManyBodyState(sec, v)
        phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a1 = alpha(st, phi, 0.5)
        a2 = alpha(st, np.exp(0.7j) * phi, 0.5)
        assert abs(a1.alpha - a2.alpha) < 1e-12
        assert abs(sec.N * (a1.depletion - a2.depletion)) < 1e-12

    def test_alpha_lambda_range(self):
        sec = SymmetricSector(2, 2)
        st = product_state(sec, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="lam"):
            alpha(st, np.array([1.0, 0.0]), 1.5)

    def test_nplus_spectrum_is_integers(self):
        sec = SymmetricSector(4, 3)
        phi = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        oracle = _EighProjectorContext(sec, phi)
        assert sorted(set(oracle.k_of_col.tolist())) == list(range(5))
        vals = np.linalg.eigvalsh(sec.one_body_matrix(np.eye(3) - np.outer(phi, phi)))
        assert np.max(np.abs(vals - np.rint(vals))) < 1e-10
        # the range of P_k places k bosons in the M - 1 modes orthogonal to phi
        mult = np.bincount(np.rint(vals).astype(int), minlength=5)
        assert np.array_equal(mult, np.bincount(oracle.k_of_col, minlength=5))
        assert mult.tolist() == [math.comb(k + 1, k) for k in range(5)]

    def test_nplus_expectation_matches_density(self):
        rng = np.random.default_rng(17)
        sec = SymmetricSector(4, 3)
        phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        phi /= np.linalg.norm(phi)
        v = rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D)
        st = ManyBodyState(sec, v)
        ctx = ProjectorContext(sec, phi)
        n_direct = np.arange(5) @ ctx.weights(st.vector)
        rep = alpha(st, phi, 0.5)
        assert abs(n_direct - 4 * rep.depletion) < 1e-10

    def test_weights_match_loop_oracle(self):
        rng = np.random.default_rng(31)
        sec = SymmetricSector(4, 3)
        phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ctx = ProjectorContext(sec, phi)
        oracle = _EighProjectorContext(sec, phi)
        v = rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D)
        f = rng.uniform(0.5, 1.5, sec.N + 1)
        for d in (-2, -1, 0, 1, 2):
            ref = _loop_apply_weights(oracle, f, v, d)
            assert _rel_dev(ctx.fhat(_shifted(f, d, sec.N), v), ref) <= 1e-12
        assert _rel_dev(ctx.weights(v), _loop_sector_weights(oracle, v)) <= 1e-12

    def test_pk_partition_of_unity(self):
        rng = np.random.default_rng(19)
        sec = SymmetricSector(3, 3)
        phi = rng.standard_normal(3)
        ctx = ProjectorContext(sec, phi)
        v = rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D)
        total = ctx.fhat(np.eye(4), v).sum(axis=0)
        assert np.max(np.abs(total - v)) < 1e-12
        w = ctx.weights(v)
        assert abs(np.sum(w) - np.vdot(v, v).real) < 1e-12

    def test_sandwich_random_states(self):
        rng = np.random.default_rng(23)
        sec = SymmetricSector(4, 3)
        phi = np.array([1.0, 0.2, 0.1])
        c = phi / np.linalg.norm(phi)
        bad = 0
        for _ in range(1000):
            v = rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D)
            rep = alpha(ManyBodyState(sec, v), phi, 0.5)
            # the distance is the one of the reduced density, taken apart
            gamma = reduced_density(ManyBodyState(sec, v))
            assert rep.distance == op_norm(gamma - np.outer(c, c.conj()))
            bad += not rep.sandwich_ok
        assert bad == 0

    def test_operator_distance_zero_for_product(self):
        sec = SymmetricSector(3, 2)
        c = np.array([0.8, 0.6], dtype=complex)
        gamma = reduced_density(product_state(sec, c))
        assert op_norm(gamma - np.outer(c, c.conj())) < 1e-13


class TestProjectorSplit:
    """ProjectorContext's P_k parts (the rows of fhat(eye(N + 1), v)) and weights
    against the dense eigh oracle."""

    # the larger N: the rotation is unitary, so its rounding does not grow with N
    @pytest.mark.parametrize("N, M", [(1, 3), (2, 2), (4, 3), (8, 5), (20, 3), (40, 2)])
    def test_matches_eigh_oracle(self, N, M):
        rng = np.random.default_rng(10 * N + M)
        sec = SymmetricSector(N, M)
        phi, _, _ = _random_projector_pair(rng, M)
        ctx = ProjectorContext(sec, phi)
        oracle = _EighProjectorContext(sec, phi)
        v = rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D)
        v /= np.linalg.norm(v)
        parts = ctx.fhat(np.eye(N + 1), v)
        assert parts.shape == (N + 1, sec.D)
        for k in range(N + 1):
            assert np.max(np.abs(parts[k] - oracle.p_k(v, k))) <= 1e-12
            assert np.array_equal(ctx.fhat(np.eye(N + 1), v)[k], parts[k])
        f = rng.uniform(0.5, 1.5, N + 1)
        for d in (-2, -1, 0, 1, 2):  # at N = 1, d = +-2 leaves every weight zero
            ref = _loop_apply_weights(oracle, f, v, d)
            assert np.max(np.abs(ctx.fhat(_shifted(f, d, N), v) - ref)) <= 1e-12
        assert _rel_dev(ctx.weights(v), _loop_sector_weights(oracle, v)) <= 1e-12
        # N_+ = sum_j q_j, as the gap chain builds it
        n_plus = sec.one_body_matrix(np.eye(M) - np.outer(ctx.phi, ctx.phi.conj()))
        assert _rel_dev(n_plus, oracle.n_plus_matrix()) <= 1e-12

    @pytest.mark.parametrize("N, M", [(1, 3), (4, 3), (8, 5), (20, 3)])
    def test_stacked_rows_match_single_rows(self, N, M):
        rng = np.random.default_rng(20 * N + M)
        sec = SymmetricSector(N, M)
        ctx = ProjectorContext(sec, _random_projector_pair(rng, M)[0])
        v = rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D)
        v /= np.linalg.norm(v)
        F = rng.uniform(-1.0, 1.0, (2, 3, N + 1))
        stacked = ctx.fhat(F, v)
        assert stacked.shape == (2, 3, sec.D)
        for i, j in np.ndindex(2, 3):
            assert np.max(np.abs(stacked[i, j] - ctx.fhat(F[i, j], v))) <= 1e-15
        # the weights are the squared norms of the one-hot rows, the P_k parts
        onehot = np.linalg.norm(ctx.fhat(np.eye(N + 1), v), axis=1) ** 2
        assert _rel_dev(ctx.weights(v), onehot) <= 1e-12
        assert abs(ctx.weights(v).sum() - 1.0) <= 1e-14

    def test_parts_are_orthogonal_number_eigenvectors(self):
        rng = np.random.default_rng(41)
        sec = SymmetricSector(5, 3)
        phi, _, q = _random_projector_pair(rng, 3)
        ctx = ProjectorContext(sec, phi)
        n_plus = sec.one_body_matrix(q)  # sum_j q_j, built without the ladder
        v = rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D)
        v /= np.linalg.norm(v)
        for k, part in enumerate(ctx.fhat(np.eye(sec.N + 1), v)):
            assert np.max(np.abs(n_plus @ part - k * part)) <= 1e-12
            for j, again in enumerate(ctx.fhat(np.eye(sec.N + 1), part)):
                target = part if j == k else np.zeros_like(part)
                assert np.max(np.abs(again - target)) <= 1e-12

    @pytest.mark.parametrize("N, M", [(4, 3), (8, 5)])
    def test_near_condensate_small_parts(self, N, M):
        # the k >= 1 parts are ~1e-3 and must not drown in the rounding of
        # the k = 0 part that carries almost all of the norm
        rng = np.random.default_rng(43 + N)
        sec = SymmetricSector(N, M)
        phi, _, _ = _random_projector_pair(rng, M)
        noise = rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D)
        v = product_state(sec, phi).vector + 1e-3 * noise / np.linalg.norm(noise)
        v /= np.linalg.norm(v)
        ctx = ProjectorContext(sec, phi)
        oracle = _EighProjectorContext(sec, phi)
        parts = ctx.fhat(np.eye(N + 1), v)
        assert np.linalg.norm(parts[0]) > 0.999
        for k in range(1, N + 1):
            assert np.linalg.norm(parts[k]) < 1.1e-3
            assert np.max(np.abs(parts[k] - oracle.p_k(v, k))) <= 1e-14

    def test_guard_rejects_a_wrong_rotation(self):
        rng = np.random.default_rng(47)
        sec = SymmetricSector(4, 3)
        ctx = ProjectorContext(sec, _random_projector_pair(rng, 3)[0])
        v = rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D)
        f = np.linspace(0.0, 1.0, sec.N + 1)
        ctx.weights(v)
        ctx.fhat(f, v)
        ctx._phase = ctx._phase.conj()  # now rotates conj(phi) into mode 0
        with pytest.raises(RuntimeError, match="annihilate"):
            ctx.weights(v)
        with pytest.raises(RuntimeError, match="annihilate"):
            ctx.fhat(f, v)

    def test_rate_matches_dense_oracle(self):
        # the original counting rate: dense pair matrices, eigh-oracle weights
        H = _toy_hamiltonian(N=4, M=3, g=0.5)
        sec, N, M = H.sector, 4, 3
        rng = np.random.default_rng(53)
        phi, p1, q1 = _random_projector_pair(rng, M)
        st = ManyBodyState(sec, rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D))
        rep = alpha(st, phi, 0.5, H)
        rate, terms, bounds = rep.rate, rep.rate_terms, rep.rate_bounds

        oracle = _EighProjectorContext(sec, phi)
        mu = mu_weights(N, 0.5)
        psi = st.vector
        W = np.einsum("abcd,b,d->ac", H.v_tensor.reshape(M, M, M, M), phi.conj(), phi)
        U12 = (N - 1) * H.v_tensor - N * np.kron(W, np.eye(M)) - N * np.kron(np.eye(M), W)
        Q0, Q1, Q2 = np.kron(p1, p1), np.kron(p1, q1), np.kron(q1, q1)
        w0 = _loop_apply_weights(oracle, mu, psi, 0)
        chi1 = w0 - _loop_apply_weights(oracle, mu, psi, 1)
        chi2 = w0 - _loop_apply_weights(oracle, mu, psi, 2)
        combos = ((chi1, Q0 @ U12 @ Q1), (chi2, Q0 @ U12 @ Q2), (chi1, Q1 @ U12 @ Q2))
        ref = np.array([np.vdot(chi, _loop_two_body(N, M, X) @ psi).imag for chi, X in combos])
        ref /= N * (N - 1)
        assert _rel_dev(terms, np.abs(ref)) <= 1e-12
        ref_rate = H.g * (2 * ref[0] + ref[1] + 2 * ref[2])
        assert abs(rate - ref_rate) <= 1e-12 * np.max(np.abs(ref))
        # the bounds read alpha from the same weights of psi
        a_ref = float(mu @ _loop_sector_weights(oracle, psi))
        assert abs(rep.alpha - a_ref) <= 1e-12 * a_ref
        assert _rel_dev(bounds, _rate_bounds(H, phi, a_ref, 0.5)) <= 1e-12


# ---------------------------------------------------------------------------
# Frozen per-trial oracle of verify_appendix: the original loop, one trial at
# a time through the engine's unstacked calls, with every 64 x 64 product of
# the Hoelder checks formed in full.


def _per_trial_appendix(N, M, trials, seed):
    """(violations, max_dev) of verify_appendix(N, M, trials, seed), trial by trial."""
    tol = mb._IDENTITY_TOL
    rng = np.random.default_rng(seed)
    eng = _TensorEngine(N, M)
    grid = make_grid(1, 64, 8.0)
    viol = dict.fromkeys(
        (
            "number_identity", "counting_equality", "counting_inequality", "shift_commutation",
            "one_projector_bound", "two_projector_bound", "pair_projector_bound",
        ),
        0,
    )
    max_dev = 0.0

    def bump(key, dev, limit):
        nonlocal max_dev
        max_dev = max(max_dev, dev - limit if dev > limit else 0.0)
        if dev > limit:
            viol[key] += 1

    nu2 = np.arange(N + 1) / N
    for _ in range(trials):
        phi = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        phi /= np.linalg.norm(phi)
        p = np.outer(phi, phi.conj())
        q = np.eye(M) - p
        U = eng.basis(p)

        def fhat(fvals, vec, d=0):
            return eng.fhat(U, fvals, vec, d)

        raw = rng.standard_normal(eng.shape) + 1j * rng.standard_normal(eng.shape)
        raw /= np.linalg.norm(raw)
        rhs = np.zeros_like(raw)
        for j in range(N):
            rhs = rhs + eng.apply_one(q, raw, j) / N
        bump("number_identity", float(np.max(np.abs(fhat(nu2, raw) - rhs))), tol)

        psi = eng.symmetric_random(rng)
        f = rng.uniform(-1.0, 1.0, N + 1)
        fq1 = fhat(f, eng.apply_one(q, psi, 0))
        fnu = fhat(f * np.sqrt(nu2), psi)
        bump("counting_equality", abs(np.linalg.norm(fq1) - np.linalg.norm(fnu)), tol)
        q1q2 = eng.apply_one(q, eng.apply_one(q, psi, 0), 1)
        lhs2 = np.linalg.norm(fhat(f, q1q2))
        rhs2 = math.sqrt(N / (N - 1)) * np.linalg.norm(fhat(f * nu2, psi))
        bump("counting_inequality", lhs2 - rhs2, tol)

        Wr = rng.standard_normal((M * M, M * M)) + 1j * rng.standard_normal((M * M, M * M))
        Wr = 0.5 * (Wr + Wr.conj().T)
        Qs = {
            0: lambda v: eng.apply_one(p, eng.apply_one(p, v, 0), 1),
            1: lambda v: eng.apply_one(p, eng.apply_one(q, v, 1), 0),
            2: lambda v: eng.apply_one(q, eng.apply_one(q, v, 0), 1),
        }
        for j, k in itertools.permutations(range(3), 2):
            a = fhat(f, Qs[j](eng.apply_pair(Wr, Qs[k](psi))))
            b = Qs[j](eng.apply_pair(Wr, Qs[k](fhat(f, psi, d=j - k))))
            bump("shift_commutation", float(np.max(np.abs(a - b))), tol)

    n, h = grid.n, grid.h
    xs = grid.coords()[0]
    didx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    low = (grid.k2_half <= (0.4 * np.pi / h) ** 2).astype(float)

    def l2(mat):
        return float(np.sqrt(np.sum(np.abs(mat) ** 2) * h * h))

    for _ in range(trials):
        raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi_g = apply_symbol(low, raw) * np.exp(-(xs**2) / 8)
        phi_g = phi_g / math.sqrt(float(np.sum(np.abs(phi_g) ** 2) * h))
        u_raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u = apply_symbol(low, u_raw) * np.exp(-(xs**2) / 10)
        Umat = u[(didx + n // 2) % n]
        psi2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        psi2 /= math.sqrt(float(np.sum(np.abs(psi2) ** 2) * h * h))
        u_inf = float(np.max(np.abs(u)))
        u_l2 = float(np.sqrt(np.sum(np.abs(u) ** 2) * h))
        u_l4 = float(np.sum(np.abs(u) ** 4) * h) ** 0.25
        phi_l4 = float(np.sum(np.abs(phi_g) ** 4) * h) ** 0.25

        p1psi = np.outer(phi_g, (phi_g.conj() @ psi2) * h)
        lhs = l2(Umat * p1psi)
        bump("one_projector_bound", lhs - u_inf, tol)
        bump("one_projector_bound", lhs - phi_l4 * u_l4, tol)
        lhs2 = l2(np.outer(phi_g, (phi_g.conj() @ (Umat * p1psi)) * h))
        bump("two_projector_bound", lhs2 - u_inf, tol)
        bump("two_projector_bound", lhs2 - phi_l4**2 * u_l2, tol)
        overlap = (phi_g.conj() @ psi2 @ phi_g.conj()) * h * h
        lhs3 = l2(Umat * overlap * np.outer(phi_g, phi_g))
        bump("pair_projector_bound", lhs3 - u_inf, tol)
        bump("pair_projector_bound", lhs3 - phi_l4**2 * u_l2, tol)
    return viol, max_dev


class TestAppendix:
    SHAPES = [(4, 3), (6, 2), (3, 4), (2, 5)]

    @pytest.mark.parametrize("N, M", SHAPES)
    def test_slot_recursion_matches_pattern_sum(self, N, M):
        rng = np.random.default_rng(10 * N + M)
        eng = _TensorEngine(N, M)
        _, p, q = _random_projector_pair(rng, M)
        eye = np.eye(eng.size)
        P = np.stack([_slot_split(eng, p, q, col) for col in eye], axis=-1)
        P_e = np.stack([_engine_split(eng, p, col) for col in eye], axis=-1)
        columns = eye.reshape(eng.shape + (eng.size,))
        for k in range(N + 1):
            ref = _pattern_p_k(eng, p, q, k, columns).reshape(eng.size, eng.size)
            assert np.max(np.abs(P[k] - ref)) <= 1e-12
            assert np.max(np.abs(P_e[k] - ref)) <= 1e-12

    def test_fhat_matches_pattern_sum(self):
        rng = np.random.default_rng(59)
        for N, M in self.SHAPES:
            eng = _TensorEngine(N, M)
            _, p, q = _random_projector_pair(rng, M)
            U = eng.basis(p)
            vec = rng.standard_normal(eng.shape) + 1j * rng.standard_normal(eng.shape)
            f = rng.uniform(-1.0, 1.0, N + 1)
            split = _slot_split(eng, p, q, vec)
            for d in range(-N, N + 1):
                ref = _pattern_fhat(eng, p, q, f, vec, d)
                out = eng.fhat(U, f, vec, d)
                assert np.max(np.abs(out - ref)) <= 1e-12
                assert np.max(np.abs(out.ravel() - _shifted(f, d, N) @ split)) <= 1e-12

    @pytest.mark.parametrize("stacked", [False, True])
    def test_apply_one_matches_tensordot(self, stacked):
        rng = np.random.default_rng(61)
        eng = _TensorEngine(4, 3)
        shape = ((5,) if stacked else ()) + eng.shape
        vec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for axis in range(int(stacked), vec.ndim):
            ref = np.moveaxis(np.tensordot(mat, vec, axes=([1], [axis])), 0, axis)
            assert np.max(np.abs(eng.apply_one(mat, vec, axis) - ref)) <= 1e-14

    def test_largest_engine_passes(self):
        rep = verify_appendix(10, 3, 1)  # 3^10 = 59049 amplitudes
        assert rep.passed

    def test_single_boson_rejected(self):
        with pytest.raises(ValueError, match="N=1"):
            verify_appendix(1, 3, 1)

    def test_small_run_has_no_violations(self):
        rep = verify_appendix(3, 2, 8, seed=1)
        assert rep.passed
        assert all(v == 0 for v in rep.violations.values())

    def test_other_shape(self):
        rep = verify_appendix(4, 3, 4, seed=2)
        assert rep.passed

    def test_counts_trials(self):
        rep = verify_appendix(3, 2, 5, seed=3)
        assert rep.trials == 5
        assert rep.N == 3 and rep.M == 2

    @pytest.mark.parametrize(
        "N, M, trials, seed",
        [(N, M, 12, seed) for N, M in SHAPES for seed in (0, 5)]
        # 3^8 = 6561 amplitudes: 15 trials per stack, so 20 span two
        + [(8, 3, 20, 1)],
    )
    def test_batched_trials_match_per_trial_oracle(self, N, M, trials, seed):
        rep = verify_appendix(N, M, trials, seed)
        viol, max_dev = _per_trial_appendix(N, M, trials, seed)
        assert rep.violations == viol
        assert abs(rep.max_dev - max_dev) <= 1e-12

    def test_violations_are_counted_per_trial(self, monkeypatch):
        # a basis of another projector breaks the number identity in every
        # trial; at (8, 3) the 20 trials run as two stacks
        assert mb._TENSOR_CAP // _TensorEngine(8, 3).size < 20
        rng = np.random.default_rng(67)
        _, other, _ = _random_projector_pair(rng, 3)
        wrong = np.linalg.eigh(other)[1]
        monkeypatch.setattr(
            _TensorEngine, "basis", staticmethod(lambda p: np.broadcast_to(wrong, p.shape))
        )
        for N, trials in ((4, 7), (8, 20)):
            rep = verify_appendix(N, 3, trials, seed=2)
            viol, max_dev = _per_trial_appendix(N, 3, trials, seed=2)
            assert rep.violations["number_identity"] == trials
            assert rep.violations == viol
            assert rep.max_dev > 0.01 and abs(rep.max_dev - max_dev) <= 1e-12


class TestGapChain:
    def test_chain_and_sandwich(self):
        H = _toy_hamiltonian(N=3, M=3, g=0.5)
        rep = verify_gap_chain(H, lam=0.5, samples=50, seed=0)
        assert rep.passed
        assert rep.min_eig_chain >= -1e-10
        assert rep.min_eig_nplus >= -1e-10
        assert rep.sandwich_violations == 0
        assert rep.mu1 > rep.mu0
        assert rep.depletion < 0.05

    @staticmethod
    def _dense_minima(H, mu1_index=1):
        """Oracle: the least eigenvalues of the chain and of N_+ as dense D x D
        sector matrices, with mu1 read at ``mu1_index`` of h^GP's spectrum."""
        sec = H.sector
        _, h_gp = gp_modes_ground(H)
        vals, vecs = np.linalg.eigh(h_gp)
        q = np.eye(sec.M) - np.outer(vecs[:, 0], vecs[:, 0].conj())
        shift = vals[0] * np.eye(sec.M) + (vals[mu1_index] - vals[0]) * q
        chain = sec.one_body_matrix(h_gp - shift)
        return np.linalg.eigvalsh(chain)[0], np.linalg.eigvalsh(sec.one_body_matrix(q))[0]

    @pytest.mark.parametrize("N,M", [(3, 3), (8, 5), (6, 7)])
    def test_minima_match_the_dense_sector_oracle(self, N, M):
        H = _toy_hamiltonian(N=N, M=M, g=0.5)
        rep = verify_gap_chain(H, samples=5)
        chain, nplus = self._dense_minima(H)
        assert abs(rep.min_eig_chain - chain) <= 1e-12, (rep.min_eig_chain, chain)
        assert abs(rep.min_eig_nplus - nplus) <= 1e-12, (rep.min_eig_nplus, nplus)
        assert rep.passed

    def test_chain_fails_with_mu2_for_mu1(self, monkeypatch):
        # negative control: the third level of h^GP in place of the second
        # breaks the chain by N (mu1 - mu2) on one excitation into mode 1
        H = _toy_hamiltonian(N=6, M=7, g=0.5)
        solve = mb.gp_modes_ground

        def without_mu1(H):
            vals, h_gp = solve(H)
            return np.delete(vals, 1), h_gp

        monkeypatch.setattr(mb, "gp_modes_ground", without_mu1)
        rep = verify_gap_chain(H, samples=5)
        vals = solve(H)[0]
        assert rep.mu1 == vals[2]
        assert not rep.passed
        assert rep.min_eig_chain == pytest.approx(6 * (vals[1] - vals[2]), rel=1e-10)
        chain, _ = self._dense_minima(H, mu1_index=2)
        assert abs(rep.min_eig_chain - chain) <= 1e-12, (rep.min_eig_chain, chain)

    def test_free_chain_saturates_on_single_excitation(self):
        # with g = 0 the mean-field operator is h itself and the chain
        # inequality is tight on one excitation into the second mode
        H = _toy_hamiltonian(N=3, M=3, g=0.0)
        eps, vecs = np.linalg.eigh(H.h_mat)
        phi = vecs[:, 0]
        chi = vecs[:, 1]
        sec = H.sector
        n_plus = sec.one_body_matrix(np.eye(3) - np.outer(phi, phi.conj()))
        chain = (
            sec.one_body_matrix(H.h_mat)
            - sec.N * eps[0] * np.eye(sec.D)
            - (eps[1] - eps[0]) * n_plus
        )
        exc = excitation_state(sec, phi, chi)
        assert np.linalg.norm(chain @ exc.vector) < 1e-10

    def test_gp_modes_ground_fixed_point(self):
        H = _toy_hamiltonian(N=3, M=3, g=0.7)
        vals, h_gp = gp_modes_ground(H)
        # recompute the mean-field matrix from the converged eigenvector
        c = np.linalg.eigh(h_gp)[1][:, 0]
        grid = H.modes.grid
        rho = np.abs(H.modes.expand(c)) ** 2
        conv = apply_symbol(grid.kernel_symbol(H.kernel.values), rho)
        U = H.modes.values
        Wm = (U.conj() * conv[None, :]) @ U.T * grid.dv
        rebuilt = H.h_mat + H.g * 0.5 * (Wm + Wm.conj().T)
        assert np.max(np.abs(rebuilt - h_gp)) < 1e-9


class TestInteractionBound:
    def test_gaussian_kernel_bound_nonnegative(self):
        H = _toy_hamiltonian(N=3, M=3, g=0.5)
        phi = np.zeros(3, dtype=complex)
        phi[0] = 1.0
        assert interaction_lower_bound(H, phi) > -1e-10


class TestEvolution:
    def test_hartree_flow_conserves_norm(self):
        H = _toy_hamiltonian(N=3, M=3, g=0.6)
        hart = hartree_from_hamiltonian(H)
        c0 = np.zeros(3, dtype=complex)
        c0[0] = 1.0
        at = hart.flow(c0, 1.0)
        for t in (0.25, 0.5, 1.0):
            assert abs(np.linalg.norm(at(t)) - 1.0) < 1e-10

    def test_rate_matches_finite_difference(self):
        H = _toy_hamiltonian(N=4, M=4, g=0.1)
        phi0 = np.zeros(4, dtype=complex)
        phi0[0] = 1.0
        psi0 = product_state(H.sector, phi0)
        rep = evolve_and_track(
            psi0, H, phi0, hartree_from_hamiltonian(H), np.linspace(0, 0.5, 11), 0.5
        )
        assert rep.max_rate_mismatch < 1e-6
        assert rep.sandwich_violations == 0
        assert rep.bound_violations == 0
        assert np.max(np.abs(rep.psi_norm - 1.0)) < 1e-12
        assert np.max(np.abs(rep.energy - rep.energy[0])) < 1e-10
        assert rep.galerkin_leakage < 0.1

    def test_passed_is_the_one_gronwall_rule(self):
        H = _toy_hamiltonian(N=4, M=4, g=0.1)
        phi0 = np.zeros(4, dtype=complex)
        phi0[0] = 1.0
        psi0 = product_state(H.sector, phi0)
        rep = evolve_and_track(
            psi0, H, phi0, hartree_from_hamiltonian(H), np.linspace(0, 0.5, 11), 0.5
        )
        assert TrackReport.RATE_TOL == TOLERANCES["rate_identity"] == 1e-6
        assert rep.passed
        for change in (
            {"alpha_dot_fd": rep.rate + 2e-6},
            {"sandwich_violations": 1},
            {"bound_violations": 1},
            {"gronwall_ok": False},
        ):
            assert not dataclasses.replace(rep, **change).passed

    def test_free_product_stays_condensed(self):
        H = _toy_hamiltonian(N=3, M=3, g=0.0)
        eps, vecs = np.linalg.eigh(H.h_mat)
        phi0 = vecs[:, 0].astype(complex)
        psi0 = product_state(H.sector, phi0)
        rep = evolve_and_track(
            psi0, H, phi0, hartree_from_hamiltonian(H), np.linspace(0, 1.0, 5), 0.5
        )
        assert np.max(rep.alpha) < 1e-12
        assert np.max(rep.distance) < 1e-10

    def test_gronwall_envelope_holds(self):
        H = _toy_hamiltonian(N=4, M=3, g=0.4)
        phi0 = np.zeros(3, dtype=complex)
        phi0[0] = 1.0
        psi0 = product_state(H.sector, phi0)
        rep = evolve_and_track(
            psi0, H, phi0, hartree_from_hamiltonian(H), np.linspace(0, 0.6, 7), 0.5
        )
        assert rep.gronwall_ok
        a0, c = _fitted_alpha_rate(rep, H, 0.5)
        assert c > 0
        assert np.all(rep.alpha <= a0 * np.exp(c * rep.times) + 1e-12)

    def test_gronwall_envelope_gates_on_term_bounds(self, monkeypatch):
        # with the term bounds scaled down, alpha(t) leaves the integrated
        # envelope, while an exponential rate fitted to alpha(t) still covers it
        monkeypatch.setattr(mb, "_rate_bounds", lambda *args: 1e-3 * _rate_bounds(*args))
        H = _toy_hamiltonian(N=4, M=3, g=0.4)
        phi0 = np.zeros(3, dtype=complex)
        phi0[0] = 1.0
        psi0 = product_state(H.sector, phi0)
        rep = evolve_and_track(
            psi0, H, phi0, hartree_from_hamiltonian(H), np.linspace(0, 0.6, 7), 0.5
        )
        assert not rep.gronwall_ok
        assert not rep.passed
        a0, c = _fitted_alpha_rate(rep, H, 0.5)
        assert np.all(rep.alpha <= a0 * np.exp(c * rep.times) + 1e-12)

    def test_needs_grid_built_hamiltonian(self):
        sec = SymmetricSector(2, 2)
        H = assemble(sec, np.eye(2), np.zeros((4, 4)), 0.1)
        phi0 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="grid"):
            evolve_and_track(
                product_state(sec, phi0), H, phi0, hartree_from_hamiltonian(H),
                np.linspace(0, 0.1, 3), 0.5,
            )

    def test_rate_without_grid_gives_no_bounds(self):
        h = np.diag([1.0, 2.0])
        w = np.array([[1.0, 0.3], [0.3, 0.5]])
        sec = SymmetricSector(3, 2)
        H = assemble(sec, h, _diag_pair_tensor(w), 0.3)
        phi = np.array([1.0, 0.0], dtype=complex)
        rng = np.random.default_rng(29)
        st = ManyBodyState(sec, rng.standard_normal(sec.D) + 0j)
        rep = alpha(st, phi, 0.5, H)
        assert np.isfinite(rep.rate)
        assert rep.rate_terms.shape == (3,)
        assert rep.rate_bounds is None

    def test_rate_needs_two_bosons(self):
        # the rate's pair terms carry 1 / (N (N - 1)); alpha alone stays defined
        H = _toy_hamiltonian(N=1, M=3, g=0.5)
        phi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        psi0 = product_state(H.sector, phi0)
        rep = alpha(psi0, phi0, 0.5)
        assert rep.alpha == 0.0 and rep.rate is None
        with pytest.raises(ValueError, match="N=1"):
            alpha(psi0, phi0, 0.5, H)
        with pytest.raises(ValueError, match="N=1"):
            evolve_and_track(
                psi0, H, phi0, hartree_from_hamiltonian(H), np.linspace(0, 0.1, 3), 0.5
            )

    def test_rate_signs_track_alpha_growth(self):
        # from a slightly perturbed product the counting functional grows,
        # and the exact rate reproduces the finite-difference slope signs
        H = _toy_hamiltonian(N=3, M=3, g=0.5)
        phi0 = np.zeros(3, dtype=complex)
        phi0[0] = 1.0
        psi0 = product_state(H.sector, phi0)
        rep = evolve_and_track(
            psi0, H, phi0, hartree_from_hamiltonian(H), np.linspace(0, 0.3, 7), 0.5
        )
        grow = np.diff(rep.alpha) > 0
        mid_rates = 0.5 * (rep.rate[1:] + rep.rate[:-1])
        assert np.all((mid_rates > 0) == grow)


# ---------------------------------------------------------------------------
# Dense oracle for the sparse engine: the full eigh of H.matrix.toarray().


def _counting_seed(monkeypatch):
    """bench/workloads.py, which holds the seed's alpha(t) and rate(t) at (8, 5)."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return workloads


class TestDenseOracle:
    @pytest.mark.parametrize("N, M", [(1, 2), (2, 2)])
    def test_ground_state_of_tiny_sectors(self, N, M):
        H = _toy_hamiltonian(N=N, M=M, g=0.1)
        assert H.sector.D == N + 1
        vals = np.linalg.eigvalsh(H.matrix.toarray())
        e0, gs = ground_state(H)
        assert abs(e0 - vals[0]) <= 1e-12 * abs(vals[0])
        assert abs(np.vdot(gs.vector, H.matrix @ gs.vector).real - e0) <= 1e-12 * abs(e0)

    @pytest.mark.parametrize("N, M", [(8, 5), (12, 5)])
    def test_sparse_engine_matches_eigh(self, N, M, monkeypatch):
        H = _toy_hamiltonian(N=N, M=M, g=0.1)
        evals, evecs = np.linalg.eigh(H.matrix.toarray())

        e0, gs = ground_state(H)
        assert abs(e0 - evals[0]) <= 1e-12 * abs(evals[0])
        assert 1 - abs(np.vdot(evecs[:, 0], gs.vector)) < 1e-10
        e0_again, gs_again = ground_state(H)
        assert e0_again == e0 and np.array_equal(gs_again.vector, gs.vector)

        # every step evolve_and_track takes, against exp(-i H dt) by eigh and
        # by scipy's expm_multiply
        steps = []

        def spy(H_, vec, dt, evolve=mb._evolve):
            out = evolve(H_, vec, dt)
            steps.append((dt, vec, out))
            return out

        monkeypatch.setattr(mb, "_evolve", spy)
        phi0 = np.zeros(M, dtype=complex)
        phi0[0] = 1.0
        psi0 = product_state(H.sector, phi0)
        times = np.linspace(0.0, 0.5, 11)
        evolve_and_track(psi0, H, phi0, hartree_from_hamiltonian(H), times, 0.5)
        for dt, vec, out in steps:
            exact = evecs @ (np.exp(-1j * evals * dt) * (evecs.conj().T @ vec))
            assert np.max(np.abs(out - exact)) < 1e-12
            assert np.max(np.abs(out - expm_multiply(-1j * dt * H.matrix, vec))) < 1e-12
        for dt in (0.05, 1e-4, -1e-4, 2e-4):
            assert any(abs(step[0] - dt) <= 1e-15 for step in steps)
        # psi(t) on the grid, chained from psi0; the other steps are the
        # finite-difference ones of at most 2 fd_dt = 2e-4
        coeff0 = evecs.conj().T @ psi0.vector
        chain = [out for dt, _, out in steps if dt > 1e-3]
        assert len(chain) == len(times) - 1
        for t, out in zip(times[1:], chain):
            assert np.max(np.abs(out - evecs @ (np.exp(-1j * evals * t) * coeff0))) < 1e-12

    @pytest.mark.parametrize("N, M", [(8, 5), (12, 5)])
    def test_taylor_substeps_match_eigh_and_expm_multiply(self, N, M):
        H = _toy_hamiltonian(N=N, M=M, g=0.1)
        evals, evecs = np.linalg.eigh(H.matrix.toarray())
        mu, A, norm1 = H._centered
        dense = H.matrix.toarray()
        assert np.array_equal(A.toarray(), dense - mu * np.eye(H.sector.D))
        assert abs(norm1 - np.max(np.sum(np.abs(A.toarray()), axis=0))) <= 1e-14 * norm1
        rng = np.random.default_rng(71)
        vec = rng.standard_normal(H.sector.D) + 1j * rng.standard_normal(H.sector.D)
        vec /= np.linalg.norm(vec)
        dt = 60.0 / norm1  # |dt| ||H - mu I||_1 = 60 > 50
        assert mb._taylor_plan(abs(dt) * norm1)[1] > 1
        for step in (dt, -dt):
            out = mb._evolve(H, vec, step)
            exact = evecs @ (np.exp(-1j * evals * step) * (evecs.conj().T @ vec))
            assert np.max(np.abs(out - exact)) < 1e-12
            assert np.max(np.abs(out - expm_multiply(-1j * step * H.matrix, vec))) < 1e-12

    def test_evolve_leaves_the_global_random_state_alone(self):
        # at dt = 5, expm_multiply would estimate norms from np.random
        H = _toy_hamiltonian(N=8, M=5, g=0.1)
        phi0 = np.zeros(5, dtype=complex)
        phi0[0] = 1.0
        psi = product_state(H.sector, phi0).vector
        before = np.random.get_state()
        out = mb._evolve(H, psi, 5.0)
        after = np.random.get_state()
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]
        evals, evecs = np.linalg.eigh(H.matrix.toarray())
        exact = evecs @ (np.exp(-5j * evals) * (evecs.conj().T @ psi))
        assert np.max(np.abs(out - exact)) < 1e-12

    def test_counting_config_matches_seed(self, monkeypatch):
        seed = _counting_seed(monkeypatch)
        H = _toy_hamiltonian(N=seed.COUNTING_N, M=seed.COUNTING_M, g=seed.COUNTING_G)
        phi0 = np.zeros(H.sector.M, dtype=complex)
        phi0[0] = 1.0
        rep = evolve_and_track(
            product_state(H.sector, phi0), H, phi0, hartree_from_hamiltonian(H),
            seed.COUNTING_TIMES, seed.COUNTING_LAM,
        )
        assert rep.passed
        assert _rel_dev(rep.alpha, np.array(seed.COUNTING_ALPHA)) <= 1e-8
        assert _rel_dev(rep.rate, np.array(seed.COUNTING_RATE)) <= 1e-8

    def test_counting_track_splits_each_state_once(self, monkeypatch):
        # per record time: one forward turn for alpha, rate, distance and
        # sandwich, which turns back the rate's two f-hat rows, and two for
        # the finite-difference alphas, which turn back only the guard's column
        seed = _counting_seed(monkeypatch)
        H = _toy_hamiltonian(N=seed.COUNTING_N, M=seed.COUNTING_M, g=seed.COUNTING_G)
        calls = []
        turn = ProjectorContext._turn

        def spy(self, vec, rows):
            calls.append(len(rows))
            return turn(self, vec, rows)

        monkeypatch.setattr(ProjectorContext, "_turn", spy)
        phi0 = np.zeros(H.sector.M, dtype=complex)
        phi0[0] = 1.0
        evolve_and_track(
            product_state(H.sector, phi0), H, phi0, hartree_from_hamiltonian(H),
            seed.COUNTING_TIMES, seed.COUNTING_LAM,
        )
        assert len(seed.COUNTING_TIMES) == 11
        assert calls.count(2) == 11
        assert len(calls) == 3 * 11

    def test_no_dense_hamiltonian_at_16_bosons(self):
        # a dense H alone would take D^2 * 16 B = 358 MiB at D = 4845
        tracemalloc.start()
        try:
            H = _toy_hamiltonian(N=16, M=5, g=0.1)
            ground_state(H)
            phi0 = np.zeros(5, dtype=complex)
            phi0[0] = 1.0
            rep = evolve_and_track(
                product_state(H.sector, phi0), H, phi0, hartree_from_hamiltonian(H),
                np.linspace(0.0, 0.1, 3), 0.5,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert H.sector.D == 4845
        assert rep.passed
        assert peak < 128 * 2**20
