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

from tfcond import manybody as mb
from tfcond.grids import make_grid
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
    alpha,
    assemble,
    build,
    evolve_and_track,
    excitation_state,
    ground_state,
    gp_modes_ground,
    hartree_from_hamiltonian,
    interaction_lower_bound,
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
            assert _rel_dev(sec._apply_two_body(X, v), T @ v) <= 1e-12
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
        assert np.array_equal(sec._apply_two_body(X, np.ones(3)), np.zeros(3))

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
        for k in range(N + 1):
            block = ctx.split(coeff)[k]
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
        assert abs(st.norm - 1.0) < 1e-14

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
        assert rep.n_plus < 1e-12
        assert rep.depletion < 1e-12
        assert rep.distance < 1e-13
        assert rep.sandwich_ok

    def test_alpha_one_excitation(self):
        N = 4
        sec = SymmetricSector(N, 3)
        phi = np.array([1.0, 0.0, 0.0])
        chi = np.array([0.0, 0.0, 1.0])
        rep = alpha(excitation_state(sec, phi, chi), phi, 0.5)
        assert abs(rep.alpha - N**-0.5) < 1e-12
        assert abs(rep.n_plus - 1.0) < 1e-12

    def test_alpha_gauge_invariance(self):
        rng = np.random.default_rng(13)
        sec = SymmetricSector(3, 3)
        v = rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D)
        st = ManyBodyState(sec, v)
        phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a1 = alpha(st, phi, 0.5)
        a2 = alpha(st, np.exp(0.7j) * phi, 0.5)
        assert abs(a1.alpha - a2.alpha) < 1e-12
        assert abs(a1.n_plus - a2.n_plus) < 1e-12

    def test_alpha_lambda_range(self):
        sec = SymmetricSector(2, 2)
        st = product_state(sec, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="lam"):
            alpha(st, np.array([1.0, 0.0]), 1.5)

    def test_nplus_spectrum_is_integers(self):
        sec = SymmetricSector(4, 3)
        phi = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        ctx = ProjectorContext(sec, phi)
        oracle = _EighProjectorContext(sec, phi)
        assert sorted(set(oracle.k_of_col.tolist())) == list(range(5))
        vals = np.linalg.eigvalsh(ctx.n_plus_matrix())
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
        n_direct = ctx.expect_weights(np.arange(5, dtype=float), st.vector)
        rep = alpha(st, phi, 0.5)
        assert abs(n_direct - rep.n_plus) < 1e-10
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
            assert _rel_dev(_shifted(f, d, sec.N) @ ctx.split(v), ref) <= 1e-12
        assert _rel_dev(ctx.sector_weights(v), _loop_sector_weights(oracle, v)) <= 1e-12

    def test_pk_partition_of_unity(self):
        rng = np.random.default_rng(19)
        sec = SymmetricSector(3, 3)
        phi = rng.standard_normal(3)
        ctx = ProjectorContext(sec, phi)
        v = rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D)
        total = sum(ctx.split(v)[k] for k in range(4))
        assert np.max(np.abs(total - v)) < 1e-12
        w = ctx.sector_weights(v)
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
    """ProjectorContext's split into P_k parts against the dense eigh oracle."""

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
        parts = ctx.split(v)
        assert parts.shape == (N + 1, sec.D)
        for k in range(N + 1):
            assert np.max(np.abs(parts[k] - oracle.p_k(v, k))) <= 1e-12
            assert np.array_equal(ctx.split(v)[k], parts[k])
        f = rng.uniform(0.5, 1.5, N + 1)
        for d in (-2, -1, 0, 1, 2):  # at N = 1, d = +-2 leaves every weight zero
            ref = _loop_apply_weights(oracle, f, v, d)
            assert np.max(np.abs(_shifted(f, d, N) @ ctx.split(v) - ref)) <= 1e-12
        assert _rel_dev(ctx.sector_weights(v), _loop_sector_weights(oracle, v)) <= 1e-12
        assert _rel_dev(ctx.n_plus_matrix(), oracle.n_plus_matrix()) <= 1e-12

    def test_parts_are_orthogonal_number_eigenvectors(self):
        rng = np.random.default_rng(41)
        sec = SymmetricSector(5, 3)
        phi, _, q = _random_projector_pair(rng, 3)
        ctx = ProjectorContext(sec, phi)
        n_plus = sec.one_body_matrix(q)  # sum_j q_j, built without the ladder
        v = rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D)
        v /= np.linalg.norm(v)
        for k, part in enumerate(ctx.split(v)):
            assert np.max(np.abs(n_plus @ part - k * part)) <= 1e-12
            assert np.max(np.abs(ctx.n_plus_matrix() @ part - k * part)) <= 1e-12
            for j in range(sec.N + 1):
                target = part if j == k else np.zeros_like(part)
                assert np.max(np.abs(ctx.split(part)[j] - target)) <= 1e-12

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
        parts = ctx.split(v)
        assert np.linalg.norm(parts[0]) > 0.999
        for k in range(1, N + 1):
            assert np.linalg.norm(parts[k]) < 1.1e-3
            assert np.max(np.abs(parts[k] - oracle.p_k(v, k))) <= 1e-14

    def test_guard_rejects_a_wrong_rotation(self):
        rng = np.random.default_rng(47)
        sec = SymmetricSector(4, 3)
        ctx = ProjectorContext(sec, _random_projector_pair(rng, 3)[0])
        v = rng.standard_normal(sec.D) + 1j * rng.standard_normal(sec.D)
        ctx.split(v)
        ctx._phase = ctx._phase.conj()  # now rotates conj(phi) into mode 0
        with pytest.raises(RuntimeError, match="annihilate"):
            ctx.split(v)

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
        # the bounds read alpha from the same split of psi
        a_ref = float(mu @ _loop_sector_weights(oracle, psi))
        assert abs(rep.alpha - a_ref) <= 1e-12 * a_ref
        assert _rel_dev(bounds, _rate_bounds(H, phi, a_ref, 0.5)) <= 1e-12


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


class TestGapChain:
    def test_chain_and_sandwich(self):
        H = _toy_hamiltonian(N=3, M=3, g=0.5)
        _, h_gp = gp_modes_ground(H)
        rep = verify_gap_chain(H, h_gp, lam=0.5, samples=50, seed=0)
        assert rep.passed
        assert rep.min_eig_chain >= -1e-10
        assert rep.min_eig_nplus >= -1e-10
        assert rep.sandwich_violations == 0
        assert rep.mu1 > rep.mu0
        assert rep.depletion < 0.05

    def test_free_chain_saturates_on_single_excitation(self):
        # with g = 0 the mean-field operator is h itself and the chain
        # inequality is tight on one excitation into the second mode
        H = _toy_hamiltonian(N=3, M=3, g=0.0)
        eps, vecs = np.linalg.eigh(H.h_mat)
        phi = vecs[:, 0]
        chi = vecs[:, 1]
        sec = H.sector
        ctx = ProjectorContext(sec, phi)
        chain = (
            sec.one_body_matrix(H.h_mat)
            - sec.N * eps[0] * np.eye(sec.D)
            - (eps[1] - eps[0]) * ctx.n_plus_matrix()
        )
        exc = excitation_state(sec, phi, chi)
        assert np.linalg.norm(chain @ exc.vector) < 1e-10

    def test_mode_mismatch_rejected(self):
        H = _toy_hamiltonian(N=3, M=3)
        with pytest.raises(ValueError, match="mode"):
            verify_gap_chain(H, np.eye(2))

    def test_gp_modes_ground_fixed_point(self):
        H = _toy_hamiltonian(N=3, M=3, g=0.7)
        vals, h_gp = gp_modes_ground(H)
        # recompute the mean-field matrix from the converged eigenvector
        from tfcond.grids import Field, convolve

        c = np.linalg.eigh(h_gp)[1][:, 0]
        grid = H.modes.grid
        rho = np.abs(H.modes.expand(c)) ** 2
        conv = convolve(H.kernel, Field(grid, rho)).values.real
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

    def test_needs_grid_built_hamiltonian(self):
        sec = SymmetricSector(2, 2)
        H = assemble(sec, np.eye(2), np.zeros((4, 4)), 0.1)
        with pytest.raises(ValueError, match="grid"):
            interaction_lower_bound(H, np.array([1.0, 0.0]))


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

        # every step evolve_and_track takes, against exp(-i H dt) by eigh
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
        # psi(t) on the grid, chained from psi0; the other steps are the
        # finite-difference ones of at most 2 fd_dt = 2e-4
        coeff0 = evecs.conj().T @ psi0.vector
        chain = [out for dt, _, out in steps if dt > 1e-3]
        assert len(chain) == len(times) - 1
        for t, out in zip(times[1:], chain):
            assert np.max(np.abs(out - evecs @ (np.exp(-1j * evals * t) * coeff0))) < 1e-12

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
        # per record time: one split for alpha, rate, distance and sandwich,
        # and two for the finite-difference alphas
        seed = _counting_seed(monkeypatch)
        H = _toy_hamiltonian(N=seed.COUNTING_N, M=seed.COUNTING_M, g=seed.COUNTING_G)
        calls = []
        split = ProjectorContext.split

        def spy(self, vec):
            calls.append(len(vec))
            return split(self, vec)

        monkeypatch.setattr(ProjectorContext, "split", spy)
        phi0 = np.zeros(H.sector.M, dtype=complex)
        phi0[0] = 1.0
        evolve_and_track(
            product_state(H.sector, phi0), H, phi0, hartree_from_hamiltonian(H),
            seed.COUNTING_TIMES, seed.COUNTING_LAM,
        )
        assert len(seed.COUNTING_TIMES) == 11
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
