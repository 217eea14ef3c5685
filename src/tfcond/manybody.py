"""Exact few-boson engine over a small set of one-body modes.

Occupation-number sectors of N bosons in M modes (stars and bars, every
operator from one sparse lowering map): a sparse Hamiltonian from one-body
matrices and pair tensors, its Lanczos ground state and time evolution,
reduced densities, the condensate projector/counting calculus, and exact
verification of the projector identities, operator-norm bounds,
spectral-gap chain, and counting-rate inequalities.

``_evaluate`` is the one evaluation of a state against a reference phi: the
P_k weights |P_k psi|^2 and one reduced density give the counting functional
alpha, the depletion, the distance ||gamma - |phi><phi|||, the sandwich
inequalities and, given H, the same turn of psi gives the two f-hat rows of
the exact counting rate with its three terms and their bounds.
``evolve_and_track`` and ``verify_gap_chain`` both call it.
The mean-field matrix W(phi) = sum V_abcd conj(phi_b) phi_d of the pair
tensor serves the rate, the self-consistent reference ``gp_modes_ground``
and the Galerkin Hartree flow."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import eigsh
from scipy.special import comb, gammaln

from .grids import Field, Grid, apply_symbol, make_grid, norm
from .model import InteractionSpec, RegimeParams, TrapSpec

__all__ = [
    "SECTOR_CAP",
    "ModeBasis",
    "SymmetricSector",
    "ManyBodyState",
    "ManyBodyHamiltonian",
    "ProjectorContext",
    "CountingReport",
    "AppendixReport",
    "GapChainReport",
    "TrackReport",
    "HartreeOnModes",
    "product_state",
    "assemble",
    "build",
    "pair_tensor",
    "mode_one_body",
    "ground_state",
    "reduced_density",
    "op_norm",
    "mu_weights",
    "gp_modes_ground",
    "verify_appendix",
    "verify_gap_chain",
    "hartree_from_hamiltonian",
    "evolve_and_track",
]

SECTOR_CAP = 20_000

# largest deviation of a mode basis's Gram matrix from the identity
_ORTHONORMAL_TOL = 1e-10
# the trap whose lowest eigenmodes ModeBasis.harmonic returns
_HARMONIC_TRAP = TrapSpec(strength=1.0, s=2)


# ---------------------------------------------------------------------------
# Mode bases on a small grid.


@dataclass(frozen=True)
class ModeBasis:
    """M orthonormal one-body mode functions sampled on a 1D grid."""

    grid: Grid
    values: np.ndarray  # (M, n), quadrature-orthonormal rows

    @property
    def M(self) -> int:
        return self.values.shape[0]

    def gram(self) -> np.ndarray:
        return self.values.conj() @ self.values.T * self.grid.dv

    def check_orthonormal(self) -> None:
        dev = np.max(np.abs(self.gram() - np.eye(self.M)))
        if dev > _ORTHONORMAL_TOL:
            raise ValueError(f"modes are not orthonormal (deviation {dev:.2e})")

    def expand(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid samples of sum_a c_a u_a."""
        return np.asarray(coeffs) @ self.values

    def project(self, grid_values: np.ndarray) -> np.ndarray:
        """Mode coefficients of grid samples."""
        return self.values.conj() @ grid_values * self.grid.dv

    @classmethod
    def harmonic(cls, grid: Grid, M: int) -> "ModeBasis":
        """Lowest M eigenmodes of -d^2/dx^2 + x^2 on the grid."""
        if grid.d != 1:
            raise ValueError("mode bases live on 1D grids")
        h = apply_symbol(grid.k2_half, np.eye(grid.n)) + np.diag(_HARMONIC_TRAP.on_grid(grid))
        h = 0.5 * (h + h.T)
        _, vecs = np.linalg.eigh(h)
        modes = vecs[:, :M].T / np.sqrt(grid.dv)
        basis = cls(grid=grid, values=modes.astype(complex))
        basis.check_orthonormal()
        return basis

    @classmethod
    def planewave(cls, grid: Grid, M: int) -> "ModeBasis":
        """Lowest-|k| plane waves on the periodic box."""
        if grid.d != 1:
            raise ValueError("mode bases live on 1D grids")
        L2 = 2 * grid.half_width
        orders = sorted(range(-(M // 2 + 1), M // 2 + 2), key=lambda m: (abs(m), m < 0))
        x = grid.coords()[0]
        rows = []
        for m in orders[:M]:
            k = np.pi * m / grid.half_width
            rows.append(np.exp(1j * k * x) / np.sqrt(L2))
        basis = cls(grid=grid, values=np.array(rows))
        basis.check_orthonormal()
        return basis


# ---------------------------------------------------------------------------
# Symmetric sector combinatorics.


class SymmetricSector:
    """Occupation-number basis of N bosons in M modes; ``occs`` rows ascend lexicographically."""

    def __init__(self, N: int, M: int, cap: int = SECTOR_CAP):
        if N < 1 or M < 1:
            raise ValueError("need N >= 1 bosons and M >= 1 modes")
        D = math.comb(N + M - 1, N)
        if D > cap:
            raise ValueError(f"sector dimension {D} exceeds cap {cap}")
        self.N = N
        self.M = M
        self.D = D
        # stars and bars: the M - 1 bars among N + M - 1 slots split the stars
        bars = np.array(list(itertools.combinations(range(N + M - 1), M - 1)), dtype=int)
        self.occs = np.diff(bars, axis=1, prepend=-1, append=N + M - 1) - 1

    def rank(self, occs) -> np.ndarray:
        """Basis index of each occupation row, in this or any sector of M modes.

        Combinatorial number system: with r_a bosons in modes a.., the rows
        that agree before mode a and hold fewer bosons in it number
        C(r_a + K, K) - C(r_{a+1} + K, K), K = M - 1 - a.
        """
        occs = np.asarray(occs)
        left = np.cumsum(occs[..., ::-1], axis=-1)[..., ::-1]
        K = np.arange(self.M - 1, -1, -1)
        ahead = np.rint(comb(left + K, K)) - np.rint(comb(left - occs + K, K))
        return ahead.sum(axis=-1).astype(np.intp)

    @functools.cached_property
    def lowering(self) -> sparse.csr_array:
        """Stacked annihilation map A, (M * D_{N-1}, D): row c D_{N-1} + j holds <j| a_c."""
        D_lower = math.comb(self.N + self.M - 2, self.N - 1)
        state, mode = np.nonzero(self.occs)
        down = self.occs[state]
        down[np.arange(len(state)), mode] -= 1
        rows = mode * D_lower + self.rank(down)
        amp = np.sqrt(self.occs[state, mode])
        return sparse.csr_array((amp, (rows, state)), shape=(self.M * D_lower, self.D))

    @functools.cached_property
    def _pair_lowering(self) -> sparse.csr_array:
        """A2 = (I_M (x) A_{N-1}) A_N: row (c, d, k) holds <k| a_d a_c."""
        lower = SymmetricSector(self.N - 1, self.M).lowering
        return (sparse.kron(sparse.eye_array(self.M), lower) @ self.lowering).tocsr()

    @functools.cached_property
    def _strings(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Basis indices of the states a rotation of modes (0, i) mixes, i = 1..M-1.

        Entry [i - 1][n] is (G, n + 1): each row is a string of states that
        agree outside modes 0 and i and hold n_0 + n_i = n, ordered by n_i.
        """
        out = []
        for i in range(1, self.M):
            heads = self.occs[self.occs[:, i] == 0]
            by_n = []
            for n in range(self.N + 1):
                occ = np.repeat(heads[heads[:, 0] == n][:, None, :], n + 1, axis=1)
                occ[:, :, 0] -= np.arange(n + 1)
                occ[:, :, i] += np.arange(n + 1)
                by_n.append(self.rank(occ))
            out.append(tuple(by_n))
        return tuple(out)

    def one_body_matrix(self, h: np.ndarray) -> np.ndarray:
        """Sector matrix of sum_j h_j = sum_ab h_ab adag_a a_b."""
        return _sandwich(self.lowering, np.asarray(h)).toarray()

    def two_body_matrix(self, X: np.ndarray) -> np.ndarray:
        """Sector matrix of sum_{j != k} X_{jk}.

        X is (M^2, M^2) with entries <ab|X|cd> in slot order (first, second);
        the assembled operator is sum X_{(ab),(cd)} adag_a adag_b a_d a_c.
        """
        if self.N == 1:
            return np.zeros((self.D, self.D), dtype=complex)
        return _sandwich(self._pair_lowering, np.asarray(X)).toarray()


def _sandwich(A: sparse.csr_array, X: np.ndarray) -> sparse.csr_array:
    """A^H (X (x) I) A as a sparse matrix; A is real."""
    XA = sparse.kron(X, sparse.eye_array(A.shape[0] // X.shape[0]), format="csr") @ A
    return (A.T @ XA).tocsr().astype(complex, copy=False)


@dataclass
class ManyBodyState:
    """Unit-norm coefficient vector over the occupation basis."""

    sector: SymmetricSector
    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex)
        if v.shape != (self.sector.D,):
            raise ValueError("state size does not match the sector")
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValueError("cannot normalize the zero state")
        self.vector = v / nrm


def product_state(sector: SymmetricSector, c: np.ndarray) -> ManyBodyState:
    """phi^{(x) N} in occupation coordinates."""
    c = np.asarray(c, dtype=complex)
    c = c / np.linalg.norm(c)
    occs = sector.occs
    w = np.exp(0.5 * (gammaln(sector.N + 1) - gammaln(occs + 1).sum(axis=1)))
    return ManyBodyState(sector, w * np.prod(c**occs, axis=1))


# ---------------------------------------------------------------------------
# Hamiltonian assembly.


@dataclass
class ManyBodyHamiltonian:
    """H = sum_j h_j + (g/N) sum_{j<k} v_N(x_j - x_k) on the sector."""

    sector: SymmetricSector
    h_mat: np.ndarray
    v_tensor: np.ndarray  # (M^2, M^2) pair tensor of v_N
    g: float
    matrix: sparse.csr_array  # (D, D)
    modes: ModeBasis | None = None
    kernel: Field | None = None
    beta: float | None = None

    @property
    def N(self) -> int:
        return self.sector.N

    @functools.cached_property
    def _centered(self) -> tuple[float, sparse.csr_array, float]:
        """(mu, A, ||A||_1) with mu = tr H / D and A = H - mu I: what ``_evolve`` steps with."""
        D = self.sector.D
        mu = float(self.matrix.trace().real) / D
        A = (self.matrix - mu * sparse.eye_array(D, format="csr")).tocsr()
        return mu, A, float(abs(A).sum(axis=0).max())


def assemble(
    sector: SymmetricSector,
    h_mat: np.ndarray,
    v_tensor: np.ndarray,
    g: float,
    **extra,
) -> ManyBodyHamiltonian:
    mat = _sandwich(sector.lowering, np.asarray(h_mat))
    if g != 0.0 and sector.N > 1:
        mat = mat + (g / (2 * sector.N)) * _sandwich(sector._pair_lowering, np.asarray(v_tensor))
    herm_dev = abs(mat - mat.conj().T).max()
    if herm_dev > 1e-12 * max(1.0, abs(mat).max()):
        raise RuntimeError(f"assembled Hamiltonian not Hermitian ({herm_dev:.2e})")
    mat = (0.5 * (mat + mat.conj().T)).tocsr()
    return ManyBodyHamiltonian(
        sector=sector, h_mat=np.asarray(h_mat), v_tensor=np.asarray(v_tensor),
        g=g, matrix=mat, **extra,
    )


def mode_one_body(modes: ModeBasis, trap: TrapSpec | None) -> np.ndarray:
    """Kinetic (+ trap) matrix <u_a, (-Lap + V) u_b> by quadrature."""
    grid = modes.grid
    U = modes.values
    lap = apply_symbol(grid.k2_half, U.T)
    h = U.conj() @ lap * grid.dv
    if trap is not None:
        V = trap.on_grid(grid)
        h = h + (U.conj() * V[None, :]) @ U.T * grid.dv
    return 0.5 * (h + h.conj().T)


def pair_tensor(modes: ModeBasis, kernel: Field) -> np.ndarray:
    """<ab| v_N |cd> for all mode pairs, from one batched FFT convolution of a real kernel."""
    grid = modes.grid
    U = modes.values
    M = modes.M
    P = U.conj()[:, None, :] * U[None, :, :]  # P[a,c](x) = conj(u_a) u_c
    conv = apply_symbol(grid.kernel_symbol(kernel.values), P.reshape(M * M, -1).T)
    V = np.einsum("acx,bdx->abcd", P, conv.T.reshape(P.shape)) * grid.dv
    V = V.reshape(M * M, M * M)
    return 0.5 * (V + V.conj().T)


def build(
    modes: ModeBasis,
    trap: TrapSpec | None,
    interaction: InteractionSpec,
    regime: RegimeParams,
) -> ManyBodyHamiltonian:
    """Assemble H from grid modes, a trap, and the scaled pair kernel."""
    modes.check_orthonormal()
    if abs(regime.beta - interaction.beta) > 1e-15:
        raise ValueError("regime and interaction disagree on beta")
    sector = SymmetricSector(regime.N, modes.M)
    h_mat = mode_one_body(modes, trap)
    kernel = interaction.kernel_on_grid(modes.grid, regime.N)
    V = pair_tensor(modes, kernel)
    return assemble(
        sector, h_mat, V, regime.g_N,
        modes=modes, kernel=kernel, beta=interaction.beta,
    )


def ground_state(H: ManyBodyHamiltonian) -> tuple[float, ManyBodyState]:
    """Lowest eigenpair of H by Lanczos, from a fixed start vector so reruns agree bitwise."""
    D = H.sector.D
    if D <= 2:
        # ARPACK's complex Hermitian driver needs D > k + 1 = 2
        vals, vecs = np.linalg.eigh(H.matrix.toarray())
    else:
        v0 = np.random.default_rng(0).standard_normal(D)
        vals, vecs = eigsh(H.matrix, k=1, which="SA", v0=v0)
    return float(vals[0]), ManyBodyState(H.sector, vecs[:, 0])


def reduced_density(state: ManyBodyState) -> np.ndarray:
    """One-body reduced density gamma_ab = <adag_b a_a>/N; trace one, PSD."""
    sector = state.sector
    W = (sector.lowering @ state.vector).reshape(sector.M, -1)
    gamma = W @ W.conj().T / sector.N
    return 0.5 * (gamma + gamma.conj().T)


def op_norm(mat: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(mat))))


# ---------------------------------------------------------------------------
# Projector and counting calculus.


def mu_weights(N: int, lam: float) -> np.ndarray:
    """Counting weights mu(k) = min(k / N^lam, 1) on k = 0..N."""
    k = np.arange(N + 1, dtype=float)
    return np.minimum(k / N**lam, 1.0)


def _shifted(weights_by_k, d: int, N: int) -> np.ndarray:
    """w[..., k] = weights_by_k[..., k + d] on k = 0..N, zero where k + d leaves 0..N."""
    weights_by_k = np.asarray(weights_by_k)
    m = np.arange(N + 1) + d
    inside = (m >= 0) & (m <= N)
    w = np.zeros(weights_by_k.shape[:-1] + (N + 1,))
    w[..., inside] = weights_by_k[..., m[inside]]
    return w


@functools.cache
def _string_modes(N: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(lam, S V) of T_n = V diag(lam) V^T for n = 0..N; see ``_string_turns``.

    They do not depend on the angles, so each N decomposes its n + 1 tridiagonals
    once per process.  The arrays are read-only, since every caller shares them.
    """
    out = []
    for n in range(N + 1):
        off = np.sqrt(np.arange(1, n + 1) * np.arange(n, 0, -1))  # sqrt(t (n + 1 - t))
        lam, V = eigh_tridiagonal(np.zeros(n + 1), off)
        SV = (1j ** np.arange(n + 1))[:, None] * V
        lam.setflags(write=False)
        SV.setflags(write=False)
        out.append((lam, SV))
    return tuple(out)


def _string_turns(angles: np.ndarray, N: int) -> list[np.ndarray]:
    """Many-body action of mode-pair rotations on the strings |n - t, t>.

    The rotation by angle a sends e_0 -> c e_0 - s e_i and e_i -> s e_0 + c e_i
    (c, s = cos a, sin a).  On n bosons it is exp(a K_n), where
    K_n = a_0^+ a_i - a_i^+ a_0 is real, antisymmetric and tridiagonal.  With
    S = diag(1j^t), K_n = S (1j T_n) S^H for a real symmetric tridiagonal T_n
    = V diag(lam) V^T, so exp(a K_n) = (S V) diag(exp(1j a lam)) (S V)^H,
    orthogonal up to rounding.  Entry n is (len(angles), n + 1, n + 1).
    """
    turns = []
    for lam, SV in _string_modes(N):
        waves = np.exp(1j * angles[:, None] * lam)
        turns.append(np.einsum("sj,aj,tj->ast", SV, waves, SV.conj()).real)
    return turns


class ProjectorContext:
    """Sector realization of the reference-state projector calculus.

    In one-body modes where phi is mode 0, P_k keeps the occupation states
    with N - k bosons in mode 0.  The unitary W with W phi = e_0 is a
    diagonal phase and then M - 1 real rotations of the mode pairs (0, i).
    Its many-body action Gamma(W) multiplies each state by a phase and
    turns each pair rotation into small exact rotations of the strings of
    states that differ only in how modes 0 and i share their bosons.  So
    P_k = Gamma(W)^H [n_0 = N - k] Gamma(W), with no D x D matrix and with
    rounding that does not grow with N.  ``weights`` bins |P_k vec|^2
    straight from the turned coefficients; ``fhat`` applies any weighted
    counting operator f-hat = sum_k f(k) P_k (shifted ones too) by weighting
    them and turning back only its own rows; ``_evaluate`` takes both from
    one private ``_turn``.  Every turn also turns back the k = N part, which
    a(phi) must annihilate, so a wrong turn raises.
    """

    def __init__(self, sector: SymmetricSector, phi: np.ndarray):
        phi = np.asarray(phi, dtype=complex)
        phi = phi / np.linalg.norm(phi)
        self.sector = sector
        self.phi = phi
        self._k = sector.N - sector.occs[:, 0]  # k of each state in the rotated modes
        # phases that make phi real and nonnegative, then the angles that
        # rotate each |phi_i| into mode 0
        self._phase = np.prod(np.exp(-1j * np.angle(phi)) ** sector.occs, axis=1)
        x0, angles = abs(phi[0]), []
        for xi in np.abs(phi[1:]):
            angles.append(math.atan2(xi, x0))
            x0 = math.hypot(x0, xi)
        self._turns = _string_turns(np.array(angles), sector.N)

    def _rotate(self, X: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Gamma(W) X, or Gamma(W)^H X when inverse, for a block X of columns."""
        X = np.array(X, dtype=complex)
        pairs = list(enumerate(self.sector._strings))
        if inverse:
            pairs.reverse()
        else:
            X *= self._phase[:, None]
        for i, strings in pairs:
            for n, idx in enumerate(strings[1:], start=1):
                R = self._turns[n][i]
                X[idx] = (R.T if inverse else R) @ X[idx]
        if inverse:
            X *= self._phase.conj()[:, None]
        return X

    def _turn(self, vec: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(|P_k vec|^2 for each k, sum_k rows[j, k] P_k vec for each row j) from one turn.

        The inverse turn carries the weighted rows and the k = N part,
        which has no boson in phi, so a(phi) must annihilate it.
        """
        vec = np.asarray(vec, dtype=complex)
        N = self.sector.N
        coeff = self._rotate(vec[:, None])[:, 0]
        rows = np.concatenate([rows, (np.arange(N + 1) == N)[None, :]])
        back = self._rotate((rows[:, self._k] * coeff).T, inverse=True).T
        lowered = self.phi.conj() @ (self.sector.lowering @ back[-1]).reshape(self.sector.M, -1)
        residual = np.linalg.norm(lowered)
        if residual > 1e-10 * np.linalg.norm(vec):
            raise RuntimeError(f"a(phi) does not annihilate P_N vec (residual {residual:.2e})")
        return np.bincount(self._k, np.abs(coeff) ** 2, minlength=N + 1), back[:-1]

    def weights(self, vec: np.ndarray) -> np.ndarray:
        """|P_k vec|^2 for k = 0..N."""
        return self._turn(vec, np.zeros((0, self.sector.N + 1)))[0]

    def fhat(self, fvals, vec: np.ndarray) -> np.ndarray:
        """sum_k fvals[..., k] P_k vec: a (D,) vector per weight row of N + 1 entries."""
        fvals = np.asarray(fvals)
        rows = fvals.reshape(-1, self.sector.N + 1)
        return self._turn(vec, rows)[1].reshape(fvals.shape[:-1] + (self.sector.D,))


@dataclass
class CountingReport:
    """A state evaluated against a reference phi from its P_k weights and one gamma.

    ``distance`` is ||gamma - |phi><phi|||; ``sandwich_ok`` says whether
    distance^2 <= 2 alpha <= 2 N^{1-lam} distance holds (to 1e-10).  The rate
    fields are set when a Hamiltonian is given.
    """

    alpha: float
    depletion: float
    distance: float
    sandwich_ok: bool
    rate: float | None = None
    rate_terms: np.ndarray | None = None
    rate_bounds: np.ndarray | None = None


def _evaluate(
    ctx: ProjectorContext,
    psi: ManyBodyState,
    lam: float,
    H: ManyBodyHamiltonian | None = None,
) -> CountingReport:
    """Counting report of psi against ctx.phi: alpha from the P_k weights, the
    distance, depletion and sandwich from gamma, and, given H, the rate.
    Given H, one turn of psi gives both the weights and the rate's two
    f-hat rows chi_s = (mu - mu_s) psi, s = 1, 2."""
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0, 1)")
    N = psi.sector.N
    c = ctx.phi
    mu = mu_weights(N, lam)
    if H is None:
        w = ctx.weights(psi.vector)
    else:
        w, chi = ctx._turn(psi.vector, mu - np.stack([_shifted(mu, 1, N), _shifted(mu, 2, N)]))
    a_val = float(mu @ w)
    gamma = reduced_density(psi)
    dist = op_norm(gamma - np.outer(c, c.conj()))
    rep = CountingReport(
        alpha=a_val,
        depletion=1.0 - float((c.conj() @ gamma @ c).real),
        distance=dist,
        sandwich_ok=dist**2 <= 2 * a_val + 1e-10 and a_val <= N ** (1 - lam) * dist + 1e-10,
    )
    if H is not None:
        rep.rate, rep.rate_terms = _counting_rate(H, c, psi.vector, chi)
        if H.modes is not None:
            rep.rate_bounds = _rate_bounds(H, c, a_val, lam)
    return rep


def _mean_field_matrix(v_tensor: np.ndarray, c: np.ndarray) -> np.ndarray:
    """W(c)_ac = sum_bd V_abcd conj(c_b) c_d: the mode matrix of v_N * |phi|^2."""
    M = len(c)
    return np.einsum("abcd,b,d->ac", v_tensor.reshape(M, M, M, M), c.conj(), c)


def _counting_rate(
    H: ManyBodyHamiltonian,
    c: np.ndarray,
    psi: np.ndarray,
    chi: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Exact counting rate of the vector psi against phi = c and its three term magnitudes.

    The rate is
                 g [ 2 Im<psi, (mu - mu_1) P0 U12 P1 psi>
                   +  Im<psi, (mu - mu_2) P0 U12 P2 psi>
                   + 2 Im<psi, (mu - mu_1) P1 U12 P2 psi> ]
    with U12 = (N-1) v_N - N (v_N * rho)_1 - N (v_N * rho)_2 and the block
    projectors P0 = p p, P1 = p q, P2 = q q on the pair slots.  chi
    holds the f-hat rows chi_s = (mu - mu_s) psi, s = 1, 2; with the
    pair lowering map A2, <chi, A2^T X A2 psi> = <A2 chi, X A2 psi>, so
    each term is one small matmul on the pair amplitudes A2 psi.
    """
    sector = H.sector
    N, M = sector.N, sector.M
    if N < 2:
        raise ValueError(f"the counting rate needs N >= 2 bosons, got N={N}")
    p1 = np.outer(c, c.conj())
    q1 = np.eye(M) - p1
    W = _mean_field_matrix(H.v_tensor, c)
    eye = np.eye(M)
    U12 = (N - 1) * H.v_tensor - N * np.kron(W, eye) - N * np.kron(eye, W)
    Q0, Q1, Q2 = np.kron(p1, p1), np.kron(p1, q1), np.kron(q1, q1)

    A2 = sector._pair_lowering
    pair_psi = (A2 @ psi).reshape(M * M, -1)
    pair_chi = (A2 @ chi.T).T.reshape(2, M * M, -1)
    combos = ((0, Q0 @ U12 @ Q1), (1, Q0 @ U12 @ Q2), (0, Q1 @ U12 @ Q2))
    terms = np.array(
        [(np.vdot(pair_chi[s], X @ pair_psi) / (N * (N - 1))).imag for s, X in combos]
    )
    rate = H.g * (2 * terms[0] + terms[1] + 2 * terms[2])
    return float(rate), np.abs(terms)


def _rate_bounds(H: ManyBodyHamiltonian, phi: np.ndarray, a_val: float, lam: float) -> np.ndarray:
    """A priori bounds for the three rate terms with quadrature norms.

    a_val is the counting functional of psi against phi.  The kernel
    exponents follow the mode-grid dimension d (the pair kernel is
    N^{d beta} v(N^beta x)), so the scaling identity
    ||v_N||_2 = N^{d beta / 2} ||v||_2 used by the estimates stays exact.
    """
    grid = H.modes.grid
    N = H.sector.N
    d = grid.d
    beta = H.beta
    kv = H.kernel.values
    v1 = float(np.sum(np.abs(kv)) * grid.dv)
    v2_scaled = float(np.sqrt(np.sum(np.abs(kv) ** 2) * grid.dv)) * N ** (-d * beta / 2)
    vmax = max(v1, v2_scaled)

    phi_grid = H.modes.expand(phi)
    f = Field(grid, phi_grid)
    linf = norm(f, "Linf")
    l4 = norm(f, "L4")

    b1 = v1 / N ** ((1 + lam) / 2) * linf**2 * math.sqrt(max(a_val, 0.0))
    b2 = 2 * vmax * max(l4, linf) ** 2 * (a_val + N ** (d * beta - lam) / 2)
    b3 = (
        2 * vmax / N ** ((1 - lam) / 2)
        * linf
        * (N ** (d * beta / 2) + linf)
        * a_val
    )
    return np.array([b1, b2, b3])


# ---------------------------------------------------------------------------
# Appendix identity verification.


# most amplitudes the tensor engine holds in one array
_TENSOR_CAP = 100_000


class _TensorEngine:
    """First-quantized checker on (C^M)^{(x) N} for the projector identities.

    Each tensor index fixes one basis label per slot.  In the eigenbasis U
    of a rank-one projector p (from ``basis``, phi its last column) every
    label below M - 1 is a factor q, so P_k is diagonal there: it keeps the
    indices with k such labels.  U^{(x) N} acts as N matmuls, one per slot.

    Every method also runs on a stack of trials: vectors with a leading
    trial axis T and a stack of T matrices (T, M, M) or pair operators, one
    per trial.  Weight tables may be shared, (N + 1,), or stacked, (T, N + 1).
    """

    def __init__(self, N: int, M: int):
        if M**N > _TENSOR_CAP:
            raise ValueError("tensor engine too large")
        self.N = N
        self.M = M
        self.shape = (M,) * N
        self.size = M**N
        self.sector = SymmetricSector(N, M, cap=10**6)
        labels = np.indices(self.shape).reshape(N, -1).T  # basis label of each slot
        self._q_count = np.count_nonzero(labels < M - 1, axis=1)
        flat = (np.arange(self.size)[:, None] * M + labels).ravel()
        occs = np.bincount(flat, minlength=self.size * M).reshape(-1, M)
        self._rank = self.sector.rank(occs)
        self._weight = np.exp(-0.5 * (gammaln(N + 1) - gammaln(occs + 1).sum(axis=1)))

    @staticmethod
    def basis(p: np.ndarray) -> np.ndarray:
        """Unitary eigenbasis of the rank-one projector p; its range is the last column."""
        return np.linalg.eigh(p)[1]

    def apply_one(self, mat: np.ndarray, vec: np.ndarray, axis: int) -> np.ndarray:
        """mat on the given axis of vec; a stack (T, M, M) acts trial by trial."""
        s = vec.shape
        b = mat.ndim - 2  # trial axes the matrices carry
        v = vec.reshape(s[:b] + (math.prod(s[b:axis]), self.M, -1))
        return (np.expand_dims(mat, -3) @ v).reshape(s)

    def _rotate(self, A: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """A^{(x) N} vec, flat per trial: each matmul acts on the leading slot and moves it last."""
        lead = A.shape[:-2]
        At = np.swapaxes(A, -1, -2)
        v = vec.reshape(lead + (self.M, -1))
        for _ in range(self.N):
            v = (np.swapaxes(v, -1, -2) @ At).reshape(lead + (self.M, -1))
        return v.reshape(lead + (-1,))

    def fhat(self, U: np.ndarray, fvals, vec: np.ndarray, d: int = 0) -> np.ndarray:
        """f-hat-sub-d applied to vec, with U = basis(p): sum_k fvals[k + d] P_k vec."""
        w = _shifted(fvals, d, self.N)[..., self._q_count]
        Uh = np.swapaxes(U.conj(), -1, -2)
        return self._rotate(U, w * self._rotate(Uh, vec)).reshape(vec.shape)

    def apply_pair(self, X: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """The pair operator X (M^2, M^2) on slots 0, 1; a stack (T, M^2, M^2) acts trial by trial."""
        b = X.ndim - 2
        return (X @ vec.reshape(vec.shape[:b] + (self.M * self.M, -1))).reshape(vec.shape)

    def symmetric_random(self, rng) -> np.ndarray:
        D = self.sector.D
        coeff = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        coeff /= np.linalg.norm(coeff)
        return self.from_occupation(coeff)

    def from_occupation(self, coeff: np.ndarray) -> np.ndarray:
        """The symmetric tensor of occupation-basis coefficients over ``self.sector``."""
        coeff = np.asarray(coeff, dtype=complex)
        return (coeff[self._rank] * self._weight).reshape(self.shape)


@dataclass
class AppendixReport:
    N: int
    M: int
    trials: int
    violations: dict
    max_dev: float

    @property
    def passed(self) -> bool:
        return all(v == 0 for v in self.violations.values())


# largest deviation an appendix identity or bound may show on one trial
_IDENTITY_TOL = 1e-10


def verify_appendix(N: int, M: int, trials: int, seed: int = 0) -> AppendixReport:
    """Exact checks of the projector calculus on random data.

    On (C^M)^{(x) N}: the number identity (nu-hat)^2 = (1/N) sum q_j, the
    counting equality ||f q1 psi|| = ||f nu psi|| with its q1 q2 companion
    inequality, and the shift-commutation f-hat Q_j W Q_k = Q_j W Q_k
    f-hat_{j-k} for random two-slot operators.  On a two-particle grid:
    the Hoelder operator bounds for u(x1 - x2) against one and two
    projectors, for the exponent pairs (1, inf) and (2, 2).

    P_k and f-hat are computed in the eigenbasis U of p = |phi><phi|, where
    they are diagonal: vec is rotated by U^H on every slot, weighted by
    f(k + d) at each index with k factors q, and rotated back.  The other
    side of each identity (the q_j sums, the slot projectors, the pair
    operator) acts slot by slot in the original basis.  The tensor trials
    draw their data one trial after another, then run as stacks along a
    leading trial axis, cut so that no stacked array holds more than the
    engine's 100 000 amplitudes; each violation is still counted per
    trial.  The Hoelder trials then run one by one.  The two-particle grid
    has 64 points on [-8, 8).  Needs N >= 2, since the pair identities
    carry sqrt(N / (N - 1)), and at least one trial.
    """
    if N < 2:
        raise ValueError(f"the appendix identities need N >= 2 bosons, got N={N}")
    if trials < 1:
        raise ValueError(f"the appendix identities need at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    eng = _TensorEngine(N, M)
    grid = make_grid(1, 64, 8.0)
    keys = (
        "number_identity",
        "counting_equality",
        "counting_inequality",
        "shift_commutation",
        "one_projector_bound",
        "two_projector_bound",
        "pair_projector_bound",
    )
    viol = {k: 0 for k in keys}
    max_dev = 0.0

    def bump(key, dev, limit):
        """Count each trial whose deviation dev (one per trial) exceeds limit."""
        nonlocal max_dev
        over = np.asarray(dev) - limit
        viol[key] += int(np.count_nonzero(over > 0))
        max_dev = float(np.max(over, initial=max_dev, where=over > 0))

    def draw():
        """One trial's phi, general vector, symmetric state, weights and pair operator."""
        phi = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        raw = rng.standard_normal(eng.shape) + 1j * rng.standard_normal(eng.shape)
        psi = eng.symmetric_random(rng)
        f = rng.uniform(-1.0, 1.0, N + 1)
        Wr = rng.standard_normal((M * M, M * M)) + 1j * rng.standard_normal((M * M, M * M))
        Wr = 0.5 * (Wr + Wr.conj().T)
        return phi / np.linalg.norm(phi), raw / np.linalg.norm(raw), psi, f, Wr

    def largest(x):
        """Largest |entry| of each trial's tensor."""
        return np.abs(x).reshape(len(x), -1).max(axis=1)

    def norms(x):
        """Norm of each trial's tensor."""
        return np.linalg.norm(x.reshape(len(x), -1), axis=1)

    nu2 = np.arange(N + 1) / N
    # trials per stack: a stack holds T tensors and T pair operators (M^4 each)
    chunk = max(1, _TENSOR_CAP // max(eng.size, M**4))
    for start in range(0, trials, chunk):
        T = min(chunk, trials - start)
        phi, raw, psi, f, Wr = map(np.stack, zip(*(draw() for _ in range(T))))
        p = phi[:, :, None] * phi.conj()[:, None, :]
        q = np.eye(M) - p
        fhat = functools.partial(eng.fhat, eng.basis(p))

        # slot j of a stacked tensor is axis j + 1
        # (i) squared fraction operator vs mean of q_j, on a general vector
        lhs = fhat(nu2, raw)
        rhs = np.zeros_like(raw)
        for j in range(N):
            rhs = rhs + eng.apply_one(q, raw, j + 1) / N
        bump("number_identity", largest(lhs - rhs), _IDENTITY_TOL)

        # (ii) combinatorics on a symmetric state
        fq1 = fhat(f, eng.apply_one(q, psi, 1))
        fnu = fhat(f * np.sqrt(nu2), psi)
        bump("counting_equality", np.abs(norms(fq1) - norms(fnu)), _IDENTITY_TOL)
        q1q2 = eng.apply_one(q, eng.apply_one(q, psi, 1), 2)
        lhs2 = norms(fhat(f, q1q2))
        rhs2 = math.sqrt(N / (N - 1)) * norms(fhat(f * nu2, psi))
        bump("counting_inequality", lhs2 - rhs2, _IDENTITY_TOL)

        # (iii) shift commutation with a random pair operator
        pp = lambda v: eng.apply_one(p, eng.apply_one(p, v, 1), 2)
        pq = lambda v: eng.apply_one(p, eng.apply_one(q, v, 2), 1)
        qq = lambda v: eng.apply_one(q, eng.apply_one(q, v, 1), 2)
        Qs = {0: pp, 1: pq, 2: qq}
        for j in range(3):
            for k in range(3):
                if j == k:
                    continue
                a = fhat(f, Qs[j](eng.apply_pair(Wr, Qs[k](psi))))
                b = Qs[j](eng.apply_pair(Wr, Qs[k](fhat(f, psi, d=j - k))))
                bump("shift_commutation", largest(a - b), _IDENTITY_TOL)

    # Hoelder operator bounds on a two-particle grid, one trial at a time:
    # a stack of every trial's 64 x 64 pair state would outweigh the loop
    n, h = grid.n, grid.h
    xs = grid.coords()[0]
    shift = (np.arange(n)[:, None] - np.arange(n)[None, :] + n // 2) % n  # u(x_i - x_j), periodic
    envelope = np.exp(-(xs[:, None] ** 2) / np.array([8.0, 10.0]))  # of phi and of u
    # low pass: keep the modes |k| <= 0.2 * 2 pi / h
    low = (grid.k2_half <= (0.4 * np.pi / h) ** 2).astype(float)
    sizes = np.zeros((trials, 7))
    for t in range(trials):
        raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u_raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        phi_g, u = (apply_symbol(low, np.stack([raw, u_raw], axis=-1)) * envelope).T
        phi_g = phi_g / math.sqrt(float(np.sum(np.abs(phi_g) ** 2) * h))
        psi2 /= math.sqrt(float(np.sum(np.abs(psi2) ** 2) * h * h))
        rho, U = np.abs(phi_g) ** 2, u[shift]
        U2, au = np.abs(U) ** 2, np.abs(u)
        w = (phi_g.conj() @ psi2) * h  # p1 psi = phi (x) w
        overlap = (w @ phi_g.conj()) * h  # pp psi = overlap phi (x) phi
        # L2 norms of u12 p1 psi, of p1 u12 p1 psi = phi (x) h (rho @ U) w and
        # of u12 pp psi, each a rank-one product with u12 = u(x1 - x2)
        sizes[t] = (
            h * math.sqrt(rho @ U2 @ np.abs(w) ** 2),
            h * h * math.sqrt(rho.sum() * np.sum(np.abs((rho @ U) * w) ** 2)),
            h * abs(overlap) * math.sqrt(rho @ U2 @ rho),
            au.max(),
            math.sqrt(np.sum(au**2) * h),
            float(np.sum(au**4) * h) ** 0.25,
            float(np.sum(rho**2) * h) ** 0.25,
        )
    lhs, lhs2, lhs3, u_inf, u_l2, u_l4, phi_l4 = sizes.T
    bump("one_projector_bound", lhs - u_inf, _IDENTITY_TOL)  # (a, a') = (1, inf)
    bump("one_projector_bound", lhs - phi_l4 * u_l4, _IDENTITY_TOL)  # (2, 2)
    bump("two_projector_bound", lhs2 - u_inf, _IDENTITY_TOL)
    bump("two_projector_bound", lhs2 - phi_l4**2 * u_l2, _IDENTITY_TOL)
    bump("pair_projector_bound", lhs3 - u_inf, _IDENTITY_TOL)
    bump("pair_projector_bound", lhs3 - phi_l4**2 * u_l2, _IDENTITY_TOL)

    return AppendixReport(N=N, M=M, trials=trials, violations=viol, max_dev=max_dev)


# ---------------------------------------------------------------------------
# Gap chain against the mean-field reference.


@dataclass
class GapChainReport:
    mu0: float
    mu1: float
    min_eig_chain: float
    min_eig_nplus: float
    sandwich_violations: int
    samples: int
    depletion: float

    @property
    def passed(self) -> bool:
        return (
            self.min_eig_chain >= -1e-10
            and self.min_eig_nplus >= -1e-10
            and self.sandwich_violations == 0
        )


# the mean-field iteration stops once its eigenvector moves less than
# _SCF_TOL (up to a phase) and gives up after _SCF_MAX_ITER sweeps
_SCF_TOL = 1e-12
_SCF_MAX_ITER = 500


def gp_modes_ground(H: ManyBodyHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Self-consistent mean-field one-body operator on the mode set.

    Iterates h_eff = h + g W(phi), with W the mean-field matrix of H's pair
    tensor, to a fixed point of its lowest eigenvector phi; returns
    (eigenvalues, h_eff) of the converged operator.
    """
    c = np.zeros(H.sector.M, dtype=complex)
    c[0] = 1.0
    for _ in range(_SCF_MAX_ITER):
        W = _mean_field_matrix(H.v_tensor, c)
        h_eff = H.h_mat + H.g * 0.5 * (W + W.conj().T)
        vals, vecs = np.linalg.eigh(h_eff)
        new_c = vecs[:, 0]
        ov = np.vdot(new_c, c)
        phase = ov / abs(ov) if abs(ov) > 0 else 1.0
        if np.linalg.norm(new_c - phase * c) < _SCF_TOL:
            return vals, h_eff
        c = new_c
    raise RuntimeError("mean-field iteration did not converge")


def verify_gap_chain(
    H: ManyBodyHamiltonian,
    lam: float = 0.5,
    samples: int = 100,
    seed: int = 0,
) -> GapChainReport:
    """Matrix inequalities sum_j (h^GP_j - mu0) >= (mu1 - mu0) N_+ >= 0,
    plus the counting sandwich on random states and the ground-state
    depletion of H against the mean-field reference.

    h^GP is the converged operator of ``gp_modes_ground(H)``, mu0 < mu1 its
    lowest eigenvalues and its lowest mode the reference phi of N_+ = sum_j
    q_j, q = 1 - |phi><phi|.  Both sides are one-body operators sum_j A_j,
    whose spectrum on the N-boson sector holds the sums of N eigenvalues of
    the M x M matrix A, so each minimum is N lambda_min(A).
    """
    if samples < 1:
        raise ValueError(f"the gap chain needs at least one sample, got {samples}")
    sector = H.sector
    vals, h_gp = gp_modes_ground(H)
    mu0, mu1 = float(vals[0]), float(vals[1])
    phi_gp = np.linalg.eigh(h_gp)[1][:, 0]

    eye = np.eye(sector.M)
    q = eye - np.outer(phi_gp, phi_gp.conj())
    # sum_j (h^GP_j - mu0) - (mu1 - mu0) N_+, since sum_j 1 = N on the sector
    min_chain = sector.N * float(np.linalg.eigvalsh(h_gp - mu0 * eye - (mu1 - mu0) * q)[0])
    min_nplus = sector.N * float(np.linalg.eigvalsh(q)[0])
    ctx = ProjectorContext(sector, phi_gp)

    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(samples):
        v = rng.standard_normal(sector.D) + 1j * rng.standard_normal(sector.D)
        bad += not _evaluate(ctx, ManyBodyState(sector, v), lam).sandwich_ok

    _, gs = ground_state(H)
    depl = _evaluate(ctx, gs, lam).depletion
    return GapChainReport(
        mu0=mu0,
        mu1=mu1,
        min_eig_chain=min_chain,
        min_eig_nplus=min_nplus,
        sandwich_violations=bad,
        samples=samples,
        depletion=depl,
    )


# ---------------------------------------------------------------------------
# Tracked evolution.


# relative and absolute tolerance of the Galerkin mean-field flow
_FLOW_RTOL = 1e-12


@dataclass
class HartreeOnModes:
    """Galerkin mean-field flow i c' = h c + g (V : c-bar c c) on the modes."""

    h_mat: np.ndarray
    v_tensor: np.ndarray
    g: float

    def rhs(self, t, y):
        M = self.h_mat.shape[0]
        c = y[:M] + 1j * y[M:]
        dc = -1j * (self.h_mat @ c + self.g * (_mean_field_matrix(self.v_tensor, c) @ c))
        return np.concatenate([dc.real, dc.imag])

    def flow(self, c0: np.ndarray, t_end: float):
        from scipy.integrate import solve_ivp  # imported here: slow to import, rarely run

        y0 = np.concatenate([np.asarray(c0, complex).real, np.asarray(c0, complex).imag])
        sol = solve_ivp(
            self.rhs,
            (0.0, t_end),
            y0,
            method="DOP853",
            rtol=_FLOW_RTOL,
            atol=_FLOW_RTOL,
            dense_output=True,
        )
        if not sol.success:
            raise RuntimeError(f"mean-field flow failed: {sol.message}")
        M = self.h_mat.shape[0]

        def at(t):
            y = sol.sol(t)
            return y[:M] + 1j * y[M:]

        return at


def hartree_from_hamiltonian(H: ManyBodyHamiltonian) -> HartreeOnModes:
    return HartreeOnModes(h_mat=H.h_mat, v_tensor=H.v_tensor, g=H.g)


@dataclass
class TrackReport:
    times: np.ndarray
    alpha: np.ndarray
    rate: np.ndarray
    alpha_dot_fd: np.ndarray
    distance: np.ndarray
    rate_terms: np.ndarray  # (nt, 3)
    rate_bounds: np.ndarray  # (nt, 3)
    psi_norm: np.ndarray
    energy: np.ndarray
    sandwich_violations: int
    bound_violations: int
    gronwall_ok: bool
    galerkin_leakage: float

    RATE_TOL = 1e-6  # largest |d(alpha)/dt - rate| the rate identity allows

    @property
    def max_rate_mismatch(self) -> float:
        return float(np.max(np.abs(self.rate - self.alpha_dot_fd)))

    @property
    def passed(self) -> bool:
        """Rate identity within RATE_TOL, no sandwich or term-bound violation,
        alpha inside its Gronwall envelope."""
        return (
            self.max_rate_mismatch < self.RATE_TOL
            and self.sandwich_violations == 0
            and self.bound_violations == 0
            and self.gronwall_ok
        )


# theta_m of Al-Mohy & Higham (2011), Table 3.1, at unit roundoff 2^-53: the
# degree-m Taylor polynomial of exp(X) has backward error below 2^-53 while
# ||X||_1 <= theta_m
_TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.4e-4, 5: 2.4e-3, 6: 9.07e-3, 7: 2.38e-2,
    8: 5.0e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.0e-1, 13: 4.0e-1, 14: 5.14e-1,
    15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44, 21: 1.62,
    22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31,
    30: 3.54, 35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_TAYLOR_TOL = 2.0**-53


def _taylor_plan(norm: float) -> tuple[int, int]:
    """Degree m and substeps s of least cost m s with norm / s <= theta_m."""
    if norm == 0:
        return 0, 1
    steps = {m: math.ceil(norm / th) for m, th in _TAYLOR_THETA.items()}
    m = min(steps, key=lambda m: m * steps[m])
    return m, steps[m]


def _evolve(H: ManyBodyHamiltonian, vec: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt) vec by the truncated Taylor series of Al-Mohy & Higham (2011).

    With mu = tr H / D and A = H - mu I, exp(-i H dt) = exp(-i mu dt)
    exp(-i A dt).  The degree m and the substep count s come from the exact
    |dt| ||A||_1 alone, and ||A||_1 is computed once per Hamiltonian, so no
    norm is estimated and no random state is read.  Each of the s substeps
    sums the series until two successive terms fall below 2^-53 of the
    partial sum, the paper's early termination.
    """
    mu, A, norm1 = H._centered
    m, s = _taylor_plan(abs(dt) * norm1)
    h = -1j * dt / s
    eta = np.exp(h * mu)
    F = np.asarray(vec, dtype=complex)
    for _ in range(s):
        B = F
        c1 = np.abs(B).max()
        for j in range(1, m + 1):
            B = (h / j) * (A @ B)
            c2 = np.abs(B).max()
            F = F + B
            if c1 + c2 <= _TAYLOR_TOL * np.abs(F).max():
                break
            c1 = c2
        F = eta * F
    return F


# time step of the finite-difference cross-check of the counting rate
_FD_DT = 1e-4


def evolve_and_track(
    psi0: ManyBodyState,
    H: ManyBodyHamiltonian,
    phi0: np.ndarray,
    hartree: HartreeOnModes,
    t_grid: np.ndarray,
    lam: float,
) -> TrackReport:
    """Exact sector evolution with mean-field counting diagnostics.

    psi steps between grid times by ``_evolve``, a truncated Taylor series
    on the sparse H whose degree and substeps follow from ||H - mu I||_1,
    computed once for H; phi follows the Galerkin mean-field flow on the
    same modes.  At each time one
    evaluation of psi(t) against phi(t), the core of ``alpha``, gives alpha,
    the exact counting rate, the three rate-term estimates, the
    reduced-density distance and the sandwich inequalities; alpha at
    t +- _FD_DT gives the rate's finite-difference cross-check.  gronwall_ok
    holds when alpha stays below alpha(0) + int |g| (2 b1 + b2 + 2 b3) dt,
    the integrated term bounds.  t_grid holds at least two strictly
    increasing times, starting at 0.
    """
    if H.modes is None or H.kernel is None or H.beta is None:
        raise ValueError("needs a grid-built Hamiltonian")
    sector = psi0.sector
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2 or t_grid[0] != 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("the tracked times must be at least two, strictly increasing from 0")
    phi_at = hartree.flow(phi0, float(t_grid[-1]) + 2 * _FD_DT)

    # energy leakage of the mean-field generator out of the mode span
    grid = H.modes.grid
    c0n = np.asarray(phi0, complex)
    c0n = c0n / np.linalg.norm(c0n)
    phi_grid = H.modes.expand(c0n)
    rho = np.abs(phi_grid) ** 2
    conv = apply_symbol(grid.kernel_symbol(H.kernel.values), rho)
    rhs_grid = conv * phi_grid
    inside = H.modes.expand(H.modes.project(rhs_grid))
    num = float(np.sqrt(np.sum(np.abs(rhs_grid - inside) ** 2) * grid.dv))
    den = float(np.sqrt(np.sum(np.abs(rhs_grid) ** 2) * grid.dv))
    leakage = num / den if den > 0 else 0.0

    mu = mu_weights(sector.N, lam)
    n_t = len(t_grid)
    a_arr = np.zeros(n_t)
    r_arr = np.zeros(n_t)
    fd_arr = np.zeros(n_t)
    d_arr = np.zeros(n_t)
    terms = np.zeros((n_t, 3))
    bounds = np.zeros((n_t, 3))
    psin = np.zeros(n_t)
    ener = np.zeros(n_t)
    sandwich_bad = 0
    bound_bad = 0

    def alpha_after(t, vec, s):
        """alpha at t + s of vec = psi(t) stepped by s."""
        return mu @ ProjectorContext(sector, phi_at(t + s)).weights(_evolve(H, vec, s))

    pv = psi0.vector
    for i, t in enumerate(t_grid):
        if i > 0:
            pv = _evolve(H, pv, t - t_grid[i - 1])
        rep = _evaluate(ProjectorContext(sector, phi_at(t)), ManyBodyState(sector, pv), lam, H)
        a_arr[i], r_arr[i], d_arr[i] = rep.alpha, rep.rate, rep.distance
        terms[i], bounds[i] = rep.rate_terms, rep.rate_bounds
        bound_bad += bool(np.any(terms[i] > bounds[i] + 1e-10))
        sandwich_bad += not rep.sandwich_ok
        if t >= _FD_DT:
            fd_arr[i] = (alpha_after(t, pv, _FD_DT) - alpha_after(t, pv, -_FD_DT)) / (2 * _FD_DT)
        else:
            # second-order one-sided stencil at the left edge
            fd_arr[i] = (
                -3 * a_arr[i] + 4 * alpha_after(t, pv, _FD_DT) - alpha_after(t, pv, 2 * _FD_DT)
            ) / (2 * _FD_DT)
        psin[i] = float(np.linalg.norm(pv))
        ener[i] = float(np.vdot(pv, H.matrix @ pv).real)

    growth = abs(H.g) * (bounds @ np.array([2.0, 1.0, 2.0]))
    envelope = a_arr[0] + np.r_[0.0, np.cumsum(np.diff(t_grid) * (growth[1:] + growth[:-1]) / 2)]
    gron_ok = bool(np.all(a_arr <= envelope + 1e-12))

    return TrackReport(
        times=t_grid,
        alpha=a_arr,
        rate=r_arr,
        alpha_dot_fd=fd_arr,
        distance=d_arr,
        rate_terms=terms,
        rate_bounds=bounds,
        psi_norm=psin,
        energy=ener,
        sandwich_violations=sandwich_bad,
        bound_violations=bound_bad,
        gronwall_ok=gron_ok,
        galerkin_leakage=leakage,
    )
