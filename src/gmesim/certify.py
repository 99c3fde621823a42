"""Entanglement certification toolbox for stacks of two-qubit states.

Pauli correlators, the coherence witness W = 1 - |<XX> + <YY>|, CHSH at
fixed settings and the closed-form maximum over settings and the partial
transpose (``derived_batch``), Poissonian count simulation
(``simulate_counts_batch``), maximum-likelihood tomography (``fit``) and
bootstrap error bars (``bootstrap``), each over a stack of states or datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import noise
from .qmath import I2, SIGMA_X, SIGMA_Y, SIGMA_Z

_PAULI_VEC = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


def _outer_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a[..., i], b[..., j]) of two stacks of 2x2 matrices, on the axes (..., i, j, 4, 4):
    a broadcast multiply like np.kron's (einsum rounds complex products differently)."""
    pairs = a[..., :, None, :, None, :, None] * b[..., None, :, None, :, None, :]
    return pairs.reshape(*pairs.shape[:-4], 4, 4)


# _PAULI_PAIRS[i, j] = sigma_i x sigma_j, so T_ij = tr(rho _PAULI_PAIRS[i, j]).
_PAULI_PAIRS = _outer_kron(_PAULI_VEC, _PAULI_VEC)
AXES = {"X": np.array([1.0, 0, 0]), "Y": np.array([0, 1.0, 0]), "Z": np.array([0, 0, 1.0])}
AXIS_NAMES = "XYZ"


class CertifyError(Exception):
    pass


PAULI_SETTINGS = np.array([[AXES[a], AXES[b]] for a in AXIS_NAMES for b in AXIS_NAMES])
PAULI_SETTINGS.setflags(write=False)


def projector_table(bases) -> np.ndarray:
    """(S, 4, 4, 4) outcome projectors of the setting tuples ``bases`` (S, 2, 3),
    outcomes ordered ++, +-, -+, --: kron((I + s_a a.sigma)/2, (I + s_b b.sigma)/2)
    for outcome signs (s_a, s_b) and Bloch vectors a = bases[s, 0], b = bases[s, 1].
    CertifyError unless every axis is a unit vector within 1e-12, as the counts reader
    requires: NaN and Inf fail that test too."""
    bases = np.asarray(bases, dtype=float).reshape(-1, 2, 3)
    with np.errstate(all="ignore"):  # NaN, inf and an overflowing norm fail the test
        if not np.all(np.abs(np.linalg.norm(bases, axis=2) - 1.0) <= 1e-12):
            raise CertifyError("setting axes must be unit Bloch vectors, without NaN or Inf")
    obs = np.tensordot(bases, _PAULI_VEC, axes=1)[:, None]  # (S, sign, qubit, 2, 2)
    half = (I2 + np.array([1, -1])[:, None, None, None] * obs) / 2
    return _outer_kron(half[:, :, 0], half[:, :, 1]).reshape(-1, 4, 4, 4)


@dataclass(frozen=True, eq=False)
class Counts:
    """Outcome counts ``n`` (S, 4), ordered ++, +-, -+, --, of the setting tuples
    ``bases`` (S, 2, 3): one unit Bloch vector per qubit.  Stored read-only; a
    counts file is checked by the reader that builds it."""

    bases: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        bases = np.array(self.bases, dtype=float).reshape(-1, 2, 3)
        n = np.array(self.n, dtype=np.int64).reshape(-1, 4)
        if len(n) != len(bases):
            raise CertifyError(f"{len(n)} rows of counts for {len(bases)} settings")
        for name, arr in (("bases", bases), ("n", n)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.n)


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m.conj(), -1, -2)


def _trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1).real


# ---------------------------------------------------------------------------
# Derived quantities over a stack of two-qubit states, shape (B, 4, 4).


def _correlations(rhos: np.ndarray) -> np.ndarray:
    """(B, 3, 3) Pauli correlation matrices T_ij = tr(rho sigma_i x sigma_j)."""
    return np.einsum("ijlk,bkl->bij", _PAULI_PAIRS, rhos).real


def _witness(t: np.ndarray) -> np.ndarray:
    return 1.0 - np.abs(t[:, 0, 0] + t[:, 1, 1])


def _chsh_fixed(t: np.ndarray) -> np.ndarray:
    """(B,) CHSH values at ``SINGLET_OPTIMAL_SETTINGS``."""
    settings = SINGLET_OPTIMAL_SETTINGS
    e = np.einsum("si,nij,sj->ns", settings[:, 0], t, settings[:, 1])
    return np.abs(e[:, 0] + e[:, 1] + e[:, 2] - e[:, 3])


def _chsh_max(t: np.ndarray) -> np.ndarray:
    """(B,) maximal CHSH values 2 sqrt(s1^2 + s2^2) over all settings, s1 >= s2 the
    two largest singular values of each T (Horodecki et al., PLA 200, 340, 1995)."""
    sv = np.linalg.svd(t, compute_uv=False)
    norm = np.hypot(sv[:, 0], sv[:, 1])
    return np.where(norm < 1e-15, 0.0, 2.0 * norm)  # a rounding-level T reads exactly 0


def _pt_spectra(rhos: np.ndarray) -> np.ndarray:
    """(B, 4) descending spectra of the partial transposes on the second qubit."""
    pt = rhos.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    return np.linalg.eigvalsh(pt)[:, ::-1]


def _negativity(eigs: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(np.minimum(eigs, 0.0)), axis=1)


def _fidelities(rhos: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Uhlmann fidelity (tr sqrt(sqrt(t) rho sqrt(t)))^2 of each member of ``rhos`` to
    ``targets``: one (4, 4) state shared by every member, whose square root is taken
    once, or a (B, 4, 4) stack, one per member."""
    tvals, tvecs = np.linalg.eigh(targets)
    sq = (tvecs * np.sqrt(np.clip(tvals, 0.0, None))[..., None, :]) @ _dagger(tvecs)
    m = sq @ rhos @ sq
    mvals = np.linalg.eigvalsh((m + _dagger(m)) / 2)
    return np.sum(np.sqrt(np.clip(mvals, 0.0, None)), axis=1) ** 2


def derived_batch(rhos: np.ndarray, targets=None) -> dict:
    """Witness, maximal CHSH, CHSH at ``SINGLET_OPTIMAL_SETTINGS`` and partial-transpose
    spectrum of every member of a (B, 4, 4) stack; also the fidelity to ``targets``
    (see ``_fidelities``) when those are given."""
    t = _correlations(rhos)
    eigs = _pt_spectra(rhos)
    q = {
        "witness": _witness(t),
        "chsh_max": _chsh_max(t),
        "chsh_fixed": _chsh_fixed(t),
        "negativity": _negativity(eigs),
        "ppt_eigenvalues": eigs,
        "min_pt_eigenvalue": eigs[:, -1],
    }
    if targets is not None:
        q["fidelity_to_target"] = _fidelities(rhos, targets)
    return q


# The read-only (4, 2, 3) CHSH settings reaching 2 sqrt(2) on the singlet: Alice's
# axes Z and X, each with Bob's two axes.
_BOB = np.array([-(AXES["Z"] + AXES["X"]), AXES["X"] - AXES["Z"]]) / np.sqrt(2)
SINGLET_OPTIMAL_SETTINGS = np.array([[a, b] for a in (AXES["Z"], AXES["X"]) for b in _BOB])
SINGLET_OPTIMAL_SETTINGS.setflags(write=False)


def _outcome_probabilities(rhos: np.ndarray, bases) -> np.ndarray:
    """(B, S, 4) probabilities tr(rho_b Pi) = sum_ij rho_ij Pi_ji, clipped to [0, 1], of
    each state of the (B, 4, 4) stack ``rhos`` for the outcome projectors of ``bases``:
    an elementwise product summed over the two matrix axes.  It calls no BLAS, and a
    member's bits do not depend on the stack around it, which ``np.einsum`` does not
    promise."""
    table = projector_table(bases).swapaxes(-1, -2)
    return np.clip((rhos[:, None, None] * table).sum(axis=(-2, -1)).real, 0.0, 1.0)


def simulate_counts_batch(rhos: np.ndarray, bases, n_per_setting: int, seeds) -> np.ndarray:
    """(B, S, 4) independent Poisson counts with means N tr(rho_b Pi) for each state of
    the (B, 4, 4) stack ``rhos`` and each setting tuple of ``bases`` (S, 2, 3), from
    one projector table (``_outcome_probabilities``).  Member b is one (S, 4) draw from
    ``default_rng(seeds[b])``: numpy fills it in C order, the order of a draw of four
    per setting.  Each mean is floored at 1e-300: numpy draws nothing for a mean of
    exactly 0 but one uniform for any mean in (0, 1e-16], and returns 0 for both.  The
    probabilities call no BLAS, but the model states are built with BLAS products
    (``noise`` and ``circuit.singlet_frame``), so a probability that rounds to +-1e-17
    from one kernel's state and to 0 from another's gives the same counts."""
    if n_per_setting < 1:
        raise CertifyError("counts_per_setting must be >= 1")
    means = np.maximum(n_per_setting * _outcome_probabilities(rhos, bases), 1e-300)
    return np.stack([np.random.default_rng(seed).poisson(m) for seed, m in zip(seeds, means)])


def _check_complete(table: np.ndarray) -> None:
    """CertifyError unless the (4S, 16) map rho -> tr(rho Pi_k) of the settings with
    projector table ``table`` (S, 4, 4, 4) has rank 16 (numpy's ``matrix_rank``
    tolerance), that is unless the settings are informationally complete."""
    sv = np.linalg.svd(table.reshape(-1, 16), compute_uv=False)
    rank = int(np.sum(sv > sv.max(initial=0.0) * max(4 * len(table), 16) * np.finfo(float).eps))
    if rank < 16:
        raise CertifyError(f"settings not informationally complete: rank {rank} of 16")


# A log-likelihood change below this is a stall.  |l| is about 1e5 at 10^4
# counts per setting, where 1e-10 is a few ulp.
STALL_TOL = 1e-10
_MOMENTUM = 0.7  # weight of the last step in the next extrapolation
# Every member starts at I/4, from its factor I/2 as a real 8x8 image: the
# fixed point cannot leave the support of its iterate, so the start is full rank.
_START = np.eye(8) / 2


def _real_image(m: np.ndarray) -> np.ndarray:
    """Real (..., 2d, 2d) image [[Re m, -Im m], [Im m, Re m]] of complex (..., d, d)
    matrices.  The image of a product or real-weighted sum is the product or sum
    of the images, that of m^dagger is the transpose, and the trace doubles."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


@np.errstate(over="ignore", invalid="ignore")
def mle_batch(bases: np.ndarray, counts: np.ndarray, max_iter: int = 100_000):
    """Maximize the Poisson log-likelihood of every member of a stack at once.

    Member b saw ``counts[b, s]`` (shape (B, S, 4)) outcomes of the setting
    tuple ``bases[s]`` (shape (S, 2, 3)) and iterates a factor X of its state,
    rho = X^dagger X / tr.  The plain step X <- X R/N, R = sum_k (n_k/p_k) Pi_k
    and N its total count, is Hradil's fixed point rho <- R rho R / tr (PRA 55,
    R1561, 1997).  After a step that gained at least ``STALL_TOL`` the next
    point is A + ``_MOMENTUM`` (A - A_prev), A the new plain step and A_prev
    the last (O'Donoghue & Candes, Found. Comput. Math. 15, 715, 2015); after
    any other it is A.  A momentum point that lowers the likelihood by more
    than ``STALL_TOL`` restarts: the iterate stays, the next step is plain and
    the stall count carries over.  A plain step that lowers it by more than
    ``STALL_TOL`` and by more than the rounding bound 2 (4S + 1) eps |l| of the
    4S count terms gives up: the member ends unconverged at its iterate.  Any
    other step is a stall if it gains less than ``STALL_TOL`` and keeps the
    iterate if it lowers the likelihood.  10 stalls in a row converge;
    ``max_iter`` steps give up.  A point whose log-likelihood is NaN (a step
    from a nearly pure state, whose R/N near 1e285 overflows X^T X) reads -inf,
    a loss beyond every bound, so its member keeps its last finite iterate;
    numpy's overflow and invalid warnings are silenced.  A plain step kept as a stall comes back bit for
    bit at every later step, each one a stall, so its member ends at once:
    converged at the iteration its tenth stall falls on, or unconverged at
    ``max_iter`` if that lies past it, at the iterate it keeps.  Every member
    starts at I/4 and drops its all-zero settings; when some member drops none,
    the settings must be informationally complete (``_check_complete``,
    CertifyError otherwise).
    X, R/N and each Pi_k are real 8x8 images (``_real_image``), so every
    iterate is PSD by construction.  Every product is a stacked per-member one
    and every in-place update the operation it replaces, so no bit of a
    member's result depends on its stack; ``proj_top``'s strided layout is part
    of that contract (a contiguous copy hands BLAS another layout, which rounds
    differently).  A member with no counts ends at its start, unconverged
    after 0 iterations.  Returns arrays ``(rho, log_likelihood, converged,
    iterations, dropped)``, rho as complex (B, 4, 4).  Counts with a NaN or Inf
    entry or a member total that overflows, and axes that ``projector_table``
    rejects, raise CertifyError.
    """
    counts = np.asarray(counts, dtype=float)
    totals = counts.sum(axis=(1, 2))
    if not np.all(np.isfinite(totals)):  # a NaN or Inf entry, or a total that overflows
        raise CertifyError("mle_batch: counts has NaN or Inf entries or a total that overflows")
    b = len(counts)
    dropped = np.sum(counts.sum(axis=2) == 0, axis=1)
    table = projector_table(bases)
    if np.any(dropped == 0):
        _check_complete(table)
    proj = _real_image(table.reshape(-1, 4, 4))
    # p_k = tr(Pi_k rho) = vec(Pi_k) . vec(rho) / 2 for the symmetric images;
    # their first four rows hold every entry of the complex matrix once.
    proj_top = proj[:, :4].reshape(len(proj), 32).T
    proj = proj.reshape(len(proj), 64)
    n = counts.reshape(b, -1)

    def point(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x scaled in place to unit trace (setting 0's four p sum to it), and its p."""
        top = x.swapaxes(-1, -2)[:, :4] @ x  # rows 0-3 of X^T X
        p = (top.reshape(-1, 1, 32) @ proj_top)[:, 0]
        t = p[:, :4].sum(axis=1)
        x /= np.sqrt(t)[:, None, None]
        p /= t[:, None]
        return x, np.maximum(p, 1e-300, out=p)

    def loglike(p: np.ndarray, nn: np.ndarray) -> np.ndarray:
        terms = np.log(p)
        terms *= nn
        return np.fmax(terms.sum(axis=-1), -np.inf)  # NaN, from an overflow, reads -inf

    x, p = point(np.array(np.broadcast_to(_START, (b, 8, 8))))  # rho = X^T X
    x_out, ll_out = x, loglike(p, n)
    empty = dropped == len(bases)
    converged, iterations = ~empty, np.where(empty, 0, max_iter)
    live = np.flatnonzero(~empty)  # members still iterating; the per-member arrays follow it
    x, p, ll, n = x[live], p[live], ll_out[live], n[live]
    freq = n / n.sum(axis=1, keepdims=True)
    stall, beta = np.zeros(len(live), dtype=int), np.zeros(len(live))
    step = x  # each member's previous plain step
    for it in range(1, max_iter + 1):
        if not len(live):
            break
        new = x @ ((freq / p)[:, None] @ proj).reshape(-1, 8, 8)  # X R/N
        # A + beta (A - A_prev), also at beta = 0: skipping it can turn -0.0 into +0.0.
        step, new = new, new - step
        new *= beta[:, None, None]
        new += step
        new, p_new = point(new)
        ll_new = loglike(p_new, n)
        gain = ll_new - ll
        small = gain < STALL_TOL
        stall += 1
        stall *= small
        keep = gain < 0
        repeat = False
        if keep.any():
            over = gain < -STALL_TOL
            stall -= over & (beta > 0)  # a restart is no stall
            # A plain step that loses more than the rounding bound 2 (4S + 1) eps |l|
            # of l's 4S terms gives up: ten stalls end the member, unconverged.
            lost = over & (beta == 0) & (
                gain < -2 * (n.shape[1] + 1) * np.finfo(float).eps * np.abs(ll))
            converged[live[lost]], stall[lost] = False, 10
            # A kept plain step is taken again bit for bit at every later step, each
            # a stall, so the member ends now, at the iteration of its tenth stall.
            repeat = keep & (beta == 0)
            # A member whose step lowers the likelihood keeps its iterate.
            np.copyto(new, x, where=keep[:, None, None])
            np.copyto(p_new, p, where=keep[:, None])
            np.copyto(ll_new, ll, where=keep)
        # Momentum carries on only after a step that gained at least STALL_TOL.
        beta = np.where(small, 0.0, _MOMENTUM)
        x, p, ll = new, p_new, ll_new
        done = (stall >= 10) | repeat
        if done.any():
            idx, end = live[done], it + 10 - stall[done]
            late = end > max_iter  # the tenth stall would fall past max_iter
            converged[idx[late]] = False
            x_out[idx], ll_out[idx] = x[done], ll[done]
            iterations[idx] = np.where(late, max_iter, end)
            rest = ~done
            live, x, p, ll, stall, beta, step, freq, n = (
                a[rest] for a in (live, x, p, ll, stall, beta, step, freq, n))
    x_out[live], ll_out[live], converged[live] = x, ll, False
    rho = x_out.swapaxes(-1, -2) @ x_out[:, :, :4]  # columns 0-3 of X^T X
    return rho[:, :4] + 1j * rho[:, 4:], ll_out, converged, iterations, dropped


# What ``fit`` returns besides the quantities of ``derived_batch``.
FIT_FIELDS = ("rho", "log_likelihood", "converged", "iterations", "dropped_settings")


def fit(bases: np.ndarray, counts: np.ndarray, targets) -> dict:
    """``mle_batch`` of the (B, S, 4) counts of the setting tuples ``bases`` (S, 2, 3),
    whose states X^dagger X / tr are finite density matrices by construction, and its ``derived_batch`` quantities with
    ``targets`` the fidelity reference, one (4, 4) state or one per member: one array
    over the members for each quantity and for each of ``FIT_FIELDS``."""
    rho, *diagnostics = mle_batch(bases, counts)
    q = derived_batch(rho, targets)
    q.update(zip(FIT_FIELDS, (rho, *diagnostics)))
    return q


def bootstrap(data: Counts, replicas: int, seed: int) -> tuple[dict, int, int, dict]:
    """Per-quantity standard deviations from Poisson resampling of the counts.

    The settings with counts must be informationally complete (CertifyError
    otherwise): an all-zero row measures nothing.  All replicas are one
    (replicas, S, 4) Poisson(count) draw from one generator on the stream
    ``SeedSequence(seed, spawn_key=(0,))``, which no other draw in the package
    uses: counts simulated from the same seed (``default_rng(seed)``, which is
    ``default_rng([seed, 0])``) are never replayed.  The draw fills C order, so
    replica r depends only on (seed, the counts, r) and the first R replicas
    stay the same when R grows.  The counts themselves and every replica that
    drew a count are then fitted as one ``fit`` stack, the counts as member 0
    (a replica that drew none is left out and counts as not converged; fewer
    than two left raise CertifyError).
    Returns the sample standard deviations of the fitted replicas'
    ``derived_batch`` quantities, the number of replicas whose MLE converged,
    the most iterations a fitted replica took, and member 0's ``fit`` fields:
    the point estimate, with fidelities to the singlet.  Deterministic given
    the seed.
    """
    kept = data.n.any(axis=1)  # the rank test of the settings the data measured
    _check_complete(projector_table(data.bases[kept]))
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    drawn = rng.poisson(data.n, size=(replicas, *data.n.shape))
    drawn = drawn[drawn.any(axis=(1, 2))]
    if len(drawn) < 2:
        raise CertifyError(f"only {len(drawn)} of {replicas} bootstrap replicas drew counts")
    q = fit(data.bases, np.concatenate([data.n[None], drawn]), noise.SINGLET)
    sd = {key: np.std(vals[1:], axis=0, ddof=1).tolist()
          for key, vals in q.items() if key not in FIT_FIELDS}
    return (sd, int(np.sum(q["converged"][1:])), int(np.max(q["iterations"][1:])),
            {key: val[0] for key, val in q.items()})


def random_density_matrices(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 4, 4) Ginibre-induced random mixed states, PSD by construction.  State k
    equals the single draw g = normal(4, 4) + i normal(4, 4), g g^dagger / tr that
    follows k others from ``rng``."""
    x = rng.normal(size=(n, 2, 4, 4))
    g = x[:, 0] + 1j * x[:, 1]
    m = g @ _dagger(g)
    m /= _trace(m)[:, None, None]
    return m
