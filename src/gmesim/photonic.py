"""Second-quantization simulator of the linear-optical scheme.

Two photons propagate over 24 single-photon modes: six spatial paths
(out1, 1, 2, 3, 4, out4) times two polarizations (H, V) times a
two-dimensional temporal label used to model partial distinguishability.
No optical element touches the label, so every network is U_12 (x) I_2.
A two-photon state is its symmetric 24x24 creation tensor t, with
state = sum_ij t_ij a_i^dag a_j^dag |0>, held in (K, 24, 24) stacks.  A
network with mode unitary U acts on each as t -> A^T t A with A = U^dag;
coincidence masses and post-selection are index masks on t.  The second
photon's temporal label state is gamma|0> + sqrt(1 - gamma^2)|1>, so an
input is linear in its two label components: a scan over gamma evolves the
two components as one stack and works on the (G, 24, 24) stack of their
combinations.

Logical path encoding of the geometry qubits follows the coupler layout:
qubit 1 is 0 on path 1 / 1 on path 2, qubit 2 is 0 on path 4 / 1 on path 3;
the beam displacers copy the polarization qubit (V=0, H=1) onto the path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import circuit, noise, qmath
from .qmath import check_unit

PATHS = ("out1", "1", "2", "3", "4", "out4")
POLS = ("H", "V")
LABELS = (0, 1)
N_MODES = len(PATHS) * len(POLS) * len(LABELS)

# Path carrying logical value 0 / 1 of each photon (geometry-qubit encoding).
# One photon in each pair of paths certifies a post-selected coincidence.
LOGICAL_PATHS_A = ("1", "2")
LOGICAL_PATHS_B = ("4", "3")


class PhotonicError(Exception):
    pass


def mode_index(path: str, pol: str, label: int = 0) -> int:
    return (PATHS.index(path) * 2 + POLS.index(pol)) * 2 + label


def _path_modes(paths) -> np.ndarray:
    return np.array([mode_index(p, pol, l) for p in paths for pol in POLS for l in LABELS])


def _decoded_modes(paths) -> np.ndarray:
    """[qubit, label] -> mode whose path and polarization (V=0, H=1) agree.

    These are the modes the recombining beam displacers merge into the
    polarization qubit; every other coincidence mode exits an unused port.
    """
    return np.array([[mode_index(paths[q], "VH"[q], l) for l in LABELS] for q in (0, 1)])


def _swap_table(pairs) -> np.ndarray:
    """Permutation of the (path, polarization) modes that exchanges each pair."""
    perm = np.arange(N_MODES // len(LABELS))
    for a, b in pairs:
        i, j = mode_index(*a) // len(LABELS), mode_index(*b) // len(LABELS)
        perm[[i, j]] = j, i
    return perm


DECODE_A = _decoded_modes(LOGICAL_PATHS_A)
DECODE_B = _decoded_modes(LOGICAL_PATHS_B)
# The beam displacers and the 45-degree half-wave plates on paths 2 and 3.
BEAM_DISPLACERS = _swap_table([(("out1", "V"), ("1", "V")), (("out1", "H"), ("2", "H")),
                               (("out4", "H"), ("3", "H")), (("out4", "V"), ("4", "V"))])
HALF_WAVE_PLATES = _swap_table([(("2", "H"), ("2", "V")), (("3", "H"), ("3", "V"))])


@dataclass(frozen=True)
class BsParams:
    """Power reflectivities of the central beam splitter, per polarization."""

    R_H: float = 1 / 3
    R_V: float = 1 / 3

    def __post_init__(self):
        for r in (self.R_H, self.R_V):
            check_unit(r, "reflectivity")


IDEAL_BS = BsParams()
EXPERIMENTAL_BS = BsParams(R_H=0.329, R_V=0.337)
BS_PRESETS = {"ideal": IDEAL_BS, "experimental": EXPERIMENTAL_BS}


def single_photon(path: str, pol: str, label: int = 0) -> np.ndarray:
    v = np.zeros(N_MODES, dtype=complex)
    v[mode_index(path, pol, label)] = 1.0
    return v


def pair_tensors(photon_a: np.ndarray, photon_b: np.ndarray) -> np.ndarray:
    """(K, N, N) creation tensors (a b^T + b a^T) / 2, normalized, of the pairs in two
    (K, N) stacks of single-photon amplitude vectors.  The Fock amplitude of |1_i 1_j> is
    2 t_ij and that of |2_i> is sqrt(2) t_ii, so the norm is 2 sum |t_ij|^2."""
    t = photon_a[:, :, None] * photon_b[:, None, :]
    t = (t + t.swapaxes(1, 2)) / 2
    norms = 2 * np.sum(np.abs(t) ** 2, axis=(1, 2))
    if not np.all(norms >= 1e-14):  # NaN fails the test too
        raise PhotonicError("photon amplitude vectors cancel or are not finite")
    return t / np.sqrt(norms)[:, None, None]


def _network(u12: np.ndarray) -> np.ndarray:
    """The single-photon mode unitary U_12 (x) I_2 of a passive linear network whose
    (path, polarization) block is ``u12``, checked unitary and made read-only to be
    shared.  No element touches the temporal label."""
    u = np.kron(u12, np.eye(len(LABELS)))
    if np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) > 1e-10:
        raise PhotonicError("mode matrix is not unitary")
    u.flags.writeable = False
    return u


def coupler_unitary(R: float) -> np.ndarray:
    """Two-mode coupler [[i sqrt(R), sqrt(1-R)], [sqrt(1-R), i sqrt(R)]]."""
    R = check_unit(R, "reflectivity")
    r = 1j * np.sqrt(R)
    t = np.sqrt(1.0 - R)
    return np.array([[r, t], [t, r]], dtype=complex)


@functools.cache
def build_cz_network(bs: BsParams = IDEAL_BS) -> np.ndarray:
    """Three parallel couplers on path pairs (out1,1), (2,3), (4,out4), built once per ``bs``.

    The polarization sector with reflectivity R sees I_3 (x) C(R) on the
    paths.
    """
    sectors = ((bs.R_H, np.diag([1.0, 0.0])), (bs.R_V, np.diag([0.0, 1.0])))
    u = sum(np.kron(np.kron(np.eye(3), coupler_unitary(r)), proj) for r, proj in sectors)
    return _network(u)


@functools.cache
def build_full_network(bs: BsParams = IDEAL_BS) -> np.ndarray:
    """BDs + HWPs + BS + HWPs up to the coincidence detection, built once per ``bs``.

    The displacers and wave plates permute modes, so U_hwp U_bs U_hwp U_bd is
    a gather of the coupler's (path, polarization) block U_12.
    """
    u = build_cz_network(bs)[::2, ::2]
    return _network(u[np.ix_(HALF_WAVE_PLATES, HALF_WAVE_PLATES[BEAM_DISPLACERS])])


def evolve(t: np.ndarray, net: np.ndarray) -> np.ndarray:
    """Push a (K, N, N) stack of creation tensors through the mode unitary ``net``;
    PhotonicError unless every member has norm 1 within 1e-9 (so NaN is rejected)."""
    if t.ndim != 3 or t.shape[1:] != (N_MODES, N_MODES):
        raise PhotonicError(f"creation tensors must be (K, {N_MODES}, {N_MODES}), got {t.shape}")
    norms = 2 * np.sum(np.abs(t) ** 2, axis=(1, 2))
    bad = ~(np.abs(norms - 1.0) <= 1e-9)
    if bad.any():
        raise PhotonicError(
            f"input not a normalized two-photon state (norm {float(norms[bad][0])!r})"
        )
    a = net.conj().T  # a_i^dag -> sum_j (U^dag)_ij b_j^dag
    out = a.T @ t @ a
    return (out + out.swapaxes(1, 2)) / 2


def _mix_labels(t: np.ndarray, overlaps, name: str) -> np.ndarray:
    """(G, N, N) tensors gamma t[0] + sqrt(1 - gamma^2) t[1], one per overlap gamma: t
    holds the evolved pairs of the second photon's two temporal labels, which are
    orthogonal, so each mixture stays normalized."""
    g = check_unit(overlaps, name)
    return np.tensordot(np.stack([g, np.sqrt(np.maximum(0.0, 1.0 - g * g))], axis=1), t, axes=1)


def pair_mass(t: np.ndarray, paths_a, paths_b) -> np.ndarray:
    """Probability of one photon in ``paths_a`` and the other in ``paths_b``, per tensor of t.

    The two path sets must be disjoint: every such pair of modes (i, j) has
    Fock amplitude 2 t_ij, so the mass is 4 sum |t[A, B]|^2.
    """
    block = t[:, _path_modes(paths_a)[:, None], _path_modes(paths_b)]
    return 4 * np.sum(np.abs(block) ** 2, axis=(-2, -1))


def post_select_coincidence(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project each tensor of a (G, N, N) stack onto one photon in paths {1,2} and one in {3,4}.

    The two-qubit state is decoded through the recombining beam displacers,
    which coherently merge the path-polarization dictionary (path 1 <-> V,
    path 2 <-> H for the first photon; path 3 <-> H, path 4 <-> V for the
    second); components where path and polarization disagree exit through
    unused ports and are dropped.  Temporal labels are traced out.  Returns
    the (G, 4, 4) decoded density matrices, checked as density matrices (so a
    NaN or Inf raises QmathError), and the (G,) pre-normalization coincidence
    masses.
    """
    mass = pair_mass(t, LOGICAL_PATHS_A, LOGICAL_PATHS_B)
    if np.any(mass < 1e-14):
        raise PhotonicError("post-selected mass below 1e-14")
    # Axes: (grid, qubit_a, label_a, qubit_b, label_b); qubit value 0=V, 1=H.
    psi = 2 * t[:, DECODE_A[:, :, None, None], DECODE_B[None, None, :, :]]
    vec = psi.reshape(len(t), 16)
    decoded = np.sum(np.abs(vec) ** 2, axis=-1)
    if np.any(decoded < 1e-14):
        raise PhotonicError("no path-polarization-consistent coincidence terms")
    vec = vec / np.sqrt(decoded)[:, None]
    full = vec[:, :, None] * vec[:, None, :].conj()
    pol = np.einsum("gakblckdl->gabcd", full.reshape(len(t), *(2,) * 8)).reshape(len(t), 4, 4)
    return qmath.check_density(pol), mass


def cz_channel(net: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Post-selected path-qubit map of the logical inputs 00, 01, 10, 11, one stack.

    Both photons are V.  Returns the 4x4 channel matrix in the logical basis,
    whose diagonal is the truth table, and the coincidence mass of each input.
    """
    a, b = (np.array([mode_index(p, "V") for p in paths])
            for paths in (LOGICAL_PATHS_A, LOGICAL_PATHS_B))
    eye = np.eye(N_MODES, dtype=complex)
    t = evolve(pair_tensors(eye[np.repeat(a, 2)], eye[np.tile(b, 2)]), net)
    m = 2 * t[:, a[:, None], b].reshape(4, 4).T
    return m, pair_mass(t, LOGICAL_PATHS_A, LOGICAL_PATHS_B)


def channel_fidelity_to_cz(m: np.ndarray) -> float:
    """Process fidelity of a post-selected channel matrix M to the ideal CZ gate.

    The channel is proportional to M; fidelity is |tr(CZ^dag M)|^2 /
    (4 tr(M^dag M)), which is 1 iff M is CZ up to a global complex factor.
    """
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    denom = 4 * np.trace(m.conj().T @ m).real
    return float(abs(np.trace(cz.conj().T @ m)) ** 2 / denom)


def hom_coincidence(overlaps, bs: BsParams = IDEAL_BS) -> np.ndarray:
    """Coincidence probability for photons meeting on paths 2 and 3, per overlap.

    Each overlap is the temporal wavepacket overlap amplitude gamma; the
    second photon enters with label state gamma|0> + sqrt(1-gamma^2)|1>.
    One evolution of its two label components whatever the number of overlaps.
    """
    photon_b = np.stack([single_photon("3", "V", l) for l in LABELS])
    t = evolve(pair_tensors(np.stack([single_photon("2", "V")] * 2), photon_b),
               build_cz_network(bs))
    return pair_mass(_mix_labels(t, overlaps, "overlap"), ("2",), ("3",))


def _dip_visibility(probs: np.ndarray) -> float:
    """(P_max - P_min)/P_max from the dip's last two entries, at overlaps 0 and 1."""
    return float((probs[-2] - probs[-1]) / probs[-2])


def hom_visibility(bs: BsParams = IDEAL_BS) -> float:
    """(P_max - P_min)/P_max between distinguishable and indistinguishable photons."""
    return _dip_visibility(hom_coincidence([0.0, 1.0], bs))


def simulate_pipeline_grid(gammas, bs: BsParams = IDEAL_BS) -> tuple[np.ndarray, np.ndarray]:
    """Run the full optical pipeline for each overlap gamma and post-select on coincidences.

    Both photons enter in (|H> + |V>)/sqrt(2), on paths out1 and out4.  Returns the
    (G, 4, 4) polarization states and the (G,) success probabilities, from one
    evolution of the two label components whatever the number of overlaps.
    """
    photon_a = (single_photon("out1", "H") + single_photon("out1", "V")) / np.sqrt(2)
    photon_b = np.stack([single_photon("out4", "H", l) + single_photon("out4", "V", l)
                         for l in LABELS]) / np.sqrt(2)
    t = evolve(pair_tensors(np.stack([photon_a] * 2), photon_b), build_full_network(bs))
    return post_select_coincidence(_mix_labels(t, gammas, "gamma"))


def fit_visibility_weights(rho_canonical: np.ndarray) -> np.ndarray:
    """(G,) least-squares weights v of the singlet in v|S><S| + (1-v) rho_dist, one per
    state of a stack."""
    diff = noise.SINGLET - noise.RHO_DIST
    # tr(A^dag B) = sum_ij conj(A_ij) B_ij
    return (np.einsum("gij,ij->g", (rho_canonical - noise.RHO_DIST).conj(), diff).real
            / np.sum(np.abs(diff) ** 2))


def hom_scan(overlaps, bs: BsParams = IDEAL_BS) -> tuple[np.ndarray, np.ndarray, float]:
    """HOM dip P and singlet weight v of the post-selected state, per overlap, as (G,)
    arrays, and the ``hom_visibility`` of ``bs``.

    Two ``evolve`` calls of two members each, whatever the number of
    overlaps: the dip's two label components through the couplers, combined
    for the overlaps and the visibility's endpoints 0 and 1, and the
    pipeline's two through the full network.  v is fitted in the frame of
    ``circuit.singlet_frame``.
    """
    probs = hom_coincidence([*overlaps, 0.0, 1.0], bs)
    rho, _ = simulate_pipeline_grid(overlaps, bs)
    return probs[:-2], fit_visibility_weights(circuit.singlet_frame(rho)), _dip_visibility(probs)
