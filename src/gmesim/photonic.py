"""Second-quantization simulator of the linear-optical scheme.

Two photons propagate over 24 single-photon modes: six spatial paths
(out1, 1, 2, 3, 4, out4) times two polarizations (H, V) times a
two-dimensional temporal label used to model partial distinguishability.
No optical element touches the label, so every network is U_12 (x) I_2.
A two-photon state is its symmetric 24x24 creation tensor t, with
state = sum_ij t_ij a_i^dag a_j^dag |0>.  A network with mode unitary U acts
on it as t -> A^T t A with A = U^dag; coincidence masses and post-selection
are index masks on t.  The second photon's temporal label state is
gamma|0> + sqrt(1 - gamma^2)|1>, so an input is linear in its two label
components: a scan over gamma evolves each component once and works on the
(G, 24, 24) stack of their combinations.

Logical path encoding of the geometry qubits follows the coupler layout:
qubit 1 is 0 on path 1 / 1 on path 2, qubit 2 is 0 on path 4 / 1 on path 3;
the beam displacers copy the polarization qubit (V=0, H=1) onto the path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import circuit, noise, qmath
from .qmath import DensityMatrix, OutOfRange, check_unit  # noqa: F401

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


class PhotonNumberMismatch(PhotonicError):
    pass


class EmptyPostSelection(PhotonicError):
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


class FockState:
    """Two-photon state held as its symmetric creation tensor.

    ``tensor`` is t with state = sum_ij t_ij a_i^dag a_j^dag |0>; the
    constructor symmetrizes it.  The Fock amplitude of |1_i 1_j> (i != j) is
    2 t_ij and that of |2_i> is sqrt(2) t_ii.
    """

    def __init__(self, tensor: np.ndarray):
        t = np.asarray(tensor, dtype=complex)
        if t.shape != (N_MODES, N_MODES):
            raise PhotonicError(f"creation tensor must be {N_MODES}x{N_MODES}, got {t.shape}")
        self.tensor = (t + t.T) / 2

    def norm(self) -> float:
        return float(2 * np.sum(np.abs(self.tensor) ** 2))

    @property
    def terms(self) -> dict[tuple[int, int], complex]:
        """Fock amplitudes keyed by mode pairs i <= j; entries |t_ij| <= 1e-15 are left out."""
        i, j = np.triu_indices(N_MODES)
        t = self.tensor[i, j]
        keep = np.abs(t) > 1e-15
        amps = t[keep] * np.where(i[keep] == j[keep], np.sqrt(2), 2)
        return {(int(a), int(b)): complex(z) for a, b, z in zip(i[keep], j[keep], amps)}


def product_state(photon_a: np.ndarray, photon_b: np.ndarray) -> FockState:
    """Two-photon state from two normalized single-photon amplitude vectors."""
    state = FockState(np.outer(photon_a, photon_b))
    n = state.norm()
    if n < 1e-14:
        raise PhotonicError("photon amplitude vectors cancel")
    return FockState(state.tensor / np.sqrt(n))


def single_photon(path: str, pol: str, label: int = 0) -> np.ndarray:
    v = np.zeros(N_MODES, dtype=complex)
    v[mode_index(path, pol, label)] = 1.0
    return v


@dataclass(frozen=True)
class OpticalNetwork:
    """Single-photon mode unitary of a passive linear network, made read-only to be shared."""

    mode_unitary: np.ndarray = field(repr=False)

    def __post_init__(self):
        u = self.mode_unitary
        if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > 1e-10:
            raise PhotonicError("mode matrix is not unitary")
        u.flags.writeable = False


def coupler_unitary(R: float) -> np.ndarray:
    """Two-mode coupler [[i sqrt(R), sqrt(1-R)], [sqrt(1-R), i sqrt(R)]]."""
    R = check_unit(R, "reflectivity")
    r = 1j * np.sqrt(R)
    t = np.sqrt(1.0 - R)
    return np.array([[r, t], [t, r]], dtype=complex)


@functools.cache
def build_cz_network(bs: BsParams = IDEAL_BS) -> OpticalNetwork:
    """Three parallel couplers on path pairs (out1,1), (2,3), (4,out4), built once per ``bs``.

    The polarization sector with reflectivity R sees I_3 (x) C(R) on the
    paths; no element touches the temporal label, so U = U_12 (x) I_2.
    """
    sectors = ((bs.R_H, np.diag([1.0, 0.0])), (bs.R_V, np.diag([0.0, 1.0])))
    u = sum(np.kron(np.kron(np.eye(3), coupler_unitary(r)), proj) for r, proj in sectors)
    return OpticalNetwork(np.kron(u, np.eye(len(LABELS))))


@functools.cache
def build_full_network(bs: BsParams = IDEAL_BS) -> OpticalNetwork:
    """BDs + HWPs + BS + HWPs up to the coincidence detection, built once per ``bs``.

    The displacers and wave plates permute modes, so U_hwp U_bs U_hwp U_bd is
    a gather of the coupler's (path, polarization) block U_12.
    """
    u = build_cz_network(bs).mode_unitary[::2, ::2]
    u = u[np.ix_(HALF_WAVE_PLATES, HALF_WAVE_PLATES[BEAM_DISPLACERS])]
    return OpticalNetwork(np.kron(u, np.eye(len(LABELS))))


def _check_normalized(norms: np.ndarray) -> None:
    """PhotonNumberMismatch unless every two-photon norm in ``norms`` is 1 within 1e-9."""
    bad = np.abs(norms - 1.0) > 1e-9
    if bad.any():
        raise PhotonNumberMismatch(
            f"input not a normalized two-photon state (norm {float(norms[bad][0])!r})"
        )


def evolve_two_photon(state: FockState, net: OpticalNetwork) -> FockState:
    """Push the creation tensor through the mode unitary."""
    _check_normalized(np.array([state.norm()]))
    a = net.mode_unitary.conj().T  # a_i^dag -> sum_j (U^dag)_ij b_j^dag
    return FockState(a.T @ state.tensor @ a)


def _evolve_labels(inputs: tuple[FockState, FockState], overlaps, name: str,
                   net: OpticalNetwork) -> np.ndarray:
    """The (G, N, N) evolved tensors of gamma inputs[0] + sqrt(1 - gamma^2) inputs[1], per overlap.

    ``inputs`` are the second photon's two label components, each evolved
    once.  The overlaps pass one ``check_unit``, and each combined input the norm
    check of ``evolve_two_photon`` (through the Gram matrix of the components).
    """
    g = check_unit(overlaps, name)
    c = np.stack([g, np.sqrt(np.maximum(0.0, 1.0 - g * g))], axis=1)
    t = np.stack([s.tensor for s in inputs])
    gram = 2 * np.einsum("kij,lij->kl", t.conj(), t)
    _check_normalized(np.einsum("gk,kl,gl->g", c, gram, c).real)
    out = np.stack([evolve_two_photon(s, net).tensor for s in inputs])
    return np.tensordot(c, out, axes=1)


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
    the (G, 4, 4) decoded density matrices and the (G,) pre-normalization
    coincidence masses; the normalized 16-amplitude vectors before the trace
    are checked finite, and the 4x4 states after it as density matrices.
    """
    mass = pair_mass(t, LOGICAL_PATHS_A, LOGICAL_PATHS_B)
    if np.any(mass < 1e-14):
        raise EmptyPostSelection("post-selected mass below 1e-14")
    # Axes: (grid, qubit_a, label_a, qubit_b, label_b); qubit value 0=V, 1=H.
    psi = 2 * t[:, DECODE_A[:, :, None, None], DECODE_B[None, None, :, :]]
    vec = psi.reshape(len(t), 16)
    decoded = np.sum(np.abs(vec) ** 2, axis=-1)
    if np.any(decoded < 1e-14):
        raise EmptyPostSelection("no path-polarization-consistent coincidence terms")
    vec = vec / np.sqrt(decoded)[:, None]
    if not np.all(np.isfinite(vec)):
        raise qmath.QmathError("decoded state contains NaN or Inf entries")
    full = vec[:, :, None] * vec[:, None, :].conj()
    pol = np.einsum("gakblckdl->gabcd", full.reshape(len(t), *(2,) * 8)).reshape(len(t), 4, 4)
    return qmath.check_density(pol), mass


def logical_path_input(q1: int, q2: int) -> FockState:
    """Two-photon path-encoded logical input |q1, q2>, both photons V."""
    return product_state(
        single_photon(LOGICAL_PATHS_A[q1], "V"), single_photon(LOGICAL_PATHS_B[q2], "V")
    )


def cz_channel(net: OpticalNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Post-selected path-qubit map of the logical inputs 00, 01, 10, 11, each evolved once.

    Returns the 4x4 channel matrix in the logical basis, whose diagonal is the
    truth table, and the coincidence mass of each input.
    """
    a, b = (np.array([mode_index(p, "V") for p in paths])
            for paths in (LOGICAL_PATHS_A, LOGICAL_PATHS_B))
    t = np.stack([evolve_two_photon(logical_path_input(q1, q2), net).tensor
                  for q1 in (0, 1) for q2 in (0, 1)])
    m = 2 * t[:, a[:, None], b].reshape(4, 4).T
    return m, pair_mass(t, LOGICAL_PATHS_A, LOGICAL_PATHS_B)


def cz_success_probabilities(net: OpticalNetwork) -> np.ndarray:
    """Coincidence mass per logical input branch (1/9 each for the ideal network)."""
    return cz_channel(net)[1]


def channel_fidelity_to_cz(m: np.ndarray) -> float:
    """Process fidelity of a post-selected channel matrix M to the ideal CZ gate.

    The channel is proportional to M; fidelity is |tr(CZ^dag M)|^2 /
    (4 tr(M^dag M)), which is 1 iff M is CZ up to a global complex factor.
    """
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    denom = 4 * np.trace(m.conj().T @ m).real
    return float(abs(np.trace(cz.conj().T @ m)) ** 2 / denom)


def process_fidelity_to_cz(net: OpticalNetwork) -> float:
    """Process fidelity of the post-selected channel of ``net`` to the ideal CZ gate."""
    return channel_fidelity_to_cz(cz_channel(net)[0])


def hom_coincidence(overlaps, bs: BsParams = IDEAL_BS) -> np.ndarray:
    """Coincidence probability for photons meeting on paths 2 and 3, per overlap.

    Each overlap is the temporal wavepacket overlap amplitude gamma; the
    second photon enters with label state gamma|0> + sqrt(1-gamma^2)|1>.
    Two evolutions whatever the number of overlaps.
    """
    photon_a = single_photon("2", "V", 0)
    inputs = tuple(product_state(photon_a, single_photon("3", "V", l)) for l in LABELS)
    t = _evolve_labels(inputs, overlaps, "overlap", build_cz_network(bs))
    return pair_mass(t, ("2",), ("3",))


def _dip_visibility(probs: np.ndarray) -> float:
    """(P_max - P_min)/P_max from the dip's last two entries, at overlaps 0 and 1."""
    return float((probs[-2] - probs[-1]) / probs[-2])


def hom_visibility(bs: BsParams = IDEAL_BS) -> float:
    """(P_max - P_min)/P_max between distinguishable and indistinguishable photons."""
    return _dip_visibility(hom_coincidence([0.0, 1.0], bs))


def prepared_input(gamma: float = 1.0) -> FockState:
    """Both photons in (|H> + |V>)/sqrt(2) on the interferometer inputs."""
    gamma = check_unit(gamma, "gamma")
    d = np.sqrt(max(0.0, 1.0 - gamma * gamma))
    photon_a = (single_photon("out1", "H", 0) + single_photon("out1", "V", 0)) / np.sqrt(2)
    photon_b = (
        gamma * (single_photon("out4", "H", 0) + single_photon("out4", "V", 0))
        + d * (single_photon("out4", "H", 1) + single_photon("out4", "V", 1))
    ) / np.sqrt(2)
    return product_state(photon_a, photon_b)


def simulate_pipeline_grid(gammas, bs: BsParams = IDEAL_BS) -> tuple[np.ndarray, np.ndarray]:
    """Run the full optical pipeline for each overlap gamma and post-select on coincidences.

    Returns the (G, 4, 4) polarization states and the (G,) success
    probabilities, from two evolutions whatever the number of overlaps.
    """
    inputs = (prepared_input(1.0), prepared_input(0.0))
    return post_select_coincidence(_evolve_labels(inputs, gammas, "gamma", build_full_network(bs)))


def simulate_pipeline(
    bs: BsParams = IDEAL_BS, gamma: float = 1.0
) -> tuple[DensityMatrix, float]:
    """The two-qubit polarization state and success probability at one overlap gamma."""
    rho, mass = simulate_pipeline_grid([gamma], bs)
    return DensityMatrix((2, 2), rho[0]), float(mass[0])


def fit_visibility_weights(rho_canonical: np.ndarray) -> np.ndarray:
    """(G,) least-squares weights v of the singlet in v|S><S| + (1-v) rho_dist, one per
    state of a stack."""
    diff = noise.SINGLET - noise.RHO_DIST
    # tr(A^dag B) = sum_ij conj(A_ij) B_ij
    return (np.einsum("gij,ij->g", (rho_canonical - noise.RHO_DIST).conj(), diff).real
            / np.sum(np.abs(diff) ** 2))


def fit_visibility_weight(rho_canonical: DensityMatrix) -> tuple[float, float]:
    """(v, trace_distance) for one state: its ``fit_visibility_weights`` and the trace
    distance between it and the best member of the family."""
    v = float(fit_visibility_weights(rho_canonical.matrix[None])[0])
    delta = rho_canonical.matrix - (v * noise.SINGLET + (1 - v) * noise.RHO_DIST)
    return v, 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh((delta + delta.conj().T) / 2))))


def hom_scan(overlaps, bs: BsParams = IDEAL_BS) -> tuple[np.ndarray, np.ndarray, float]:
    """HOM dip P and singlet weight v of the post-selected state, per overlap, as (G,)
    arrays, and the ``hom_visibility`` of ``bs``.

    Four evolutions whatever the number of overlaps: the dip's two label
    components through the couplers, combined for the overlaps and the
    visibility's endpoints 0 and 1, and the pipeline's two through the full
    network.  v is fitted in the frame of ``circuit.singlet_frame``.
    """
    probs = hom_coincidence([*overlaps, 0.0, 1.0], bs)
    rho, _ = simulate_pipeline_grid(overlaps, bs)
    return probs[:-2], fit_visibility_weights(circuit.singlet_frame(rho)), _dip_visibility(probs)
