"""Fluorescence readout simulation and maximum-likelihood partial tomography.

The detection chain mirrors a shelving readout: ions in the up state scatter
a bright Poissonian of photons, down ions a dark one, and a small depump
probability mixes in counts from a random switching time, which is what
bends the histograms away from plain Poissonians.  The analysis never
assumes that shape; it estimates binned count distributions for "exactly n
ions bright" nonparametrically from reference experiments.

The fit alternates two monotone steps on one joint likelihood:

  * an EM-style multiplicative update of the per-class binned count
    probabilities q[n, b] with the state fixed, and
  * an R rho R update of the spin density matrix with q fixed, diluted
    (R -> (R + I) / 2) whenever the plain step would not increase the
    likelihood.

The measurement design is partial: it determines every quantity reported
here (populations by bright count and the overlap with the target state)
but not the whole density matrix.  A linear-combination certificate is
solved at construction time to prove the target projector lies in the span
of the measured operators.

Uncertainty comes from a parametric bootstrap (refitting data regenerated
from the fitted model) and a systematic term from refitting under imperfect
reference-state initialization.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConvergenceError, NumericsError
from .hilbert import UP, SystemDims, named_state

REFERENCE_PHASES = tuple(np.pi * n / 4.0 for n in range(8))
ANALYSIS_PHASES = tuple(np.pi * n / 10.0 for n in range(20))

#: a fit stops once an iteration gains less than _STOP of its log-likelihood,
#: and is flagged unconverged after _MAX_OUTER iterations
_STOP = 1e-10
_MAX_OUTER = 5000
#: the most EM sweeps of _estimate_class_conditionals
_CLASS_EM_SWEEPS = 400


@dataclass(frozen=True)
class DetectionModel:
    bright_mean: float
    dark_mean: float
    pump_prob: float = 0.02

    def __post_init__(self):
        if not self.bright_mean > self.dark_mean >= 0:
            raise ValueError("need bright_mean > dark_mean >= 0")
        if not 0 <= self.pump_prob < 1:
            raise ValueError("pump_prob must be in [0, 1)")


def two_ion_detection() -> DetectionModel:
    return DetectionModel(bright_mean=39.0, dark_mean=3.0)


def three_ion_detection() -> DetectionModel:
    return DetectionModel(bright_mean=37.0, dark_mean=3.0)


@dataclass(frozen=True)
class CountHistogram:
    counts_by_photon_number: dict[int, int]
    shots: int
    label: str = ""

    def __post_init__(self):
        for c, k in self.counts_by_photon_number.items():
            if c < 0 or k < 0:
                raise ValueError(f"photon number {c} with {k} occurrences: neither may be negative")
        total = sum(self.counts_by_photon_number.values())
        if total != self.shots:
            raise ValueError(f"histogram holds {total} counts but claims {self.shots} shots")

    @property
    def max_count(self) -> int:
        return max(self.counts_by_photon_number, default=0)

    def to_array(self, size: int) -> np.ndarray:
        arr = np.zeros(size)
        for c, k in self.counts_by_photon_number.items():
            if c >= size:
                raise ValueError(f"count {c} does not fit into array of size {size}")
            arr[c] = k
        return arr

    @classmethod
    def from_samples(cls, samples: np.ndarray, label: str = "") -> "CountHistogram":
        values, counts = np.unique(np.asarray(samples, dtype=int), return_counts=True)
        return cls({int(v): int(k) for v, k in zip(values, counts)}, int(len(samples)), label)


@dataclass(frozen=True)
class MeasurementDesign:
    """Analysis rotations and the certificate that a real combination of
    their statistics equals the target projector.  transfer stacks the
    measured operators U_i^dag A_n U_i, shape (rotations, classes, s, s),
    read-only (_transfer); the first rotation is the no-pulse measurement,
    whose operators are the bright-count projectors A_n."""

    n_ions: int
    analysis_rotations: tuple[tuple[float, float], ...]
    target: np.ndarray
    target_name: str
    fidelity_coefficients: np.ndarray
    residual: float
    transfer: np.ndarray


@dataclass(frozen=True)
class TomographyEstimate:
    rho_ml: np.ndarray
    fidelity: float
    populations: np.ndarray
    target_name: str
    converged: bool
    n_iterations: int
    log_likelihoods: np.ndarray
    ci_lower: float | None = None
    ci_upper: float | None = None
    epsilon_boot: float | None = None
    epsilon_syst: float = 0.0
    lr_percentile: float | None = None


@dataclass(frozen=True)
class FitInputs:
    """The one input of fit_ml, systematic_sweep and bootstrap.

    references follow the eight-phase reference protocol order; data are
    ordered like design.analysis_rotations (the no-pulse measurement
    first); boundaries are the frozen bin cuts.  Construction checks the
    histogram counts and rebins every histogram once into counts, a
    read-only (refs + rotations, bins) array with the references first.
    """

    references: tuple[CountHistogram, ...]
    data: tuple[CountHistogram, ...]
    design: MeasurementDesign
    boundaries: tuple[int, ...]
    counts: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        histograms = [*self.references, *self.data]
        if len(self.references) != len(REFERENCE_PHASES):
            raise ValueError("reference histogram count does not match the weight table")
        if len(self.data) != len(self.design.analysis_rotations):
            raise ValueError(f"expected {len(self.design.analysis_rotations)} data histograms, got {len(self.data)}")
        if any(h.shots == 0 for h in histograms):
            raise ValueError("empty histogram supplied")
        counts = np.stack([rebin(h, self.boundaries) for h in histograms])
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)


# ---------------------------------------------------------------------------
# single-ion rotations and reference weights


def rotation_2x2(theta: float, phi: float) -> np.ndarray:
    """Rotation by theta about the equatorial axis at azimuth phi."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    axis = np.cos(phi) * sx + np.sin(phi) * sy
    return np.cos(theta / 2.0) * np.eye(2) - 1j * np.sin(theta / 2.0) * axis


def reference_bright_probability(phi: float) -> float:
    """Bright survival after the 3pi/2 then pi/2(phi) reference sequence."""
    u = rotation_2x2(np.pi / 2.0, phi) @ rotation_2x2(3.0 * np.pi / 2.0, 0.0)
    return float(abs(u[0, 0]) ** 2)


def binomial_weights(p: float, n_ions: int) -> np.ndarray:
    """Probabilities of exactly n bright ions for independent identical ions."""
    return np.array([comb(n_ions, k) * p**k * (1 - p) ** (n_ions - k) for k in range(n_ions + 1)])


def reference_weights(n_ions: int, epsilon: float = 0.0) -> np.ndarray:
    """Per-phase class weights of the reference protocol.

    epsilon is an incoherent per-ion preparation error: with probability
    epsilon an ion starts in the wrong state, flipping its bright
    probability from p to 1 - p.
    """
    rows = []
    for phi in REFERENCE_PHASES:
        p = reference_bright_probability(phi)
        p_eff = (1.0 - epsilon) * p + epsilon * (1.0 - p)
        rows.append(binomial_weights(p_eff, n_ions))
    return np.array(rows)


# ---------------------------------------------------------------------------
# synthetic detection


def simulate_photon_counts(
    bright_probabilities, model: DetectionModel, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-shot total photon counts for a state with the given bright-ion
    distribution.

    Each shot draws the number of bright ions; every bright ion emits
    Poisson(bright_mean) photons unless it depumps (probability pump_prob),
    in which case the mean interpolates to dark_mean at a uniform random
    switching time.  Dark ions emit Poisson(dark_mean).
    """
    probs = np.asarray(bright_probabilities, dtype=float)
    if abs(probs.sum() - 1.0) > 1e-9 or np.any(probs < -1e-12):
        raise ValueError("bright probabilities must be a distribution")
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    n_ions = len(probs) - 1
    k_bright = rng.choice(n_ions + 1, size=shots, p=probs)
    total = np.zeros(shots, dtype=int)
    for slot in range(n_ions):
        active = slot < k_bright
        depumped = rng.random(shots) < model.pump_prob
        u = rng.random(shots)
        means = np.where(depumped, u * model.bright_mean + (1.0 - u) * model.dark_mean, model.bright_mean)
        photons = rng.poisson(means)
        total += np.where(active, photons, 0)
    dark_ions = n_ions - k_bright
    total += rng.poisson(model.dark_mean * dark_ions)
    return total


def simulate_histogram(
    bright_probabilities, model: DetectionModel, shots: int, seed: int | np.random.Generator, label: str = ""
) -> CountHistogram:
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return CountHistogram.from_samples(
        simulate_photon_counts(bright_probabilities, model, shots, rng), label
    )


def reference_shot_counts(
    model: DetectionModel, shots_per_phase: int, n_ions: int, seed: int
) -> list[np.ndarray]:
    """Raw per-shot counts for each of the eight reference phases."""
    children = np.random.SeedSequence(seed).spawn(len(REFERENCE_PHASES))
    weights = reference_weights(n_ions)
    return [
        simulate_photon_counts(weights[i], model, shots_per_phase, np.random.default_rng(children[i]))
        for i in range(len(REFERENCE_PHASES))
    ]


def split_reference_shots(counts: list[np.ndarray]) -> tuple[list[CountHistogram], list[CountHistogram]]:
    """Deterministic held-out split: the first ceil(0.1 * shots) shots of
    each phase go to bin selection, the rest to the analysis."""
    held, main = [], []
    for i, c in enumerate(counts):
        k = int(np.ceil(0.1 * len(c)))
        held.append(CountHistogram.from_samples(c[:k], label=f"ref_{i}_held"))
        main.append(CountHistogram.from_samples(c[k:], label=f"ref_{i}"))
    return held, main


# ---------------------------------------------------------------------------
# binning


def rebin(hist: CountHistogram, boundaries) -> np.ndarray:
    """Shots per bin of a contiguous rebinning; boundaries are the interior
    cut points, so bin b collects counts in [boundaries[b-1], boundaries[b])."""
    bounds = tuple(int(b) for b in boundaries)
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])) or (bounds and bounds[0] < 1):
        raise ValueError("boundaries must be strictly increasing positive integers")
    values = np.fromiter(hist.counts_by_photon_number, dtype=int)
    shots = np.fromiter(hist.counts_by_photon_number.values(), dtype=float)
    return np.bincount(np.searchsorted(bounds, values, side="right"), weights=shots, minlength=len(bounds) + 1)


def _initial_q(n_fits: int, n_classes: int, n_bins: int) -> np.ndarray:
    """Flat class probabilities for each of n_fits problems, tilted so that
    classes with more bright ions sit at larger counts and EM does not start
    on the symmetric saddle."""
    q = np.full((n_classes, n_bins), 1.0 / n_bins)
    tilt = np.linspace(-0.5, 0.5, n_bins)
    for n in range(n_classes):
        q[n] *= 1.0 + tilt * (2.0 * n / max(n_classes - 1, 1) - 1.0)
        q[n] /= q[n].sum()
    return np.array(np.broadcast_to(q, (n_fits, n_classes, n_bins)))


def _q_update(c: np.ndarray, w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """One EM sweep for class-conditional bin probabilities q (..., classes,
    bins) from counts c (..., histograms, bins) mixed with known weights w
    (..., histograms, classes); leading axes index independent problems.
    Entries below the smallest normal float are set to 0: subnormal ones,
    which a vanishing class probability reaches after about 1,000 sweeps,
    slow every product they enter."""
    p = np.maximum(w @ q, 1e-300)
    q_new = q * (np.swapaxes(w, -1, -2) @ (c / p))
    q_new /= np.maximum(q_new.sum(axis=-1, keepdims=True), 1e-300)
    q_new[q_new < np.finfo(float).tiny] = 0.0
    return q_new


def _em_to_convergence(c: np.ndarray, w: np.ndarray, q: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Repeat _q_update on a stack of problems, weights w and class
    probabilities q with a leading problem axis and counts c shared by all,
    at most max_iter times.  A problem whose largest change falls below tol
    keeps that sweep's q and leaves the working stack, as in _fit_stack, so
    it takes exactly the path it would take alone."""
    q = np.array(q, dtype=float)
    out = q.copy()
    idx = np.arange(len(q))
    for _ in range(max_iter):
        q_new = _q_update(c, w, q)
        done = ~(np.abs(q_new - q).max(axis=(-2, -1)) >= tol)
        q = q_new
        if done.any():
            out[idx[done]] = q[done]
            keep = ~done
            idx, q, w = idx[keep], q[keep], w[keep]
            if not idx.size:
                break
    out[idx] = q
    return out


def _estimate_class_conditionals(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """EM estimate of per-class count distributions from mixture histograms.

    counts is (histograms, count values), weights (histograms, classes) with
    known mixing proportions.  Returns f with rows summing to one after
    _CLASS_EM_SWEEPS EM sweeps, or fewer once no entry moves by 1e-12.  On
    held-out reference histograms of a few thousand shots that tolerance is
    not met, and all 400 sweeps run (on the tomography_readout benchmark's
    references); choose_bins' boundaries depend on that count.
    """
    f = _initial_q(1, weights.shape[1], counts.shape[1])
    return _em_to_convergence(counts, weights[None], f, 1e-12, _CLASS_EM_SWEEPS)[0]


def choose_bins(held_out: list[CountHistogram], n_bins: int, n_ions: int = 2) -> tuple[int, ...]:
    """Greedy search for contiguous bin boundaries that lose as little class
    discrimination as possible.

    Class-conditional count distributions are estimated from the held-out
    reference histograms, then interior boundaries are added one at a time,
    each maximizing the retained discrimination information; ties go to the
    lower count value.  A step scores every cut at once, its bin masses read
    off prefix sums of the distributions, so it is linear in the count
    values.  The returned boundaries stay fixed for all later analysis.
    """
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    ref_weights = reference_weights(n_ions)
    if len(held_out) != ref_weights.shape[0]:
        raise ValueError("one held-out histogram per reference phase is required")
    n_max = max(h.max_count for h in held_out) + 1
    counts = np.stack([h.to_array(n_max) for h in held_out])
    class_counts = counts.sum(axis=1) @ ref_weights
    if np.min(class_counts) < 100:
        raise NumericsError(
            f"held-out data too small: effective class counts {np.round(class_counts, 1)} (need >= 100)"
        )
    f = _estimate_class_conditionals(counts / counts.sum(axis=1, keepdims=True), ref_weights)
    priors = ref_weights.mean(axis=0)
    prefix = np.concatenate((np.zeros((len(f), 1)), np.cumsum(f, axis=1)), axis=1)
    boundaries: list[int] = []
    for _ in range(n_bins - 1):
        cuts = np.setdiff1d(np.arange(1, n_max), boundaries)
        kept = np.broadcast_to([0, *boundaries, n_max], (len(cuts), len(boundaries) + 2))
        edges = np.sort(np.column_stack((kept, cuts)))  # row i: the bin edges with cut i added
        mass = np.diff(prefix[:, edges], axis=-1)  # (classes, cuts, bins)
        ratio = mass / np.clip(priors @ mass.transpose(1, 0, 2), 1e-300, None)
        infos = priors @ (mass * np.log(np.where(mass > 0, ratio, 1.0))).sum(axis=-1)
        best, pick = -np.inf, None
        for cut, info in zip(cuts.tolist(), infos.tolist()):
            if info > best + 1e-15:
                best, pick = info, cut
        if pick is None:
            break
        boundaries.append(pick)
    return tuple(sorted(boundaries))


# ---------------------------------------------------------------------------
# measurement design


@functools.lru_cache(maxsize=8)
def _transfer(spin_dims: SystemDims, rotations: tuple[tuple[float, float], ...]) -> np.ndarray:
    """The read-only stack U_i^dag A_n U_i, shape (rotations, classes, s, s),
    on a spin space with or without the leak level.

    U_i rotates each ion's qubit levels by rotations[i] and leaves the leak
    level alone; A_n projects onto the configurations with n ions up, so a
    leaked ion is dark.
    """
    n_ions, s = spin_dims.n_ions, spin_dims.spin_dim
    povm = np.zeros((n_ions + 1, s, s), dtype=complex)
    for i, config in enumerate(spin_dims.spin_configurations()):
        povm[config.count(UP), i, i] = 1.0
    u1 = np.eye(spin_dims.levels_per_ion, dtype=complex)
    stack = []
    for theta, phi in rotations:
        u1[:2, :2] = rotation_2x2(theta, phi)
        u = functools.reduce(np.kron, [u1] * n_ions)
        stack.append([u.conj().T @ a @ u for a in povm])
    transfer = np.array(stack)
    transfer.flags.writeable = False
    return transfer


def analysis_design(n_ions: int) -> MeasurementDesign:
    """Rotation set and fidelity certificate for the entangled target.

    The target is |T> for two ions and |W> for three.  Two ions use pi/2
    analysis rotations, three ions use arccos(1/3); both add the no-pulse
    measurement and twenty equally spaced phases.  The certificate solves
    sum_{i,n} alpha_{i,n} U_i^dag A_n U_i = |t><t| by least squares; its
    residual must vanish for the fidelity to be measurable, and
    construction aborts if it does not.
    """
    if n_ions not in (2, 3):
        raise ValueError("analysis designs exist for 2 or 3 ions")
    target = "T" if n_ions == 2 else "W"
    theta = np.pi / 2.0 if n_ions == 2 else float(np.arccos(1.0 / 3.0))
    rotations = ((0.0, 0.0),) + tuple((theta, phi) for phi in ANALYSIS_PHASES)
    dims = SystemDims(n_ions, 1)
    transfer = _transfer(dims, rotations)
    target_vec = named_state(dims, target, 0).amplitudes
    projector = np.outer(target_vec, target_vec.conj())
    ops = transfer.reshape(-1, len(target_vec) ** 2)
    basis = np.concatenate([ops.real, ops.imag], axis=1).T
    rhs = np.concatenate([projector.real.ravel(), projector.imag.ravel()])
    coeffs, *_ = np.linalg.lstsq(basis, rhs, rcond=None)
    residual = float(np.linalg.norm(basis @ coeffs - rhs))
    if residual > 1e-8:
        raise NumericsError(f"analysis design cannot express the target projector (residual {residual:.2e})")
    return MeasurementDesign(
        n_ions,
        rotations,
        target_vec,
        target,
        coeffs.reshape(len(rotations), transfer.shape[1]),
        residual,
        transfer,
    )


def design_weights(design: MeasurementDesign, rho: np.ndarray) -> np.ndarray:
    """tr(A_n U_i rho U_i^dag) for every rotation i and bright class n.

    rho may carry leading batch axes, giving shape (..., rotations, classes).
    A rho 3^n wide is a state of the ions with their leak level, read
    through that space's transfer (_transfer): the rotations leave the leak
    level alone and a leaked ion is dark.  One matrix product per state, so
    a state in a stack rounds as it would alone.
    """
    transfer = design.transfer
    if rho.shape[-1] != transfer.shape[-1]:
        transfer = _transfer(SystemDims(design.n_ions, 1, True), design.analysis_rotations)
    n_rot, n_cls, s, _ = transfer.shape
    rho_t = np.swapaxes(rho, -1, -2).reshape(rho.shape[:-2] + (s * s, 1))
    w = (transfer.reshape(n_rot * n_cls, s * s) @ rho_t).real
    return np.maximum(w.reshape(rho.shape[:-2] + (n_rot, n_cls)), 0.0)


# ---------------------------------------------------------------------------
# maximum-likelihood fit


def _log_likelihood(c: np.ndarray, p: np.ndarray, n_ref: int) -> np.ndarray:
    """Log-likelihood of each fit in a stack; reference and data terms are summed apart."""
    terms = c * np.log(p)
    return terms[:, :n_ref].reshape(len(c), -1).sum(-1) + terms[:, n_ref:].reshape(len(c), -1).sum(-1)


def _fit_stack(c, w_ref, design: MeasurementDesign, rho_init=None):
    """Joint maximum-likelihood fits of a stack of binned problems.

    c (B, refs + rotations, bins) holds each fit's counts, references first,
    and w_ref (B, refs, classes) its reference weights; every fit starts from
    rho_init, or from the maximally mixed state.  Each fit runs fit_ml's
    iteration, diluting or rejecting its own R rho R steps, and stops by its
    own rule (_STOP, _MAX_OUTER, read at each call); it is then frozen and
    leaves the working stack, so it takes exactly the path it would take
    alone.  Returns rho (B, s, s), iteration counts, converged flags and the
    log-likelihood after every iteration (B, _MAX_OUTER), valid up to each
    fit's iteration count.
    """
    stop, max_outer = _STOP, _MAX_OUTER
    n_fits, n_ref = w_ref.shape[:2]
    s = design.transfer.shape[-1]
    flat = design.transfer.reshape(-1, s * s)
    eye = np.eye(s)
    rho = np.array(np.broadcast_to(eye / s if rho_init is None else rho_init, (n_fits, s, s)), dtype=complex)
    q = _initial_q(n_fits, design.n_ions + 1, c.shape[-1])
    rho_out = rho.copy()
    iterations, converged = np.full(n_fits, max_outer), np.zeros(n_fits, dtype=bool)
    history = np.empty((n_fits, max_outer))

    def weights_and_p(w_ref, rho, q):
        w_all = np.concatenate([w_ref, design_weights(design, rho)], axis=1)
        return w_all, np.maximum(w_all @ q, 1e-300)

    def r_rho_r(r, rho):
        out = r @ rho @ r
        return out / np.trace(out, axis1=-2, axis2=-1).real[:, None, None]

    idx = np.arange(n_fits)
    shots = np.maximum(c[:, n_ref:].sum(axis=(1, 2)), 1.0)
    w_all, p = weights_and_p(w_ref, rho, q)
    ll = _log_likelihood(c, p, n_ref)
    for it in range(max_outer):
        # (a) class probabilities given the state
        for _ in range(3):
            q = _q_update(c, w_all, q)
        p = np.maximum(w_all @ q, 1e-300)
        ll_q = _log_likelihood(c, p, n_ref)
        # (b) R rho R step given the class probabilities
        coeff = (c[:, n_ref:] / p[:, n_ref:]) @ np.swapaxes(q, -1, -2)  # (B, rotations, classes)
        r = (coeff.reshape(len(idx), 1, -1) @ flat).reshape(-1, s, s) / shots[:, None, None]
        cand = r_rho_r(r, rho)
        w_cand, p = weights_and_p(w_ref, cand, q)
        ll_cand = _log_likelihood(c, p, n_ref)
        worse = ll_cand < ll_q
        if worse.any():
            # diluted step keeps monotonicity when the plain update overshoots
            dil = r_rho_r(0.5 * (r[worse] + eye), rho[worse])
            w_dil, p = weights_and_p(w_ref[worse], dil, q[worse])
            ll_dil = _log_likelihood(c[worse], p, n_ref)
            # and when that overshoots too, the state stays
            stay = ll_dil < ll_q[worse]
            dil[stay], w_dil[stay], ll_dil[stay] = rho[worse][stay], w_all[worse][stay], ll_q[worse][stay]
            cand[worse], w_cand[worse], ll_cand[worse] = dil, w_dil, ll_dil
        rho = 0.5 * (cand + np.swapaxes(cand.conj(), -1, -2))
        w_all = w_cand
        history[idx, it] = ll_cand
        done = (ll_cand - ll < stop * np.maximum(np.abs(ll), 1.0)) & (it > 2)
        ll = ll_cand
        if done.any():
            rho_out[idx[done]], iterations[idx[done]], converged[idx[done]] = rho[done], it + 1, True
            keep = ~done
            idx, rho, q, w_all, ll, shots, c, w_ref = (a[keep] for a in (idx, rho, q, w_all, ll, shots, c, w_ref))
            if not idx.size:
                break
    rho_out[idx] = rho
    return rho_out, iterations, converged, history


def _fidelity(design: MeasurementDesign, rho: np.ndarray) -> float:
    return float(np.real(design.target @ rho @ design.target.conj()))


def _estimate(design: MeasurementDesign, fits) -> TomographyEstimate:
    """The estimate of the first fit of a _fit_stack result; its populations
    are the no-pulse row of design_weights."""
    rho, iterations, converged, history = (a[0] for a in fits)
    return TomographyEstimate(
        rho_ml=rho,
        fidelity=_fidelity(design, rho),
        populations=design_weights(design, rho)[0],
        target_name=design.target_name,
        converged=bool(converged),
        n_iterations=int(iterations),
        log_likelihoods=history[:iterations].copy(),
    )


def fit_ml(inputs: FitInputs) -> TomographyEstimate:
    """Joint maximum-likelihood fit of count distributions and spin state.

    Starts from the maximally mixed state and alternates EM updates of the
    binned class probabilities with R rho R updates of the density matrix,
    keeping the joint likelihood non-decreasing, until an iteration gains
    less than 1e-10 of the log-likelihood.  Returns the estimate flagged
    unconverged after 5000 iterations: systematic_sweep's estimate.
    """
    w_ref = reference_weights(inputs.design.n_ions)
    return _estimate(inputs.design, _fit_stack(inputs.counts[None], w_ref[None], inputs.design))


# ---------------------------------------------------------------------------
# uncertainty


def _model_bin_probabilities(design: MeasurementDesign, c: np.ndarray, w_ref: np.ndarray, rho: np.ndarray):
    """Model bin probabilities (B, refs + rotations, bins) at every state of
    a stack rho (B, s, s), with the class probabilities refit by EM to the
    observed counts c (refs + rotations, bins) at that state."""
    n = len(rho)
    w_all = np.concatenate([np.broadcast_to(w_ref, (n,) + w_ref.shape), design_weights(design, rho)], axis=1)
    q0 = _initial_q(n, w_ref.shape[1], c.shape[1])
    return w_all @ _em_to_convergence(c, w_all, q0, 1e-13, 2000)


def _log_likelihood_ratio(c: np.ndarray, p: np.ndarray) -> float:
    """2 sum c log(c / (shots p)) against the saturated model."""
    shots = c.sum(axis=1, keepdims=True)
    expected = np.clip(shots * p, 1e-300, None)
    mask = c > 0
    return float(2.0 * np.sum(c[mask] * np.log(c[mask] / expected[mask])))


def bootstrap(
    inputs: FitInputs,
    estimate: TomographyEstimate,
    resamples: int = 500,
    seed: int = 0,
) -> TomographyEstimate:
    """Parametric bootstrap interval and model-fit percentile.

    Every histogram is regenerated from the fitted model (multinomial over
    the frozen bins), all resamples are refit as one stack, and the 0.16 /
    0.84 fidelity quantiles give the half width eps0.  The interval is
    (F - eps0 - eps_syst, F + eps0), using whatever epsilon_syst the
    estimate already carries; it is not clipped to [0, 1], so ci_upper
    passes 1 for an estimate within eps0 of it.  The log-likelihood ratio
    of the original fit is ranked inside the bootstrap distribution as a
    goodness-of-fit percentile.  The original counts are inputs.counts.
    Each resample draws from its own spawned generator, so results do not
    depend on the stacking; a resample whose fit does not converge is
    redrawn from it, and after three draws ConvergenceError is raised.
    """
    if resamples == 0:
        return estimate
    design, c = inputs.design, inputs.counts
    w_ref = reference_weights(design.n_ions)
    p = _model_bin_probabilities(design, c, w_ref, estimate.rho_ml[None])[0]
    ll_orig = _log_likelihood_ratio(c, p)
    shots = c.sum(axis=1).astype(int)
    p = np.maximum(p, 0.0) / np.maximum(p, 0.0).sum(axis=1, keepdims=True)

    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(resamples)]
    s = estimate.rho_ml.shape[0]
    warm = 0.9 * estimate.rho_ml + 0.1 * np.eye(s) / s  # full-rank warm start
    counts = np.empty((resamples,) + c.shape)
    rho = np.empty((resamples, s, s), dtype=complex)
    todo = np.arange(resamples)
    for _ in range(3):
        for k in todo:
            counts[k] = rngs[k].multinomial(shots, p)
        w_stack = np.broadcast_to(w_ref, (len(todo),) + w_ref.shape)
        rho[todo], _, converged, _ = _fit_stack(counts[todo], w_stack, design, warm)
        todo = todo[~converged]
        if not todo.size:
            break
    else:
        raise ConvergenceError(f"bootstrap resample {todo[0]} did not converge in 3 draws")

    fids = np.array([_fidelity(design, r) for r in rho])
    # each resample's state is scored with class probabilities refit to the original counts
    p_k = _model_bin_probabilities(design, c, w_ref, rho)
    llrs = np.array([_log_likelihood_ratio(counts[k], p_k[k]) for k in range(resamples)])
    lo, hi = np.quantile(fids, [0.16, 0.84])
    eps0 = float(hi - lo) / 2.0
    percentile = float(100.0 * np.mean(llrs < ll_orig))
    return dataclasses.replace(
        estimate,
        ci_lower=estimate.fidelity - eps0 - estimate.epsilon_syst,
        ci_upper=estimate.fidelity + eps0,
        epsilon_boot=eps0,
        lr_percentile=percentile,
    )


@dataclass(frozen=True)
class SystematicSweepResult:
    slope: float
    epsilon_syst: float
    epsilons: np.ndarray
    infidelities: np.ndarray
    linear: bool
    estimate: TomographyEstimate


def systematic_sweep(inputs: FitInputs, n_points: int = 5) -> SystematicSweepResult:
    """Sensitivity of the inferred fidelity to reference preparation error.

    Refits inputs.counts while assuming each reference ion starts in the
    wrong state with probability epsilon (binomial mixing of the reference
    weights), at n_points values of epsilon from 0 to 0.002; all points are
    fitted as one stack, and a point whose fit does not converge raises
    ConvergenceError.  A line through inferred infidelity versus epsilon
    gives the slope c; the systematic term is |c| * 0.001, the preparation
    error bound of the experiment.  The result is flagged non-linear when
    the points stray more than 20% of the swept response from the line.
    Its estimate is the epsilon = 0 fit, which is fit_ml's, bit for bit,
    carrying epsilon_syst.
    """
    design = inputs.design
    eps_grid = np.linspace(0.0, 0.002, n_points)
    w_ref = np.stack([reference_weights(design.n_ions, eps) for eps in eps_grid])
    c = np.broadcast_to(inputs.counts, (n_points,) + inputs.counts.shape)
    rho, _, converged, _ = fits = _fit_stack(c, w_ref, design)
    if not converged.all():
        raise ConvergenceError(f"systematic sweep fit at epsilon = {eps_grid[~converged][0]:g} did not converge")
    infids = 1.0 - np.array([_fidelity(design, r) for r in rho])
    slope, intercept = np.polyfit(eps_grid, infids, 1)
    line = slope * eps_grid + intercept
    span = max(infids.max() - infids.min(), 1e-12)
    linear = bool(np.max(np.abs(infids - line)) <= 0.2 * span)
    epsilon_syst = float(abs(slope) * 0.001)
    estimate = dataclasses.replace(_estimate(design, fits), epsilon_syst=epsilon_syst)
    return SystematicSweepResult(float(slope), epsilon_syst, eps_grid, infids, linear, estimate)


# ---------------------------------------------------------------------------
# histogram files


def write_histogram(path, hist: CountHistogram) -> None:
    """Plain-text histogram: header lines with shots and label, then one
    "<count> <occurrences>" line per photon number."""
    with open(path, "w") as fh:
        fh.write(f"# shots={hist.shots}\n")
        fh.write(f"# label={hist.label}\n")
        for count in sorted(hist.counts_by_photon_number):
            fh.write(f"{count} {hist.counts_by_photon_number[count]}\n")


def read_histogram(path) -> CountHistogram:
    shots = None
    label = ""
    counts: dict[int, int] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("shots="):
                    shots = int(body[len("shots="):])
                elif body.startswith("label="):
                    label = body[len("label="):]
                continue
            c, k = line.split()
            counts[int(c)] = int(k)
    if shots is None:
        shots = sum(counts.values())
    return CountHistogram(counts, shots, label)
