import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim import tomography
from zenosim.errors import ConvergenceError, NumericsError
from zenosim.hilbert import UP, SystemDims, named_state
from zenosim.tomography import (
    CountHistogram,
    DetectionModel,
    FitInputs,
    analysis_design,
    binomial_weights,
    bootstrap,
    choose_bins,
    design_weights,
    fit_ml,
    read_histogram,
    rebin,
    reference_bright_probability,
    reference_shot_counts,
    reference_weights,
    rotation_2x2,
    simulate_histogram,
    split_reference_shots,
    systematic_sweep,
    two_ion_detection,
    write_histogram,
)

MODEL = two_ion_detection()


def spin_vector(n_ions, name):
    return named_state(SystemDims(n_ions, 1), name, 0).amplitudes


def make_synthetic(rho, design, model=MODEL, shots_data=30000, shots_analysis=1500, seed=77):
    w = design_weights(design, rho)
    children = np.random.SeedSequence(seed).spawn(len(design.analysis_rotations))
    return [
        simulate_histogram(
            w[i], model, shots_data if i == 0 else shots_analysis, np.random.default_rng(children[i]), f"data_{i}"
        )
        for i in range(len(design.analysis_rotations))
    ]


@pytest.fixture(scope="module")
def two_ion_setup():
    raw = reference_shot_counts(MODEL, 6000, 2, seed=11)
    held, refs = split_reference_shots(raw)
    boundaries = choose_bins(held, 5, n_ions=2)
    design = analysis_design(2)
    return refs, held, boundaries, design


def test_histogram_mean_scales_with_bright_ions():
    hist = simulate_histogram([0, 0, 1], DetectionModel(39.0, 3.0, pump_prob=0.0), 4000, seed=1)
    samples = np.concatenate([[c] * k for c, k in hist.counts_by_photon_number.items()])
    assert abs(samples.mean() - 78.0) < 3 * np.sqrt(78.0 / 4000) * 3
    dark = simulate_histogram([1, 0, 0], DetectionModel(39.0, 3.0, pump_prob=0.0), 4000, seed=2)
    samples = np.concatenate([[c] * k for c, k in dark.counts_by_photon_number.items()])
    assert abs(samples.mean() - 6.0) < 0.5


def test_histogram_determinism():
    a = simulate_histogram([0.3, 0.4, 0.3], MODEL, 3000, seed=42)
    b = simulate_histogram([0.3, 0.4, 0.3], MODEL, 3000, seed=42)
    assert a.counts_by_photon_number == b.counts_by_photon_number


def test_reference_sequence_compositions():
    # oracle: compose the 2x2 rotations directly
    assert abs(reference_bright_probability(0.0) - 1.0) < 1e-12  # net 2 pi rotation
    assert reference_bright_probability(np.pi) < 1e-12  # net pi rotation
    assert abs(reference_bright_probability(np.pi / 2) - 0.5) < 1e-12
    w = reference_weights(2)
    assert np.allclose(w[2], [0.25, 0.5, 0.25], atol=1e-12)  # phase pi/2 row
    assert np.allclose(w[0], [0.0, 0.0, 1.0], atol=1e-12)


def test_reference_protocol_labels_and_split():
    raw = reference_shot_counts(MODEL, 600, 2, seed=4)
    assert len(raw) == 8
    assert all(len(c) == 600 for c in raw)
    held, main = split_reference_shots(raw)
    assert all(h.shots == 60 for h in held)
    assert all(h.shots == 540 for h in main)
    assert [h.label for h in main] == [f"ref_{i}" for i in range(8)]
    assert [h.label for h in held] == [f"ref_{i}_held" for i in range(8)]


def test_choose_bins_topology(two_ion_setup):
    refs, held, boundaries, design = two_ion_setup
    assert len(boundaries) == 4
    three = choose_bins(held, 3, n_ions=2)
    # one cut between dark (~6) and one-bright (~42), one between one- and
    # two-bright (~78)
    assert 8 < three[0] < 35
    assert 45 < three[1] < 72
    # identity binning keeps every count separate
    tiny = [CountHistogram({0: 50, 1: 60, 2: 40}, 150, "t") for _ in range(8)]
    full = choose_bins(tiny, 3, n_ions=2)
    assert full == (1, 2)


def brute_force_bins(held_out, n_bins, n_ions):
    """The greedy search choose_bins makes, scoring each trial cut alone:
    reduceat sums of the class conditionals into bins, then the expected
    log-likelihood ratio against the mixture, class by class."""
    weights = reference_weights(n_ions)
    n_max = max(h.max_count for h in held_out) + 1
    counts = np.stack([h.to_array(n_max) for h in held_out])
    f = tomography._estimate_class_conditionals(counts / counts.sum(axis=1, keepdims=True), weights)
    priors = weights.mean(axis=0)

    def information(starts):
        fb = np.add.reduceat(f, starts, axis=1)
        mix = priors @ fb
        info = 0.0
        for n in range(len(f)):
            mask = fb[n] > 0
            info += priors[n] * np.sum(fb[n, mask] * np.log(fb[n, mask] / np.clip(mix[mask], 1e-300, None)))
        return info

    boundaries = []
    for _ in range(n_bins - 1):
        best, pick = -np.inf, None
        for cut in range(1, n_max):
            if cut not in boundaries:
                info = information(np.array([0, *sorted(boundaries + [cut])]))
                if info > best + 1e-15:
                    best, pick = info, cut
        if pick is None:
            break
        boundaries.append(pick)
    return tuple(sorted(boundaries))


# each histogram holds at least 100 shots, so every class has the 100
# effective shots choose_bins asks for
_HELD_OUT = st.lists(
    st.dictionaries(st.integers(0, 80), st.integers(10, 300), min_size=10, max_size=40), min_size=8, max_size=8
)


@settings(max_examples=60, deadline=None)
@given(histograms=_HELD_OUT, n_ions=st.sampled_from([2, 3]), n_bins=st.integers(2, 7))
def test_choose_bins_matches_the_brute_force_search(histograms, n_ions, n_bins):
    held = [CountHistogram(h, sum(h.values()), f"ref_{i}_held") for i, h in enumerate(histograms)]
    assert choose_bins(held, n_bins, n_ions=n_ions) == brute_force_bins(held, n_bins, n_ions)


@pytest.fixture(scope="module")
def bright_three_ion_held():
    """Held-out references of three ions at bright_mean 1,000 (the CLI's
    cap) and dark_mean 3: counts up to 3,186."""
    held, _ = split_reference_shots(reference_shot_counts(DetectionModel(1000.0, 3.0), 4000, 3, seed=0))
    return held


def test_choose_bins_at_large_counts_is_pinned(bright_three_ion_held):
    assert choose_bins(bright_three_ion_held, 7, n_ions=3) == (21, 965, 1063, 1578, 2042, 2124)


def test_choose_bins_at_the_bin_cap_is_pinned(bright_three_ion_held):
    """50 bins, the CLI's cap, over 3,186 count values: each greedy step
    scores every cut at once, about 0.7 s on a 2-core machine where the
    search that scored each cut alone took 18 s."""
    assert choose_bins(bright_three_ion_held, 50, n_ions=3) == (
        21, 962, 963, 964, 965, 1016, 1018, 1031, 1032, 1049, 1063, 1078, 1578, 1929, 1969, 1972, 1996,
        1997, 2011, 2013, 2014, 2021, 2025, 2042, 2044, 2047, 2048, 2053, 2055, 2058, 2061, 2088, 2124,
        2889, 2899, 2900, 2927, 2948, 2959, 2961, 2974, 2975, 2985, 3004, 3017, 3022, 3060, 3062, 3097,
    )  # fmt: skip


def test_choose_bins_insufficient_data():
    raw = reference_shot_counts(MODEL, 100, 2, seed=5)
    held, _ = split_reference_shots(raw)
    with pytest.raises(NumericsError):
        choose_bins(held, 5, n_ions=2)


def test_rebin_contract():
    hist = CountHistogram({0: 5, 10: 5, 20: 10}, 20, "x")
    binned = rebin(hist, (10, 15))
    assert binned.tolist() == [5, 5, 10]
    with pytest.raises(ValueError):
        rebin(hist, (15, 10))


@settings(max_examples=200, deadline=None)
@given(
    counts=st.dictionaries(st.integers(0, 200), st.integers(1, 1000), max_size=40),
    cuts=st.sets(st.integers(1, 250), max_size=8),
)
def test_rebin_conserves_counts(counts, cuts):
    hist = CountHistogram(counts, sum(counts.values()), "h")
    boundaries = tuple(sorted(cuts))
    binned = rebin(hist, boundaries)
    assert binned.sum() == hist.shots
    # reference: bin every single shot with searchsorted
    shots = np.repeat(np.array(list(counts), dtype=int), list(counts.values()))
    reference = np.bincount(np.searchsorted(boundaries, shots, side="right"), minlength=len(boundaries) + 1)
    assert np.array_equal(binned, reference)


def test_design_residuals_and_invariance():
    d2 = analysis_design(2)
    assert d2.residual < 1e-10 and d2.target_name == "T"
    d3 = analysis_design(3)
    assert d3.residual < 1e-10 and d3.target_name == "W"
    # the singlet is invariant under every analysis rotation
    s = spin_vector(2, "S")
    w = design_weights(d2, np.outer(s, s.conj()))
    assert np.max(np.ptp(w[1:], axis=0)) < 1e-12
    # the twisted three-ion states keep 2/3 of their weight at two bright
    for name in ("Wc", "Wac"):
        v = spin_vector(3, name)
        w3 = design_weights(d3, np.outer(v, v.conj()))
        assert np.allclose(w3[1:, 2], 2.0 / 3.0, atol=1e-12)
    with pytest.raises(ValueError):
        analysis_design(4)


def test_fidelity_functional_exactness():
    rng = np.random.default_rng(8)
    design = analysis_design(2)
    t = spin_vector(2, "T")
    for _ in range(100):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        w = design_weights(design, rho)
        combo = float(np.sum(design.fidelity_coefficients * w))
        direct = float(np.real(t @ rho @ t.conj()))
        assert abs(combo - direct) < 1e-9


def random_density(rng, s):
    g = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def leak_level_weights(rho, rotations, n_ions):
    """Bright-class weights of a 3^n-wide spin state, one rotation at a time:
    each ion's 3 x 3 rotation turns its qubit levels only, and the rotated
    diagonal is summed by the number of ions up, so a leaked ion is dark."""
    ups = [config.count(UP) for config in SystemDims(n_ions, 1, True).spin_configurations()]
    u1 = np.eye(3, dtype=complex)
    rows = []
    for theta, phi in rotations:
        u1[:2, :2] = rotation_2x2(theta, phi)
        u = functools.reduce(np.kron, [u1] * n_ions)
        diag = np.real(np.diag(u @ rho @ u.conj().T))
        rows.append(np.bincount(ups, weights=diag, minlength=n_ions + 1))
    return np.clip(rows, 0.0, None)


@pytest.mark.parametrize("n_ions", [2, 3])
def test_leak_level_weights(n_ions):
    design = analysis_design(n_ions)
    rng = np.random.default_rng(20 + n_ions)
    for _ in range(5):
        rho = random_density(rng, 3**n_ions)
        expected = leak_level_weights(rho, design.analysis_rotations, n_ions)
        np.testing.assert_allclose(design_weights(design, rho), expected, rtol=0, atol=1e-14)
    # a qubit state embedded in the leak-level space reads as the qubit state
    qubits, leak = SystemDims(n_ions, 1), SystemDims(n_ions, 1, True)
    embed = [leak.spin_index(config) for config in qubits.spin_configurations()]
    rho = random_density(rng, 2**n_ions)
    wide = np.zeros((3**n_ions, 3**n_ions), dtype=complex)
    wide[np.ix_(embed, embed)] = rho
    np.testing.assert_allclose(design_weights(design, wide), design_weights(design, rho), rtol=0, atol=1e-14)


def test_round_trip_triplet(two_ion_setup):
    refs, _, boundaries, design = two_ion_setup
    t = spin_vector(2, "T")
    data = make_synthetic(np.outer(t, t.conj()), design)
    est = fit_ml(FitInputs(tuple(refs), tuple(data), design, boundaries))
    assert est.converged
    assert abs(est.fidelity - 1.0) < 0.005
    assert np.all(np.diff(est.log_likelihoods) >= -1e-7)
    # the estimate stays physical
    eigs = np.linalg.eigvalsh(est.rho_ml)
    assert eigs.min() > -1e-9
    assert abs(np.trace(est.rho_ml).real - 1.0) < 1e-9
    assert np.linalg.norm(est.rho_ml - est.rho_ml.conj().T) < 1e-12


def test_round_trip_maximally_mixed(two_ion_setup):
    refs, _, boundaries, design = two_ion_setup
    data = make_synthetic(np.eye(4) / 4.0, design, seed=78)
    est = fit_ml(FitInputs(tuple(refs), tuple(data), design, boundaries))
    assert abs(est.fidelity - 0.25) < 0.01
    assert abs(est.populations[1] - 0.5) < 0.02


def test_binning_sufficiency(two_ion_setup):
    """Five bins lose almost nothing against full count resolution."""
    refs, held, boundaries, design = two_ion_setup
    t = spin_vector(2, "T")
    rho = 0.95 * np.outer(t, t.conj()) + 0.05 * np.eye(4) / 4
    data = make_synthetic(rho, design, seed=99)
    est5 = fit_ml(FitInputs(tuple(refs), tuple(data), design, boundaries))
    max_count = max(h.max_count for h in list(refs) + list(data))
    est_full = fit_ml(FitInputs(tuple(refs), tuple(data), design, tuple(range(1, max_count + 1))))
    assert abs(est5.fidelity - est_full.fidelity) < 0.003


def test_fit_input_validation(two_ion_setup):
    refs, _, boundaries, design = two_ion_setup
    t = spin_vector(2, "T")
    data = make_synthetic(np.outer(t, t.conj()), design)
    with pytest.raises(ValueError, match="reference histogram count"):
        FitInputs(tuple(refs[:5]), tuple(data), design, boundaries)
    with pytest.raises(ValueError, match="expected 21 data histograms, got 3"):
        FitInputs(tuple(refs), tuple(data[:3]), design, boundaries)
    empty = CountHistogram({}, 0, "empty")
    with pytest.raises(ValueError, match="empty histogram"):
        FitInputs(tuple(refs), (empty,) * len(data), design, boundaries)


def test_bootstrap_interval_and_determinism(two_ion_setup):
    refs, _, boundaries, design = two_ion_setup
    t = spin_vector(2, "T")
    data = make_synthetic(np.outer(t, t.conj()), design)
    inputs = FitInputs(tuple(refs), tuple(data), design, boundaries)
    est = fit_ml(inputs)
    assert bootstrap(inputs, est, resamples=0) is est
    b1 = bootstrap(inputs, est, resamples=40, seed=9)
    b2 = bootstrap(inputs, est, resamples=40, seed=9)
    assert b1.epsilon_boot == b2.epsilon_boot
    assert b1.lr_percentile == b2.lr_percentile
    assert 1e-4 < b1.epsilon_boot < 1e-2
    assert b1.ci_lower <= est.fidelity <= b1.ci_upper


def test_bootstrap_coverage(two_ion_setup):
    """Over repeated synthetic datasets with known fidelity, the 68%
    interval contains the truth at least half the time."""
    refs, _, boundaries, design = two_ion_setup
    t = spin_vector(2, "T")
    rho = 0.9 * np.outer(t, t.conj()) + 0.1 * np.eye(4) / 4
    f_true = float(np.real(t @ rho @ t.conj()))
    hits = 0
    for trial in range(20):
        data = make_synthetic(rho, design, shots_data=8000, shots_analysis=500, seed=1000 + trial)
        inputs = FitInputs(tuple(refs), tuple(data), design, boundaries)
        est = fit_ml(inputs)
        est = bootstrap(inputs, est, resamples=60, seed=2000 + trial)
        if est.ci_lower <= f_true <= est.ci_upper:
            hits += 1
    assert hits >= 10


def _histograms_from_bins(rows, boundaries, label):
    """Histograms that put each bin's counts on its left edge."""
    edges = (0,) + tuple(boundaries)
    return [
        CountHistogram({edges[b]: int(k) for b, k in enumerate(row) if k > 0}, int(row.sum()), f"{label}_{i}")
        for i, row in enumerate(rows)
    ]


def test_stacked_fits_match_single_fits(two_ion_setup):
    """Bootstrap-like resamples fitted as one stack get the fits they get one at a time."""
    refs, _, boundaries, design = two_ion_setup
    t = spin_vector(2, "T")
    rho_true = 0.9 * np.outer(t, t.conj()) + 0.1 * np.eye(4) / 4
    data = make_synthetic(rho_true, design, shots_data=8000, shots_analysis=500, seed=31)
    inputs = FitInputs(tuple(refs), tuple(data), design, boundaries)
    est = fit_ml(inputs)
    observed = inputs.counts
    shots = observed.sum(axis=1).astype(int)
    rng = np.random.default_rng(4)
    counts = np.stack([rng.multinomial(shots, observed / shots[:, None]) for _ in range(10)]).astype(float)
    w_ref = reference_weights(2)
    warm = 0.9 * est.rho_ml + 0.1 * np.eye(4) / 4
    rho, iterations, converged, _ = tomography._fit_stack(
        counts, np.broadcast_to(w_ref, (len(counts),) + w_ref.shape), design, warm
    )
    assert converged.all()
    assert len(set(iterations.tolist())) > 1  # fits leave the stack at different iterations
    n_ref = len(refs)
    for k, c in enumerate(counts):
        alone = FitInputs(
            tuple(_histograms_from_bins(c[:n_ref], boundaries, "ref")),
            tuple(_histograms_from_bins(c[n_ref:], boundaries, "data")),
            design,
            boundaries,
        )
        assert np.array_equal(alone.counts, c)
        rho_alone, iterations_alone, _, _ = tomography._fit_stack(alone.counts[None], w_ref[None], design, warm)
        assert iterations_alone[0] == iterations[k]
        assert abs(np.real(t @ rho_alone[0] @ t.conj()) - np.real(t @ rho[k] @ t.conj())) < 1e-12


def test_stacked_fits_match_single_fits_through_diluted_steps(monkeypatch):
    """Sparse counts against uninformative references (epsilon = 0.5) make
    some plain R rho R steps lower the likelihood; the stack must still give
    every fit its one-at-a-time result."""
    design = analysis_design(2)
    rng = np.random.default_rng(15)
    counts = rng.poisson(rng.random(size=(8, 29, 5)) ** 4).astype(float)
    counts[..., 2] += 1
    w_ref = np.broadcast_to(reference_weights(2, 0.5), (8, 8, 3))
    calls = []
    log_likelihood = tomography._log_likelihood
    monkeypatch.setattr(tomography, "_log_likelihood", lambda *a: calls.append(1) or log_likelihood(*a))
    rho, iterations, converged, _ = tomography._fit_stack(counts, w_ref, design)
    # one call before the loop and two per iteration, plus one per diluted round
    assert len(calls) > 1 + 2 * iterations.max()
    assert converged.all()
    t = design.target
    for k in range(len(counts)):
        rho_k, iterations_k, _, _ = tomography._fit_stack(counts[k : k + 1], w_ref[:1], design)
        assert iterations_k[0] == iterations[k]
        assert abs(np.real(t @ rho_k[0] @ t.conj()) - np.real(t @ rho[k] @ t.conj())) < 1e-12


def test_stacked_em_matches_single_problems():
    """Problems that converge at different sweeps leave the EM stack with
    the q they reach alone, bit for bit, and a problem that does not
    converge runs every sweep."""
    rng = np.random.default_rng(3)
    c = rng.poisson(50 * rng.random(size=(29, 5))).astype(float) + 1
    w = np.concatenate([np.broadcast_to(reference_weights(2), (6, 8, 3)), rng.dirichlet(np.ones(3), (6, 21))], axis=1)
    q0 = tomography._initial_q(6, 3, 5)
    stacked = tomography._em_to_convergence(c, w, q0, 1e-9, 100)
    unbounded = tomography._em_to_convergence(c, w, q0, 0.0, 100)
    for k in range(6):
        alone = tomography._em_to_convergence(c, w[k : k + 1], q0[k : k + 1], 1e-9, 100)[0]
        assert np.array_equal(stacked[k], alone)
        assert np.array_equal(unbounded[k], tomography._em_to_convergence(c, w[k : k + 1], q0[k : k + 1], 0.0, 100)[0])
    assert 0 < sum(not np.array_equal(s, u) for s, u in zip(stacked, unbounded)) < 6


def test_class_probabilities_skip_the_subnormals():
    """A class probability that the data drive to 0 decays geometrically
    and, within 5,000 sweeps, goes from a normal float straight to 0: no
    entry _q_update returns lies in (0, tiny)."""
    c = np.array([[10.0, 0.0], [5.0, 5.0]])
    w = np.array([[[1.0, 0.0], [0.5, 0.5]]])
    q = np.full((1, 2, 2), 0.5)
    for _ in range(5000):
        q = tomography._q_update(c, w, q)
        assert not np.any((q > 0) & (q < np.finfo(float).tiny))
    assert q[0, 0, 1] == 0.0


def test_unconverged_fits_raise(two_ion_setup, monkeypatch):
    refs, _, boundaries, design = two_ion_setup
    t = spin_vector(2, "T")
    data = make_synthetic(np.outer(t, t.conj()), design)
    inputs = FitInputs(tuple(refs), tuple(data), design, boundaries)
    est = fit_ml(inputs)
    monkeypatch.setattr(tomography, "_MAX_OUTER", 3)
    assert not fit_ml(inputs).converged
    with pytest.raises(ConvergenceError):
        systematic_sweep(inputs, n_points=3)
    with pytest.raises(ConvergenceError):
        bootstrap(inputs, est, resamples=4, seed=1)


def test_fit_input_is_binned_once(two_ion_setup, monkeypatch):
    """fit_ml, systematic_sweep and bootstrap all read the counts binned
    when the FitInputs was made: one rebin per histogram."""
    refs, _, boundaries, design = two_ion_setup
    t = spin_vector(2, "T")
    data = make_synthetic(np.outer(t, t.conj()), design)
    calls = []
    monkeypatch.setattr(tomography, "rebin", lambda *a: calls.append(1) or rebin(*a))
    inputs = FitInputs(tuple(refs), tuple(data), design, boundaries)
    est = fit_ml(inputs)
    systematic_sweep(inputs, n_points=2)
    bootstrap(inputs, est, resamples=2, seed=3)
    assert len(calls) == len(refs) + len(data) == 29
    assert not inputs.counts.flags.writeable


def test_systematic_sweep(two_ion_setup):
    refs, _, boundaries, design = two_ion_setup
    t = spin_vector(2, "T")
    data = make_synthetic(np.outer(t, t.conj()), design)
    inputs = FitInputs(tuple(refs), tuple(data), design, boundaries)
    baseline = fit_ml(inputs)
    sweep = systematic_sweep(inputs, n_points=5)
    # the epsilon = 0 point is fit_ml's problem, fitted in the sweep's
    # stack, and its estimate is fit_ml's, bit for bit
    assert np.array_equal(sweep.estimate.rho_ml, baseline.rho_ml)
    assert np.array_equal(sweep.estimate.log_likelihoods, baseline.log_likelihoods)
    assert sweep.estimate.n_iterations == baseline.n_iterations
    assert sweep.infidelities[0] == 1.0 - baseline.fidelity
    assert sweep.estimate.epsilon_syst == sweep.epsilon_syst
    # an O(1) slope puts the systematic term at the few-1e-3 scale
    assert 0.3 < abs(sweep.slope) < 5.0
    assert 3e-4 < sweep.epsilon_syst < 5e-3
    assert sweep.linear


def test_histogram_file_round_trip(tmp_path):
    hist = simulate_histogram([0.2, 0.5, 0.3], MODEL, 2000, seed=3, label="demo phase=0.3")
    path = tmp_path / "hist.txt"
    write_histogram(path, hist)
    back = read_histogram(path)
    assert back.counts_by_photon_number == hist.counts_by_photon_number
    assert back.shots == hist.shots
    assert back.label == hist.label
    text = path.read_text().splitlines()
    assert text[0] == "# shots=2000"
    assert text[1] == "# label=demo phase=0.3"


@pytest.mark.parametrize("counts", [{-1: 5, 3: 2}, {4: -2, 5: 9}])
def test_histogram_rejects_negative_entries(counts):
    with pytest.raises(ValueError, match="negative"):
        CountHistogram(counts, 7)


def test_histogram_file_with_negative_occurrences_is_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# shots=3\n# label=bad\n4 -2\n7 5\n")
    with pytest.raises(ValueError, match="negative"):
        read_histogram(path)


def test_binomial_weights_sum():
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = rng.uniform(0, 1)
        for n in (2, 3):
            w = binomial_weights(p, n)
            assert abs(w.sum() - 1.0) < 1e-12
