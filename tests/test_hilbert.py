import warnings

import numpy as np
import pytest

from zenosim.errors import TruncationError
from zenosim.hilbert import (
    DOWN,
    LEAK,
    UP,
    DensityOperator,
    OperatorMatrix,
    PureState,
    SystemDims,
    build_mode_op,
    build_spin_op,
    cycle_sectors,
    cycle_shift,
    leak_sectors,
    named_state,
    partial_trace_motion,
    spin_state,
    thermal_product_state,
    thermal_weights,
    up_count_projectors,
)

DIMS2 = SystemDims(2, 4)
DIMS3 = SystemDims(3, 3)


def basis_vector(dims, spins, n):
    v = np.zeros(dims.dim, dtype=complex)
    v[dims.basis_index(spins, n)] = 1.0
    return v


def test_dimension_bookkeeping():
    assert SystemDims(2, 5).dim == 4 * 5
    assert SystemDims(3, 4, leak_level=True).dim == 27 * 4
    with pytest.raises(ValueError):
        SystemDims(4, 4)
    with pytest.raises(ValueError):
        SystemDims(2, 0)


def test_lowering_ion_one_flips_first_ion():
    lower = build_spin_op(DIMS2, 0, "lower").matrix.toarray()
    psi = basis_vector(DIMS2, (UP, UP), 0)
    out = lower @ psi
    expected = basis_vector(DIMS2, (DOWN, UP), 0)
    assert np.allclose(out, expected)


def test_raise_is_adjoint_of_lower():
    for ion in range(2):
        lo = build_spin_op(DIMS2, ion, "lower").matrix.toarray()
        hi = build_spin_op(DIMS2, ion, "raise").matrix.toarray()
        assert np.array_equal(hi, lo.conj().T)


def test_collective_x_creates_triplet():
    sx = build_spin_op(DIMS2, 0, "x").matrix.toarray() + build_spin_op(DIMS2, 1, "x").matrix.toarray()
    psi = basis_vector(DIMS2, (UP, UP), 0)
    t = named_state(DIMS2, "T", 0).amplitudes
    out = sx @ psi
    # sum_i sigma_i^x |uu> = sqrt(2) |T>
    assert abs(np.vdot(t, out) - np.sqrt(2)) < 1e-12
    assert abs(np.linalg.norm(out) - np.sqrt(2)) < 1e-12


def test_project_o_requires_leak_level():
    with pytest.raises(ValueError):
        build_spin_op(DIMS2, 0, "project_o")
    dims = SystemDims(2, 2, leak_level=True)
    proj = build_spin_op(dims, 1, "project_o").matrix.toarray()
    assert abs(np.trace(proj) - 3 * dims.n_fock) < 1e-12


@pytest.mark.parametrize("kind, source", [("leak_from_up", UP), ("leak_from_down", DOWN)])
def test_leak_transitions_require_leak_level(kind, source):
    with pytest.raises(ValueError):
        build_spin_op(DIMS2, 0, kind)
    dims = SystemDims(2, 2, leak_level=True)
    op = build_spin_op(dims, 1, kind).matrix.toarray()
    for spin in (UP, DOWN, LEAK):
        out = op @ basis_vector(dims, (UP, spin), 1)
        want = basis_vector(dims, (UP, LEAK), 1) if spin == source else np.zeros(dims.dim)
        assert np.array_equal(out, want)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_spin_op(DIMS2, 0, "lower"),
        lambda: build_spin_op(SystemDims(2, 2, leak_level=True), 1, "leak_from_down"),
        lambda: build_mode_op(DIMS2, "annihilate"),
        lambda: build_mode_op(DIMS3, "number"),
    ],
    ids=["lower", "leak_from_down", "annihilate", "number"],
)
def test_memoized_operator_matrices_are_read_only(build):
    op = build()
    assert build() is op
    before = op.matrix.toarray()
    for stored in (op.matrix.data, op.matrix.indices, op.matrix.indptr):
        with pytest.raises(ValueError):
            stored[0] = 5
    with pytest.raises(ValueError):
        op.matrix *= 2.0
    assert np.array_equal(op.matrix.toarray(), before)


def test_ion_index_out_of_range():
    with pytest.raises(ValueError):
        build_spin_op(DIMS2, 2, "lower")


def test_embedded_operators_on_distinct_ions_commute():
    rng = np.random.default_rng(7)
    kinds = ["lower", "raise", "x", "z"]
    for _ in range(12):
        ka, kb = rng.choice(kinds, size=2)
        a = build_spin_op(DIMS3, 0, ka).matrix.toarray()
        b = build_spin_op(DIMS3, rng.integers(1, 3), kb).matrix.toarray()
        assert np.linalg.norm(a @ b - b @ a) < 1e-12


def test_mode_ladder_action():
    a = build_mode_op(DIMS2, "annihilate").matrix.toarray()
    psi1 = basis_vector(DIMS2, (UP, UP), 1)
    psi0 = basis_vector(DIMS2, (UP, UP), 0)
    assert np.allclose(a @ psi1, psi0)  # sqrt(1) factor
    adag = build_mode_op(DIMS2, "create").matrix.toarray()
    top = basis_vector(DIMS2, (UP, UP), DIMS2.n_fock - 1)
    assert np.linalg.norm(adag @ top) == 0.0  # truncation convention
    assert np.array_equal(adag, a.conj().T)


def test_number_operator_thermal_expectation():
    dims = SystemDims(2, 16)
    nbar = 0.006
    rho = thermal_product_state(dims, spin_state(dims, "uu"), nbar)
    number = build_mode_op(dims, "number").matrix.toarray()
    got = np.trace(number @ rho.matrix).real
    # independent oracle: truncated geometric series
    q = nbar / (1 + nbar)
    w = q ** np.arange(16)
    w /= w.sum()
    expected = float((np.arange(16) * w).sum())
    assert abs(got - expected) < 1e-12
    assert abs(got - nbar) < 1e-4  # truncation error only


def test_named_state_phase_conventions():
    # oracle: literal construction of the twisted states
    w = np.exp(2j * np.pi / 3)
    dims = DIMS3
    uud = basis_vector(dims, (UP, UP, DOWN), 0)
    udu = basis_vector(dims, (UP, DOWN, UP), 0)
    duu = basis_vector(dims, (DOWN, UP, UP), 0)
    wc_expected = (w * uud + udu + w.conj() * duu) / np.sqrt(3)
    assert np.allclose(named_state(dims, "Wc", 0).amplitudes, wc_expected)

    W = named_state(dims, "W", 0)
    Wc = named_state(dims, "Wc", 0)
    Wac = named_state(dims, "Wac", 0)
    assert abs(W.overlap(Wc)) < 1e-12
    assert abs(Wc.overlap(Wac)) < 1e-12


def test_triplet_singlet_orthonormal_basis():
    names = ["uu", "T", "S", "dd"]
    vecs = [named_state(DIMS2, n, 0).amplitudes for n in names]
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    assert np.linalg.norm(gram - np.eye(4)) < 1e-12


def test_named_state_fock_support():
    t1 = named_state(DIMS2, "T", 1)
    psi = t1.amplitudes.reshape(DIMS2.spin_dim, DIMS2.n_fock)
    assert np.linalg.norm(psi[:, [0, 2, 3]]) == 0.0


@pytest.mark.parametrize(
    "build",
    [
        lambda: named_state(DIMS2, "T", 1),
        lambda: named_state(DIMS3, "Wc"),
        lambda: spin_state(SystemDims(2, 5, leak_level=True), "S"),
    ],
    ids=["T_1", "Wc", "spin_S"],
)
def test_memoized_state_amplitudes_are_read_only(build):
    state = build()
    assert build() is state
    before = state.amplitudes.copy()
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0
    with pytest.raises(ValueError):
        state.amplitudes *= 2.0
    assert np.array_equal(state.amplitudes, before)


def test_named_state_default_fock_level_shares_the_entry():
    assert named_state(DIMS2, "S") is named_state(DIMS2, "S", 0)
    assert named_state(DIMS2, "S", 1) is not named_state(DIMS2, "S", 0)


def test_partial_trace_of_a_stack_matches_each_sample():
    dims = SystemDims(2, 3, leak_level=True)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=(4, dims.dim)) + 1j * rng.normal(size=(4, dims.dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    rhos = np.einsum("ti,tj->tij", amps, amps.conj())
    pure = partial_trace_motion(dims, amps)
    mixed = partial_trace_motion(dims, rhos)
    assert pure.shape == mixed.shape == (4, dims.spin_dim, dims.spin_dim)
    for k in range(4):
        assert np.array_equal(pure[k], partial_trace_motion(dims, PureState(dims, amps[k])))
        assert np.array_equal(mixed[k], partial_trace_motion(dims, DensityOperator(dims, rhos[k])))
        assert np.allclose(pure[k], mixed[k], atol=1e-14)


def test_named_state_ion_count_mismatch():
    with pytest.raises(ValueError):
        named_state(DIMS2, "W", 0)
    with pytest.raises(ValueError):
        named_state(DIMS3, "T", 0)


def test_spin_completeness_two_ions():
    projectors = sum(
        np.outer(named_state(DIMS2, n, 0).amplitudes, named_state(DIMS2, n, 0).amplitudes.conj())
        for n in ["uu", "T", "S", "dd"]
    )
    # identity on the spin factor at fock 0
    fock0 = np.kron(np.eye(DIMS2.spin_dim), np.diag([1.0, 0, 0, 0]))
    assert np.linalg.norm(projectors - fock0) < 1e-12


def test_thermal_zero_temperature_is_pure_ground():
    dims = SystemDims(2, 5)
    rho = thermal_product_state(dims, spin_state(dims, "T"), 0.0)
    expected = named_state(dims, "T", 0).to_density().matrix
    assert np.linalg.norm(rho.matrix - expected) < 1e-12


def test_thermal_weight_level_one():
    nbar = 0.006
    w = thermal_weights(nbar, 16)
    q = nbar / (1 + nbar)
    z = sum(q**n for n in range(16))
    assert abs(w[1] - q / z) < 1e-15
    assert abs(w[1] - 0.0059288) < 1e-6  # frozen from the oracle above


def test_thermal_trace_one():
    dims = SystemDims(2, 16)
    rho = thermal_product_state(dims, spin_state(dims, "uu"), 0.01)
    assert abs(rho.trace - 1.0) < 1e-12


def test_thermal_truncation_guard():
    with pytest.raises(TruncationError):
        thermal_weights(2.0, 3)


def test_density_and_state_validation():
    with pytest.raises(ValueError):
        PureState(DIMS2, np.ones(DIMS2.dim))
    with pytest.raises(ValueError):
        DensityOperator(DIMS2, np.eye(DIMS2.dim) * (1.0 / DIMS2.dim) + 1e-3 * 1j * np.eye(DIMS2.dim))


def test_partial_trace_and_up_projectors():
    dims = SystemDims(2, 3)
    psi = named_state(dims, "T", 1)
    rho_spin = partial_trace_motion(dims, psi)
    t_spin = spin_state(dims, "T").amplitudes
    assert abs(np.vdot(t_spin, rho_spin @ t_spin) - 1.0) < 1e-12
    masks = up_count_projectors(dims)
    diag = np.abs(psi.amplitudes) ** 2
    assert abs(diag @ masks[1] - 1.0) < 1e-12
    assert diag @ masks[0] == 0.0


def test_leak_sectors_partition_the_basis_by_leak_set():
    assert [list(idx) for idx in leak_sectors(DIMS3)] == [list(range(DIMS3.dim))]
    dims = SystemDims(3, 2, leak_level=True)
    sectors = leak_sectors(dims)
    assert len(sectors) == 8
    assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(dims.dim))
    assert [len(idx) for idx in sectors] == [16, 8, 8, 4, 8, 4, 4, 2]
    assert sectors[0][1] == dims.basis_index((UP, UP, UP), 1)
    for idx in sectors:
        assert np.all(np.diff(idx) > 0)
        leaked = {tuple(s == LEAK for s in dims.spin_configurations()[i // dims.n_fock]) for i in idx}
        assert len(leaked) == 1


@pytest.mark.parametrize("dims, step", [(DIMS2, 1), (DIMS3, 1), (SystemDims(3, 4), 2), (SystemDims(3, 2, True), 0)])
def test_cycle_sectors_diagonalize_the_cycle_shift(dims, step):
    """U moves each ion's level to the next ion and multiplies Fock level n
    by exp(2 pi i step n / N); the columns of w are orthonormal eigenvectors
    of U, each on one orbit at one Fock level, whose labels rep carries.
    w is read as the CSR matrix it comes as."""
    import scipy.sparse as sp

    image, phase = cycle_shift(dims, step)
    u = sp.csr_matrix((phase, (image, np.arange(dims.dim))), shape=(dims.dim, dims.dim))
    levels = [UP, DOWN, DOWN][: dims.n_ions]
    moved = basis_vector(dims, [DOWN, UP, DOWN][: dims.n_ions], 1) * np.exp(2j * np.pi * step / dims.n_ions)
    np.testing.assert_allclose(u @ basis_vector(dims, levels, 1), moved, rtol=0, atol=1e-15)

    w, sector, rep = cycle_sectors(dims, step)
    assert w.format == "csr" and np.all(w.data != 0)
    assert abs(w.conj().T @ w - sp.identity(dims.dim)).max() <= 1e-15
    assert abs(u @ w - w @ sp.diags(np.exp(2j * np.pi * sector / dims.n_ions))).max() <= 1e-15
    assert sorted(rep) == list(range(dims.dim))
    ups = np.array([sum(s == UP for s in c) for c in dims.spin_configurations()]).repeat(dims.n_fock)
    columns = w.tocsc()
    for c in range(dims.dim):
        support = columns.indices[columns.indptr[c] : columns.indptr[c + 1]]
        assert rep[c] in support
        assert set(support % dims.n_fock) == {rep[c] % dims.n_fock} and set(ups[support]) == {ups[rep[c]]}


@pytest.mark.parametrize("n_bar", [np.inf, np.nan, -0.1])
def test_thermal_weights_reject_non_finite_and_negative_occupation(n_bar):
    with pytest.raises(ValueError, match="n_bar must be finite and >= 0"):
        thermal_weights(n_bar, 4)


def test_state_constructors_reject_nan():
    dims = SystemDims(2, 2)
    with pytest.raises(ValueError, match="norm"):
        PureState(dims, np.full(dims.dim, np.nan))
    rho = np.eye(dims.dim, dtype=complex) / dims.dim
    rho[0, 1] = np.nan
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(dims, rho)


def test_hermiticity_check_is_scale_free():
    """The check scales by a power of two before taking norms, so entries
    near the float range pass or fail as at unit scale, without an
    overflow warning."""
    dims = SystemDims(2, 1)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm = a + a.conj().T
    skew = herm + 1e-9 * np.eye(4, k=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scale in (1.0, 2.0**900, 1e200, 1e307):
            OperatorMatrix(dims, scale * herm, True)
            with pytest.raises(ValueError, match="not Hermitian"):
                OperatorMatrix(dims, scale * skew, True)
