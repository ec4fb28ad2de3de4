import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from oracles import jacobi_eig_hermitian, svd_schmidt_weights
from qsim import entangle
from qsim.algorithms import bell_circuit
from qsim.circuit import apply
from qsim.entangle import Bipartition, entanglement_entropy, is_entangled, partial_trace
from qsim.errors import CapacityError, QsimError, SubsystemError
from qsim.qstate import (
    basis_state,
    from_amplitudes,
    from_ensemble,
    normalize,
    purity,
    to_density,
    zero_state,
)

SQRT2_INV = 1.0 / np.sqrt(2.0)
BELL = apply(bell_circuit(), zero_state(2))
SPLIT_2Q = Bipartition.split(2, [0])


def bits_of(index, n, qubits):
    """The bits of ``qubits`` in basis index ``index`` of n qubits, the first qubit's bit the MSB."""
    return sum(((index >> (n - 1 - q)) & 1) << (len(qubits) - 1 - j) for j, q in enumerate(qubits))


class TestBipartition:
    def test_split_computes_complement(self):
        part = Bipartition.split(4, [1, 3])
        assert part.subsystem_a == (1, 3)
        assert part.subsystem_b == (0, 2)

    def test_rejects_empty_side(self):
        with pytest.raises(SubsystemError):
            Bipartition.split(2, [])
        with pytest.raises(SubsystemError):
            Bipartition.split(2, [0, 1])

    def test_rejects_overlap(self):
        with pytest.raises(SubsystemError):
            Bipartition((0, 1), (1, 2))

    def test_rejects_gaps(self):
        with pytest.raises(SubsystemError):
            Bipartition((0,), (2,))

    @pytest.mark.parametrize("label", [0.5, 1.0, True, np.True_, "0"])
    def test_rejects_non_integer_labels(self, label):
        for build in (
            lambda: Bipartition((label,), (1,)),
            lambda: Bipartition((0,), (label,)),
            lambda: Bipartition.split(2, [label]),
        ):
            with pytest.raises(SubsystemError, match="must be integers"):
                build()

    @pytest.mark.parametrize("count", [2.5, 2.0, True, np.True_, "2"])
    def test_split_rejects_a_non_integer_count(self, count):
        with pytest.raises(SubsystemError, match="must be integers"):
            Bipartition.split(count, [0])

    @pytest.mark.parametrize("count", [25, 10**6])
    def test_split_refuses_a_count_over_the_statevector_cap(self, count):
        # Checked before the complement of side A is built, one label at a time.
        with pytest.raises(CapacityError):
            Bipartition.split(count, [0])

    @pytest.mark.parametrize("side_a", [[0, 0], [5], [3], [-1]])
    def test_split_refuses_repeated_or_outside_labels(self, side_a):
        with pytest.raises(SubsystemError, match="num_qubits=3"):
            Bipartition.split(3, side_a)

    def test_split_takes_a_numpy_count(self):
        assert Bipartition.split(np.int64(3), [1]) == Bipartition((1,), (0, 2))

    def test_stores_numpy_labels_as_ints(self):
        part = Bipartition.split(3, [np.int64(2)])
        assert part == Bipartition((2,), (0, 1))
        assert {type(q) for q in part.subsystem_a + part.subsystem_b} == {int}


class TestPartialTrace:
    def test_bell_reduction_is_maximally_mixed(self):
        reduced = partial_trace(to_density(BELL), [0])
        np.testing.assert_allclose(reduced.matrix, np.diag([0.5, 0.5]), atol=1e-12)

    def test_product_state_reduces_to_factor(self):
        reduced = partial_trace(to_density(zero_state(2)), [0])
        np.testing.assert_allclose(reduced.matrix, [[1, 0], [0, 0]], atol=1e-15)

    def test_keep_all_rejected(self):
        with pytest.raises(SubsystemError):
            partial_trace(to_density(BELL), [0, 1])

    def test_keep_none_rejected(self):
        with pytest.raises(SubsystemError):
            partial_trace(to_density(BELL), [])

    def test_out_of_range_rejected(self):
        with pytest.raises(SubsystemError):
            partial_trace(to_density(BELL), [2])

    @pytest.mark.parametrize("label", [0.5, 1.0, True, np.True_, "0"])
    def test_non_integer_label_rejected(self, label):
        with pytest.raises(SubsystemError, match="must be integers"):
            partial_trace(to_density(BELL), [label])

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_sum_over_traced_basis_states(self, n, rng, random_state):
        states = [random_state(rng, n) for _ in range(3)]
        rho = from_ensemble(list(zip([0.5, 0.3, 0.2], states)))
        for size in range(1, n):
            for kept in itertools.combinations(range(n), size):
                traced = [q for q in range(n) if q not in kept]
                expected = np.zeros((1 << size, 1 << size), dtype=np.complex128)
                for r, c in itertools.product(range(1 << n), repeat=2):
                    if bits_of(r, n, traced) == bits_of(c, n, traced):
                        expected[bits_of(r, n, kept), bits_of(c, n, kept)] += rho.matrix[r, c]
                reduced = partial_trace(rho, list(kept)).matrix
                np.testing.assert_allclose(reduced, expected, rtol=0, atol=1e-14)

    def test_trace_preserved(self, rng, random_state):
        for _ in range(25):
            rho = to_density(random_state(rng, 3))
            keep = [0, 2] if rng.random() < 0.5 else [1]
            reduced = partial_trace(rho, keep)
            assert np.trace(reduced.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_kron_state_reduces_to_left_factor(self, rng, random_state):
        """Tracing out B from |a><a| (x) |b><b| leaves exactly |a><a|."""
        for _ in range(20):
            a = random_state(rng, 1)
            b = random_state(rng, 2)
            joint = normalize(np.kron(a.amplitudes, b.amplitudes))
            reduced = partial_trace(to_density(joint), [0])
            np.testing.assert_allclose(reduced.matrix, to_density(a).matrix, atol=1e-10)


class TestEntanglementEntropy:
    def test_bell_pair_is_one_bit(self):
        assert entanglement_entropy(BELL, SPLIT_2Q) == pytest.approx(1.0, abs=1e-10)

    def test_product_basis_state(self):
        assert entanglement_entropy(zero_state(2), SPLIT_2Q) == pytest.approx(0.0, abs=1e-12)

    def test_factorizable_superposition(self):
        # (|00> + |01>)/sqrt(2) factors as |0> (x) |+>.
        state = from_amplitudes([SQRT2_INV, SQRT2_INV, 0, 0])
        assert entanglement_entropy(state, SPLIT_2Q) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry_between_sides(self, rng, random_state):
        for _ in range(25):
            s = random_state(rng, 3)
            a = rng.choice(3, size=int(rng.integers(1, 3)), replace=False)
            part = Bipartition.split(3, [int(q) for q in a])
            flipped = Bipartition(part.subsystem_b, part.subsystem_a)
            assert entanglement_entropy(s, part) == pytest.approx(
                entanglement_entropy(s, flipped), abs=1e-9
            )

    def test_range(self, rng, random_state):
        for _ in range(25):
            s = random_state(rng, 3)
            value = entanglement_entropy(s, Bipartition.split(3, [0]))
            assert -1e-12 <= value <= 1.0 + 1e-9

    def test_product_constructions_have_zero_entropy(self, rng, random_state):
        for _ in range(20):
            a = random_state(rng, 1)
            b = random_state(rng, 1)
            joint = normalize(np.kron(a.amplitudes, b.amplitudes))
            assert entanglement_entropy(joint, SPLIT_2Q) == pytest.approx(0.0, abs=1e-9)

    def test_qubit_count_mismatch(self):
        with pytest.raises(SubsystemError):
            entanglement_entropy(zero_state(3), SPLIT_2Q)


class TestIsEntangled:
    def test_bell_pair(self):
        assert is_entangled(BELL, SPLIT_2Q, 1e-9)

    def test_basis_product_state(self):
        assert not is_entangled(basis_state(2, 0b01), SPLIT_2Q, 1e-9)

    def test_prepared_circuit_output(self):
        out = apply(bell_circuit(), zero_state(2))
        assert is_entangled(out, SPLIT_2Q, 1e-9)

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, 1.0, 1.5, float("nan"), float("inf"), float("-inf")])
    def test_rejects_tol_outside_the_unit_interval(self, tol):
        with pytest.raises(QsimError, match="tol"):
            is_entangled(zero_state(2), SPLIT_2Q, tol)

    def test_zero_tol_accepted(self):
        assert not is_entangled(zero_state(2), SPLIT_2Q, 0.0)
        assert is_entangled(BELL, SPLIT_2Q, 0.0)

    def test_runs_no_decomposition(self, monkeypatch, rng, random_state):
        def refuse(*args, **kwargs):
            raise AssertionError("is_entangled ran a decomposition")

        for name in ("svd", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert is_entangled(BELL, SPLIT_2Q)
        assert not is_entangled(zero_state(3), Bipartition.split(3, [1]))
        assert is_entangled(random_state(rng, 7), Bipartition.split(7, [0, 4, 5, 6]))


def every_bipartition(n):
    for mask in range(1, (1 << n) - 1):
        yield Bipartition.split(n, [q for q in range(n) if mask >> q & 1])


def density_oracle(state, part):
    """Entropy and purity of the reduction, from the density matrix and Jacobi."""
    reduced = partial_trace(to_density(state), part.subsystem_a)
    eigs = jacobi_eig_hermitian(reduced.matrix).eigenvalues
    eigs = eigs[eigs > entangle.ENTROPY_EIGENVALUE_CUTOFF]
    return float(-np.sum(eigs * np.log2(eigs))), purity(reduced)


class TestSchmidtSpectrum:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_density_oracle_on_every_bipartition(self, n, rng, random_state):
        factors = [random_state(rng, 1).amplitudes for _ in range(n)]
        product = normalize(reduce(np.kron, factors))
        for state in (random_state(rng, n), product):
            for part in every_bipartition(n):
                entropy, reduced_purity = density_oracle(state, part)
                weights = entangle._schmidt_weights(state, part)
                assert entanglement_entropy(state, part) == pytest.approx(entropy, abs=1e-9)
                assert float(np.sum(weights**2)) == pytest.approx(reduced_purity, abs=1e-9)
                assert is_entangled(state, part) == (reduced_purity < 1.0 - 1e-9)
                assert is_entangled(state, part) == (state is not product)

    @pytest.mark.parametrize("side_a", [(0, 2, 5, 7, 9), (1, 2, 3, 6, 8, 10)])
    def test_matches_svd_oracle_at_eleven_qubits(self, side_a, rng, random_state):
        part = Bipartition.split(11, side_a)
        for _ in range(5):
            state = random_state(rng, 11)
            weights = svd_schmidt_weights(state, side_a)
            kept = weights[weights > entangle.ENTROPY_EIGENVALUE_CUTOFF]
            entropy = float(-np.sum(kept * np.log2(kept)))
            assert entanglement_entropy(state, part) == pytest.approx(entropy, abs=1e-12)
            gram = entangle._reduced(state, part)
            assert gram.shape == (32, 32)
            assert float(np.vdot(gram, gram).real) == pytest.approx(float(np.sum(weights**2)), abs=1e-12)
            np.testing.assert_allclose(entangle._schmidt_weights(state, part), weights, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fn", [entanglement_entropy, is_entangled])
    def test_no_density_matrix_is_built(self, fn, rng, random_state):
        # A 10-qubit density matrix would take 16 MiB.
        state = random_state(rng, 10)
        part = Bipartition.split(10, [0, 3, 4, 8, 9])
        tracemalloc.start()
        try:
            fn(state, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
