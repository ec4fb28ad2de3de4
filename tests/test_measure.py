import json
import tracemalloc
import warnings

import numpy as np
import pytest

from qsim import gates
from qsim.algorithms import bell_circuit
from qsim.circuit import Circuit, Instruction, apply
from qsim.errors import CapacityError, ProbabilityError, QsimError, WireOutOfRangeError
from qsim.measure import (
    SHOT_CHUNK,
    OutcomeDistribution,
    ShotHistogram,
    _labels,
    _philox_draws,
    _pick,
    bitstring,
    measure_all,
    measure_qubit,
    probabilities,
    probabilities_density,
    sample,
)
from qsim.qstate import (
    DensityMatrix,
    basis_state,
    from_amplitudes,
    to_density,
    zero_state,
)

SQRT2_INV = 1.0 / np.sqrt(2.0)
HADAMARD_STATE = from_amplitudes([SQRT2_INV, SQRT2_INV])
BELL_STATE = apply(bell_circuit(), zero_state(2))
X_CIRCUIT = Circuit(1, [Instruction(gates.X, (0,))])
# Eight outcomes of unequal probability, so a changed draw shows.
SKEWED = Circuit(
    3,
    [
        Instruction(gates.H, (0,)),
        Instruction(gates.H, (1,)),
        Instruction(gates.T, (1,)),
        Instruction(gates.H, (1,)),
        Instruction(gates.CNOT, (0, 2)),
        Instruction(gates.H, (2,)),
    ],
)


def generator_draw(seed, shot):
    """The documented draw of one shot: a fresh Philox Generator's first double."""
    key = np.array([seed, shot], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random()


def documented_histogram(circuit, shots, seed):
    """Shot i draws from Philox keyed by (seed, i) as uint64 words; CDF inversion."""
    cum = np.cumsum(probabilities(apply(circuit, zero_state(circuit.num_qubits))).probabilities)
    counts = {}
    for shot in range(shots):
        draw = generator_draw(seed, shot)
        label = bitstring(int(np.searchsorted(cum, draw, side="right")), circuit.num_qubits)
        counts[label] = counts.get(label, 0) + 1
    return counts


PHILOX_SEEDS = (0, 7, 2**62 + 12345, 2**63 - 1, 2**63, 2**63 + 2**40 + 12345, 2**64 - 1)


class TestProbabilities:
    def test_equal_superposition(self):
        np.testing.assert_allclose(
            probabilities(HADAMARD_STATE).probabilities, [0.5, 0.5], atol=1e-12
        )

    def test_basis_state(self):
        np.testing.assert_array_equal(
            probabilities(basis_state(1, 1)).probabilities, [0.0, 1.0]
        )

    def test_bell_state(self):
        np.testing.assert_allclose(
            probabilities(BELL_STATE).probabilities, [0.5, 0, 0, 0.5], atol=1e-12
        )

    def test_density_diagonals(self):
        np.testing.assert_allclose(
            probabilities_density(to_density(HADAMARD_STATE)).probabilities,
            [0.5, 0.5],
            atol=1e-12,
        )
        np.testing.assert_array_equal(
            probabilities_density(to_density(zero_state(1))).probabilities, [1.0, 0.0]
        )

    def test_density_matches_vector_route(self, rng, random_state):
        for n in (1, 2, 3):
            s = random_state(rng, n)
            np.testing.assert_allclose(
                probabilities_density(to_density(s)).probabilities,
                probabilities(s).probabilities,
                atol=1e-12,
            )

    def test_sum_to_one_after_circuits(self, rng, random_circuit, random_state):
        for _ in range(50):
            c = random_circuit(rng)
            out = apply(c, random_state(rng, c.num_qubits))
            assert probabilities(out).probabilities.sum() == pytest.approx(1.0, abs=1e-10)

    def test_derived_distributions_are_not_revalidated(self, monkeypatch):
        def checked(self):
            raise AssertionError("derived distribution re-validated")

        monkeypatch.setattr(OutcomeDistribution, "__post_init__", checked)
        for dist in (
            probabilities(HADAMARD_STATE),
            probabilities_density(to_density(HADAMARD_STATE)),
        ):
            assert isinstance(dist, OutcomeDistribution)
            assert dist.num_qubits == 1
            np.testing.assert_allclose(dist.probabilities, [0.5, 0.5], atol=1e-12)
            assert not dist.probabilities.flags.writeable

    def test_density_roundoff_passes_through_but_public_constructor_checks(self):
        # A diagonal entry of -5e-10 is within the density matrix's PSD floor
        # (-1e-9) but outside the distribution's own range check (-1e-12).
        rho = DensityMatrix(np.diag([1.0 + 5e-10, -5e-10]))
        probs = probabilities_density(rho).probabilities
        np.testing.assert_array_equal(probs, [1.0 + 5e-10, -5e-10])
        with pytest.raises(ProbabilityError):
            OutcomeDistribution(1, probs)

    def test_distribution_validation(self):
        with pytest.raises(ProbabilityError):
            OutcomeDistribution(1, [0.7, 0.7])
        with pytest.raises(ProbabilityError):
            OutcomeDistribution(1, [1.2, -0.2])
        with pytest.raises(ProbabilityError):
            OutcomeDistribution(2, [1.0, 0.0])

    def test_distribution_of_a_huge_num_qubits(self):
        # Comparing the size with 1 << n overflowed, or exhausted memory, first.
        with pytest.raises(ProbabilityError, match=r"expected 2\*\*1000000000000000000000000000000 "):
            OutcomeDistribution(10**30, [1.0])

    @pytest.mark.parametrize("num_qubits", [-1, 2.5, 1.0, True, np.True_, "1", None])
    def test_distribution_num_qubits_is_a_non_negative_integer(self, num_qubits):
        with pytest.raises(ProbabilityError, match="num_qubits"):
            OutcomeDistribution(num_qubits, [1.0])

    def test_distribution_keeps_num_qubits_as_an_int(self):
        dist = OutcomeDistribution(np.int64(1), [0.5, 0.5])
        assert type(dist.num_qubits) is int
        assert dist.render("json").startswith('{\n  "num_qubits": 1,\n')

    @pytest.mark.parametrize(
        "probs", [[np.nan, np.nan], [np.nan, 1.0], [1.0, np.nan], [np.inf, 0.0], [1.0, -np.inf]]
    )
    def test_distribution_rejects_non_finite(self, probs):
        with pytest.raises(ProbabilityError):
            OutcomeDistribution(1, probs)


def test_distribution_equality_and_hash_are_identity():
    # Array holders compare by identity: == once raised ValueError on the
    # arrays' truth value, and hash raised TypeError.
    a, b = OutcomeDistribution(1, [0.5, 0.5]), OutcomeDistribution(1, [0.5, 0.5])
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


class TestMeasureAll:
    def test_deterministic_state(self):
        for draw in (0.0, 0.3, 0.999999):
            rec = measure_all(zero_state(1), draw)
            assert rec.outcome == "0"
            np.testing.assert_array_equal(rec.post_state.amplitudes, [1.0, 0.0])

    def test_cdf_lookup(self):
        assert measure_all(HADAMARD_STATE, 0.25).outcome == "0"
        assert measure_all(HADAMARD_STATE, 0.75).outcome == "1"

    def test_boundary_draw_goes_to_next_bucket(self):
        # Cumulative over |0> is exactly the draw, so the outcome is |1>.
        assert measure_all(from_amplitudes([SQRT2_INV, SQRT2_INV]), 0.5).outcome == "1"

    def test_collapse_to_basis_vector(self):
        rec = measure_all(BELL_STATE, 0.9)
        assert rec.outcome == "11"
        np.testing.assert_array_equal(rec.post_state.amplitudes, basis_state(2, 3).amplitudes)

    def test_zero_probability_outcomes_never_selected(self, rng):
        state = from_amplitudes([SQRT2_INV, 0.0, 0.0, SQRT2_INV])
        for _ in range(200):
            assert measure_all(state, float(rng.random())).outcome in {"00", "11"}

    @pytest.mark.parametrize("draw", [-0.25, -1e-300, 1.0, 1.5, float("nan"), float("inf")])
    def test_draw_outside_unit_interval_rejected(self, draw):
        # -0.25 used to select |0>, an outcome of probability 0.
        with pytest.raises(ProbabilityError):
            measure_all(basis_state(1, 1), draw)


class TestPick:
    def test_vector_of_draws(self):
        probs = np.array([0.25, 0.0, 0.5, 0.25])
        picks = _pick(probs, np.cumsum(probs), np.array([0.0, 0.25, 0.5, 0.75, 0.9999]))
        np.testing.assert_array_equal(picks, [0, 2, 2, 3, 3])

    def test_draw_beyond_last_step_falls_back_to_last_nonzero_outcome(self):
        probs = np.array([0.3, 0.0, 0.6, 0.0])  # the last step is 0.9 after roundoff
        picks = _pick(probs, np.cumsum(probs), np.array([0.95, 0.1, 0.99]))
        np.testing.assert_array_equal(picks, [2, 0, 2])


class TestPhiloxDraws:
    @pytest.mark.parametrize("seed", PHILOX_SEEDS)
    def test_matches_numpy_philox(self, seed):
        shots = np.concatenate(
            [
                np.arange(300, dtype=np.uint64),
                np.arange(SHOT_CHUNK - 150, SHOT_CHUNK + 150, dtype=np.uint64),
                np.arange(2**64 - 10, 2**64, dtype=np.uint64),
            ]
        )
        expected = [generator_draw(seed, int(shot)) for shot in shots]
        np.testing.assert_array_equal(_philox_draws(seed, shots), expected)

    def test_chunked_sample_equals_one_pass(self):
        shots, seed = 2 * SHOT_CHUNK + 7, 2**63 + 1
        probs = probabilities(apply(SKEWED, zero_state(3))).probabilities
        picks = _pick(probs, np.cumsum(probs), _philox_draws(seed, np.arange(shots, dtype=np.uint64)))
        tally = np.bincount(picks, minlength=8)
        expected = {bitstring(k, 3): int(tally[k]) for k in range(8) if tally[k]}
        assert sample(SKEWED, shots, seed).counts == expected

    def test_memory_bounded_by_chunk_not_shots(self):
        sample(SKEWED, 10, 0)  # warm up imports and caches
        tracemalloc.start()
        try:
            sample(SKEWED, 200_000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestMeasureQubit:
    def test_bell_collapse_low_draw(self):
        rec = measure_qubit(BELL_STATE, 0, 0.25)
        assert rec.outcome == "0"
        np.testing.assert_allclose(rec.post_state.amplitudes, basis_state(2, 0).amplitudes, atol=1e-12)

    def test_bell_collapse_high_draw(self):
        rec = measure_qubit(BELL_STATE, 0, 0.5)
        assert rec.outcome == "1"
        np.testing.assert_allclose(rec.post_state.amplitudes, basis_state(2, 3).amplitudes, atol=1e-12)

    def test_deterministic_bit(self):
        state = basis_state(2, 0b01)  # qubit 1 is set
        for draw in (0.0, 0.5, 0.99):
            rec = measure_qubit(state, 1, draw)
            assert rec.outcome == "1"
            np.testing.assert_array_equal(rec.post_state.amplitudes, state.amplitudes)

    def test_out_of_range(self):
        with pytest.raises(WireOutOfRangeError):
            measure_qubit(BELL_STATE, 2, 0.5)

    @pytest.mark.parametrize("draw", [-0.25, 1.0, float("nan")])
    def test_draw_outside_unit_interval_rejected(self, draw):
        with pytest.raises(ProbabilityError):
            measure_qubit(BELL_STATE, 0, draw)

    def test_matches_brute_force_projector(self, rng, random_state):
        for n in range(1, 7):
            for _ in range(5):
                s = random_state(rng, n)
                for qubit in range(n):
                    bits = (np.arange(1 << n) >> (n - 1 - qubit)) & 1
                    weights = np.abs(s.amplitudes) ** 2
                    p_zero = float(weights[bits == 0].sum())
                    draw = float(rng.random())
                    if abs(draw - p_zero) < 1e-12:
                        continue
                    bit = int(draw >= p_zero)
                    projected = np.where(bits == bit, s.amplitudes, 0.0)
                    rec = measure_qubit(s, qubit, draw)
                    assert rec.outcome == str(bit)
                    expected = projected / np.linalg.norm(projected)
                    np.testing.assert_allclose(rec.post_state.amplitudes, expected, rtol=0, atol=1e-12)

    def test_peak_memory_is_one_state(self):
        n = 20
        s = from_amplitudes(np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128))
        measure_qubit(zero_state(2), 1, 0.5)  # warm up imports and caches
        tracemalloc.start()
        try:
            measure_qubit(s, 7, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * s.amplitudes.nbytes

    def test_collapse_idempotent(self, rng, random_state):
        """Re-measuring the collapsed qubit repeats the bit for every draw."""
        for _ in range(25):
            s = random_state(rng, 3)
            qubit = int(rng.integers(3))
            first = measure_qubit(s, qubit, float(rng.random()))
            for draw in (0.0, 0.5, 0.999):
                again = measure_qubit(first.post_state, qubit, draw)
                assert again.outcome == first.outcome


class TestSample:
    def test_deterministic_circuit(self):
        hist = sample(X_CIRCUIT, 100, 0)
        assert hist.counts == {"1": 100}

    def test_histogram_is_adopted_without_checks(self, monkeypatch):
        # sample's counts come from its own tally, so its histogram skips
        # the construction checks and equals the checked one.
        def refuse(self):
            raise AssertionError("sample checked its own histogram again")

        expected = sample(SKEWED, 500, 11)
        checked = ShotHistogram(counts=dict(expected.counts), shots=500, seed=11)
        monkeypatch.setattr(ShotHistogram, "__post_init__", refuse)
        hist = sample(SKEWED, 500, 11)
        assert hist == checked
        assert all(type(v) is int for v in hist.counts.values())

    @pytest.mark.parametrize("n", [63, 10**4])
    def test_capacity_before_the_state_is_built(self, n):
        # 63 qubits and more exceed numpy's largest array: no state may be built.
        with pytest.raises(CapacityError, match=f"at most 24 qubits, got {n}"):
            sample(Circuit(n), 1, 0)

    def test_peak_memory_is_two_and_a_half_states(self):
        # |0...0>, which the engine copies into its output, and the
        # half-state probabilities: nothing else state-sized is allocated.
        n = 20
        c = Circuit(n, [Instruction(gates.H, (w,)) for w in range(n)])
        tracemalloc.start()
        try:
            sample(c, 100, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 16 * 2**n

    def test_total_equals_shots(self):
        hist = sample(bell_circuit(), 999, 5)
        assert sum(hist.counts.values()) == 999

    def test_same_seed_identical(self):
        a = sample(bell_circuit(), 512, 123)
        b = sample(bell_circuit(), 512, 123)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        # A two-outcome histogram is one binomial count, so any single pair
        # of seeds can collide by chance; across four seeds they cannot.
        histograms = {seed: sample(bell_circuit(), 4096, seed).to_json() for seed in range(1, 5)}
        assert len(set(histograms.values())) > 1

    def test_worker_count_invariant(self):
        base = sample(bell_circuit(), 1000, 42)
        for workers in (2, 3, 8):
            assert sample(bell_circuit(), 1000, 42, workers=workers) == base

    def test_only_supported_labels(self):
        hist = sample(bell_circuit(), 2048, 9)
        assert set(hist.counts) <= {"00", "11"}

    @pytest.mark.parametrize(
        "seed, counts",
        [
            (7, {"000": 27, "001": 51, "010": 7, "011": 12, "100": 47, "101": 41, "110": 8, "111": 7}),
            (2**62 + 12345, {"000": 39, "001": 42, "010": 11, "011": 11, "100": 42, "101": 45, "110": 5, "111": 5}),
            (2**63 - 1, {"000": 41, "001": 43, "010": 9, "011": 8, "100": 41, "101": 48, "110": 3, "111": 7}),
        ],
    )
    def test_golden_histograms(self, seed, counts):
        assert sample(SKEWED, 200, seed).counts == counts

    def test_seeds_above_two_to_the_63_differ(self):
        assert sample(SKEWED, 2000, 2**63).counts != sample(SKEWED, 2000, 2**63 + 1).counts

    def test_high_seed_follows_the_documented_draw(self):
        seed = 2**63 + 2**40 + 12345
        assert sample(SKEWED, 1000, seed).counts == documented_histogram(SKEWED, 1000, seed)

    def test_largest_seed_draws_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hist = sample(SKEWED, 3, 2**64 - 1)
        assert hist.counts == documented_histogram(SKEWED, 3, 2**64 - 1)

    def test_validation(self):
        with pytest.raises(ProbabilityError):
            sample(X_CIRCUIT, 0, 0)
        with pytest.raises(QsimError):
            sample(X_CIRCUIT, 1, -1)
        with pytest.raises(QsimError):
            sample(X_CIRCUIT, 1, 1 << 64)


    @pytest.mark.parametrize("seed", [np.uint64(5), np.int64(5), np.uint64(2**64 - 1)])
    def test_numpy_integer_seeds_sample_as_ints(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hist = sample(SKEWED, 50, seed)
        assert hist == sample(SKEWED, 50, int(seed))
        assert type(hist.seed) is int
        assert hist.to_json() == sample(SKEWED, 50, int(seed)).to_json()

    @pytest.mark.parametrize(
        "shots, seed, error, message",
        [
            (2.0, 5, ProbabilityError, "shots must be at least 1"),
            (None, 5, ProbabilityError, "shots must be at least 1"),
            (True, 5, ProbabilityError, "shots must be at least 1"),
            (np.True_, 5, ProbabilityError, "shots must be at least 1"),
            (10, True, QsimError, "seed must be an unsigned 64-bit integer"),
            (10, np.True_, QsimError, "seed must be an unsigned 64-bit integer"),
            (10, 5.0, QsimError, "seed must be an unsigned 64-bit integer"),
            (10, np.float64(5), QsimError, "seed must be an unsigned 64-bit integer"),
            (10, "5", QsimError, "seed must be an unsigned 64-bit integer"),
        ],
    )
    def test_non_integer_shots_or_seed_rejected(self, shots, seed, error, message):
        with pytest.raises(error, match=message):
            sample(X_CIRCUIT, shots, seed)

    def test_numpy_integer_shots(self):
        assert sample(X_CIRCUIT, np.int32(3), 0).counts == {"1": 3}


class TestSerialization:
    def test_json_shape(self):
        hist = sample(bell_circuit(), 256, 7)
        payload = json.loads(hist.to_json())
        assert payload["shots"] == 256
        assert payload["seed"] == 7
        assert sum(payload["counts"].values()) == 256

    def test_csv_rows(self):
        hist = ShotHistogram(counts={"10": 3, "01": 5}, shots=8, seed=0)
        assert hist.to_csv() == "01,5\n10,3\n"

    def test_histogram_count_invariant(self):
        with pytest.raises(ProbabilityError):
            ShotHistogram(counts={"0": 1}, shots=2, seed=0)

    @pytest.mark.parametrize(
        "counts", [{"0": 5, "1": -4}, {"0": 0.5, "1": 0.5}, {"0": 1.0}, {"0": "1"}]
    )
    def test_histogram_counts_are_non_negative_integers(self, counts):
        with pytest.raises(ProbabilityError):
            ShotHistogram(counts=counts, shots=1, seed=0)

    @pytest.mark.parametrize("count", [True, np.True_])
    def test_histogram_refuses_bool_counts(self, count):
        with pytest.raises(ProbabilityError, match="must be integers"):
            ShotHistogram(counts={"0": count}, shots=1, seed=0)

    @pytest.mark.parametrize("seed", [2.5, 1.0, True, np.True_, -3, 1 << 64, "1", None])
    def test_histogram_seed_is_an_unsigned_64_bit_integer(self, seed):
        with pytest.raises(QsimError, match="seed must be an unsigned 64-bit integer"):
            ShotHistogram(counts={"0": 1}, shots=1, seed=seed)

    def test_histogram_shots_is_an_integer(self):
        for shots in (1.0, True):
            with pytest.raises(ProbabilityError, match="shot total"):
                ShotHistogram(counts={"0": 1}, shots=shots, seed=0)
        hist = ShotHistogram(counts={"0": 1}, shots=np.int64(1), seed=0)
        assert type(hist.shots) is int
        assert hist.render("json").startswith('{\n  "shots": 1,\n')

    def test_histogram_keeps_the_seed_as_an_int(self):
        hist = ShotHistogram(counts={"0": 1}, shots=1, seed=np.uint64((1 << 64) - 1))
        assert type(hist.seed) is int
        assert '"seed": 18446744073709551615,' in hist.render("json")

    def test_histogram_accepts_integer_likes(self):
        hist = ShotHistogram(counts={"0": np.int64(2), "1": 0}, shots=2, seed=0)
        assert hist.to_csv() == "0,2\n1,0\n"


    def test_histogram_with_numpy_integers_renders_json(self):
        hist = ShotHistogram(counts={"0": np.int64(2)}, shots=np.int64(2), seed=np.uint64(3))
        assert json.loads(hist.render("json")) == {"shots": 2, "seed": 3, "counts": {"0": 2}}

    @pytest.mark.parametrize("fmt", ["JSON", "yaml", "", "txt"])
    def test_unknown_format_rejected(self, fmt):
        with pytest.raises(QsimError, match="json, csv or text"):
            OutcomeDistribution(1, [0.5, 0.5]).render(fmt)
        with pytest.raises(QsimError, match="json, csv or text"):
            ShotHistogram({"0": 1}, 1, 0).render(fmt)


def test_labels_of_an_index_array():
    assert _labels(np.array([0, 5, 7]), 3) == ["000", "101", "111"]
    assert _labels(np.arange(1), 0) == [""]
    assert _labels(np.array([], dtype=np.int64), 4) == []
    assert OutcomeDistribution(2, [0.25] * 4).labels() == ["00", "01", "10", "11"]


def test_labels_across_a_chunk_boundary():
    labels = _labels(np.arange(SHOT_CHUNK + 2), 17)
    assert len(labels) == SHOT_CHUNK + 2
    assert labels[SHOT_CHUNK - 1 :] == [bitstring(k, 17) for k in range(SHOT_CHUNK - 1, SHOT_CHUNK + 2)]


def test_bitstring_labels():
    assert bitstring(0, 3) == "000"
    assert bitstring(5, 3) == "101"
    assert bitstring(0, 0) == ""
