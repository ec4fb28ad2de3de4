"""Reference computations that share no code with qsim.

Every workload checks qsim's outputs against these. The gate matrices are
written out here rather than taken from ``qsim.gates``, states evolve by
plain ``numpy.einsum`` on a (2,)*n tensor, shot draws follow the documented
sampling rule with an explicit unsigned 64-bit key, and the analysis checks
use LAPACK (SVD, ``eigh``, ``eigvalsh``) and the Grover closed form.

Qubit 0 is tensor axis 0, the most significant bit of a basis index, as in
qsim's documented convention.

Run as a program, it writes reference states to files, so that the einsum
simulator's memory stays out of the process whose peak memory is measured:

    python3 perfbench/reference.py SPEC.json

SPEC.json holds ``qubits``, ``circuits`` (lists of [label, wires] pairs) and
``outputs`` (one file per circuit, written as raw complex128 amplitudes).
"""

import json
import math
import string
import sys

import numpy as np

_R = 1.0 / math.sqrt(2.0)

GATES = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "s": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "t": np.array([[1, 0], [0, complex(_R, _R)]], dtype=np.complex128),
    "h": np.array([[_R, _R], [_R, -_R]], dtype=np.complex128),
    # Two-qubit gates read |first wire, second wire>; CNOT's first wire is
    # the control.
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
    ),
    "cnot": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
    ),
}

_LETTERS = string.ascii_letters


def apply_gate(psi: np.ndarray, label: str, wires, n: int) -> np.ndarray:
    """Contract one gate with the wire axes of an n-axis state tensor."""
    k = len(wires)
    g = GATES[label].reshape((2,) * (2 * k))
    axes = list(_LETTERS[:n])
    outs = _LETTERS[n : n + k]
    ins = "".join(axes[w] for w in wires)
    result = axes.copy()
    for w, o in zip(wires, outs):
        result[w] = o
    return np.einsum(f"{outs}{ins},{''.join(axes)}->{''.join(result)}", g, psi)


def final_state(n: int, ops) -> np.ndarray:
    """Amplitudes after running ``ops`` ((label, wires) pairs) from |0...0>."""
    psi = np.zeros((2,) * n, dtype=np.complex128)
    psi[(0,) * n] = 1.0
    for label, wires in ops:
        psi = apply_gate(psi, label, wires, n)
    return psi.reshape(-1)


def shot_draw(seed: int, shot: int) -> float:
    """The documented draw of one shot: Philox keyed by (seed, shot) as uint64."""
    key = np.array([seed, shot], dtype=np.uint64)
    return float(np.random.Generator(np.random.Philox(key=key)).random())


def histogram(probs: np.ndarray, shots: int, seed: int, n: int, draw=shot_draw) -> dict:
    """Counts per bitstring: each draw picks the least index whose CDF exceeds it."""
    cum = np.cumsum(probs)
    counts = {}
    for shot in range(shots):
        k = min(int(np.searchsorted(cum, draw(seed, shot), side="right")), probs.size - 1)
        label = format(k, f"0{n}b")
        counts[label] = counts.get(label, 0) + 1
    return dict(sorted(counts.items()))


def float_key_draw(seed: int, shot: int) -> float:
    """A draw whose key went through float64, as a seed >= 2**63 does in qsim today."""
    key = np.array([float(seed), float(shot)]).astype(np.uint64)
    return float(np.random.Generator(np.random.Philox(key=key)).random())


def schmidt_entropy(amps: np.ndarray, side_a, n: int) -> float:
    """Base-2 entanglement entropy from the singular values of psi as an |A| x |B| matrix."""
    side_b = [q for q in range(n) if q not in side_a]
    psi = amps.reshape((2,) * n).transpose(list(side_a) + side_b)
    sv = np.linalg.svd(psi.reshape(1 << len(side_a), -1), compute_uv=False)
    p = sv**2
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log2(p)))


def propagate(h: np.ndarray, duration: float, amps: np.ndarray) -> np.ndarray:
    """exp(-i H t) psi with the propagator built from LAPACK's eigh."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * duration)) @ (v.conj().T @ amps)


def lowest_eigenvalue(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[0])


def grover_trajectory(n: int, iterations: int) -> list:
    """sin^2((2k+1) asin(2^(-n/2))) for k = 0 .. iterations."""
    theta = math.asin(2.0 ** (-n / 2.0))
    return [math.sin((2 * k + 1) * theta) ** 2 for k in range(iterations + 1)]


def main(argv):
    spec = json.loads(open(argv[1], encoding="utf-8").read())
    for ops, path in zip(spec["circuits"], spec["outputs"], strict=True):
        final_state(spec["qubits"], ops).tofile(path)


if __name__ == "__main__":
    main(sys.argv)
