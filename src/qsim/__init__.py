"""qsim: a desk-scale quantum circuit simulation toolkit.

Library layout:

- :mod:`qsim.numerics`    dense complex linear algebra (matrix checks, LAPACK
  Hermitian eigensolver, spectral matrix exponential)
- :mod:`qsim.qstate`      state vectors, density matrices, ensembles
- :mod:`qsim.gates`       the fixed gate library (X Y Z S T H SWAP CNOT)
- :mod:`qsim.circuit`     circuit IR, statevector/density execution, unitaries
- :mod:`qsim.measure`     Born-rule probabilities, collapse, seeded sampling
- :mod:`qsim.observables` expectation values, variance, uncertainty product
- :mod:`qsim.entangle`    partial trace, entanglement entropy
- :mod:`qsim.evolve`      Hamiltonian time evolution
- :mod:`qsim.algorithms`  Bell pair and Grover search demonstrators
- :mod:`qsim.qcf`         the .qcf circuit text format
- :mod:`qsim.cli`         the ``qsim`` command-line tool
"""

from .circuit import Circuit, Instruction, apply, apply_density, embed, unitary_of
from .errors import QsimError
from .gates import Gate, standard_gate
from .measure import (
    MeasurementRecord,
    OutcomeDistribution,
    ShotHistogram,
    measure_all,
    measure_qubit,
    probabilities,
    probabilities_density,
    sample,
)
from .qstate import (
    DensityMatrix,
    StateVector,
    basis_state,
    from_amplitudes,
    from_ensemble,
    inner_product,
    normalize,
    purity,
    to_density,
    zero_state,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "DensityMatrix",
    "Gate",
    "Instruction",
    "MeasurementRecord",
    "OutcomeDistribution",
    "QsimError",
    "ShotHistogram",
    "StateVector",
    "apply",
    "apply_density",
    "basis_state",
    "embed",
    "from_amplitudes",
    "from_ensemble",
    "inner_product",
    "measure_all",
    "measure_qubit",
    "normalize",
    "probabilities",
    "probabilities_density",
    "purity",
    "sample",
    "standard_gate",
    "to_density",
    "unitary_of",
    "zero_state",
    "__version__",
]
