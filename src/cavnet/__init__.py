"""Quantum-correlation propagation in a fiber-coupled cavity-QED network.

Six polariton qubits in two fiber-linked three-cavity chains, evolved under
a zero-temperature microscopic master equation, with the full correlation
toolbox: concurrence, entanglement of formation, quantum discord, tangle
bounds and monogamy diagnostics.
"""

from .qla import (
    DensityMatrix,
    Operator,
    density,
    ket,
    partial_trace,
    pure,
    purity,
    von_neumann_entropy,
)
from .model import (
    InitialStateSpec,
    NetworkConfig,
    build_effective_chain_hamiltonian,
    build_initial_state,
    effective_coupling,
)
from .davies import (
    DaviesChannel,
    GeneratorSpec,
    build_davies_channels,
    chain_generator,
    site_lowering_operator,
)
from .dynamics import (
    Trajectory,
    evolve,
    evolve_factorized,
    sample_grid,
)
from .correlations import (
    MeasurementBasis,
    PairSelector,
    classical_correlation,
    concurrence,
    concurrence_series,
    delta_fanchini,
    eof_from_concurrence,
    monogamy_residual,
    mutual_information,
    one_tangle,
    one_tangle_series,
    pair_state,
    quantum_discord,
    tangle_bounds,
    tangle_pure,
)
from .runner import (
    PeakEvent,
    ScenarioSpec,
    Table,
    peak_sequence,
    run_scenario,
    transmission_details,
)

__version__ = "0.1.0"
