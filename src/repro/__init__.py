"""BCS-MPI reproduction: buffered-coscheduled MPI on a simulated cluster.

Reproduces *BCS-MPI: A New Approach in the System Software Design for
Large-Scale Parallel Computers* (SC'03): the three BCS core primitives,
the globally-coscheduled MPI runtime (time slices, microphases, NIC
threads), a production-style baseline MPI, the STORM resource-management
substrate, and the paper's complete evaluation.

Quickstart::

    from repro.harness import run_workload
    from repro.apps import sage

    result = run_workload(sage, n_ranks=62, backend="bcs",
                          params={"steps": 10})
    print(result.runtime_s, result.stats["messages_delivered"])

Layers (bottom to top): :mod:`repro.sim` (deterministic DES kernel),
:mod:`repro.network` (cluster/NIC/fabric), :mod:`repro.core` (the three
BCS primitives), :mod:`repro.bcs` (the BCS-MPI runtime),
:mod:`repro.mpi` (the MPI facade: the BCS API as a communicator, and the
baseline), :mod:`repro.storm` / :mod:`repro.noise` (system-software
substrates), :mod:`repro.apps` (workloads), :mod:`repro.harness`
(experiments).
"""

from .bcs import BcsConfig, BcsRuntime
from .harness import compare_backends, run_workload
from .mpi.baseline import BaselineConfig, BaselineRuntime
from .network import Cluster, ClusterSpec
from .storm import JobSpec

__version__ = "1.0.0"

__all__ = [
    "BaselineConfig",
    "BaselineRuntime",
    "BcsConfig",
    "BcsRuntime",
    "Cluster",
    "ClusterSpec",
    "JobSpec",
    "__version__",
    "compare_backends",
    "run_workload",
]
