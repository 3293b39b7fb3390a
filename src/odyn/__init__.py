"""Opinion-dynamics kernels for continuous-depth message passing on graphs."""

from .analysis import (
    BifurcationPoint,
    ClosedFormSolution,
    ScramblingReport,
    bifurcation_sweep,
    consensus_time,
    dirichlet_energy,
    grandpp_closed_form,
    opinion_diameter,
    reduced_equilibria,
    scrambling_check,
)
from .attention import (
    AttentionWeights,
    build_communication_attention,
    build_option_attention,
    init_attention_weights,
)
from .errors import NumericalError
from .graphs import (
    Graph,
    degrees,
    from_edge_list,
    laplacian,
    load_graph_json,
    load_matrix_csv,
    row_normalize,
    save_graph_json,
    save_matrix_csv,
)
from .integrate import Trajectory, euler_integrate, rk4_integrate
from .kernels import (
    BimpParams,
    SaturationKind,
    kernel_setup,
    nod_validity,
    rhs_bimp,
    rhs_bimp_filter_form,
    rhs_bimp_vectorized,
    rhs_gread,
    rhs_graphcon_tran,
    rhs_laplacian,
    rhs_laplacian_source,
    rhs_linear_opinion,
    rhs_reduced_1d,
    saturation_kind,
)
from .spectral import (
    KroneckerOperator,
    SpectralResult,
    kron_matvec,
    power_iteration,
    symmetric_eigendecomposition,
)
from .train import (
    GradReport,
    SbmTask,
    Tape,
    TrainConfig,
    accuracy,
    backward_grad,
    encoding_grad,
    finite_difference_grad,
    forward_unroll,
    gradient_check,
    gradient_upper_bound,
    jacobian_chain_norm,
    make_sbm_task,
    mse_loss,
    step_jacobian,
    train_sgd,
)

__version__ = "0.1.0"
