"""Opinion-dynamics kernels for continuous-depth message passing on graphs."""

from .errors import NumericalError
from .graphs import load_graph_json, load_matrix_csv
from .kernels import kernel_setup
from .train import TrainConfig, make_sbm_task, train_sgd

__version__ = "0.1.0"
