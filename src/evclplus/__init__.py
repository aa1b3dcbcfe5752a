"""Continual learning with Fisher-weighted asymmetric variance regularization.

Variational continual training of mean-field Gaussian MLPs, plus the
baseline methods (plain variational training, quadratic-anchor EWC, and
coreset variants) and a benchmark harness that produces accuracy tables
and plots over task sequences.
"""

from .bayes_mlp import BayesMlp, NetworkSpec, init_network, posterior_predict
from .continual import Method, TrainConfig, forgetting_measure, run_task_sequence
from .data import Dataset, TaskStream, load_idx, make_permuted_tasks, \
    make_split_tasks, make_synthetic_tasks
from .harness import ExperimentConfig, parse_config, run_experiment
from .numerics import SeededRng

__version__ = "0.1.0"

__all__ = [
    "BayesMlp", "NetworkSpec", "init_network", "posterior_predict",
    "Method", "TrainConfig", "forgetting_measure", "run_task_sequence",
    "Dataset", "TaskStream", "load_idx", "make_permuted_tasks",
    "make_split_tasks", "make_synthetic_tasks",
    "ExperimentConfig", "parse_config", "run_experiment",
    "SeededRng", "__version__",
]
