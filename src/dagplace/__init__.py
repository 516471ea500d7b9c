"""Device placement for computation DAGs.

Pipeline: graph loading/validation and co-location coarsening, rich node
features, a GCN encoder on a tape-based autograd core, edge-score-driven
graph parsing and pooling, a per-cluster placement policy, a deterministic
heterogeneous latency simulator, and a REINFORCE training loop tying them
together.
"""

from .autograd import Adam, Tape, Tensor
from .features import FeatureConfig, build_features
from .graph import (
    CompGraph,
    GraphError,
    OpNode,
    TopoOrder,
    colocate,
    load_graph,
    make_graph,
    save_graph,
    topo_sort,
    validate,
)
from .simulator import (
    CostModel,
    brute_force_optimal,
    load_cost_model,
    reward,
    save_cost_model,
    simulate,
    simulate_many,
    speedup,
)
from .training import (
    ModelConfig,
    TrainConfig,
    Trainer,
    TrainResult,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "CompGraph",
    "CostModel",
    "FeatureConfig",
    "GraphError",
    "ModelConfig",
    "OpNode",
    "Tape",
    "Tensor",
    "TopoOrder",
    "TrainConfig",
    "TrainResult",
    "Trainer",
    "brute_force_optimal",
    "build_features",
    "colocate",
    "load_cost_model",
    "load_graph",
    "make_graph",
    "reward",
    "save_cost_model",
    "save_graph",
    "simulate",
    "simulate_many",
    "speedup",
    "topo_sort",
    "validate",
]
