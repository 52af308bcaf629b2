"""Standard-setting clustering algorithms (the paper's GkMedianAlg_γ /
GkMeansAlg_γ / Dk*Alg_γ black boxes) over small weighted point sets."""
from repro.clustering.cost import weighted_cost
from repro.clustering.lloyd import check_args, cluster

__all__ = ["check_args", "cluster", "weighted_cost"]
