"""Distribution-to-distribution regression with RKHS mean embeddings.

Library layout:

- kernels: kernels, Gram matrices, empirical mean embeddings, MMD
- simplex_qp: active-set (Wolfe) solver on the probability simplex
- regression: the four embedding regression model classes
- sampler: basis fitting and approximate sampling from an embedding
- network: graphs, BFS distances, disruptions, detour scores
- pipeline: journey aggregation, input features, train/predict
- evaluation: scoring, k-fold protocol, model comparison, exports
- data_io: CSV loaders/writers and the synthetic scenario generator
- cli: the `distreg` command

"""

from .kernels import (
    GAUSSIAN,
    LAPLACE,
    Embedding,
    KernelConfig,
    SampleSet,
    combine,
    embed,
    embedding_gram,
    eval_kernel,
    gram,
    inner,
    mmd2,
)
from .network import Disruption, Graph, bfs_distance, disrupted_adjacency
from .pipeline import (
    DayCounts,
    InterferenceConfig,
    PerturbedObservation,
    build_basis,
    input_variable_samples,
    predict,
    resolve_rho,
    roi_exit_vector,
    train,
)
from .regression import (
    MixtureDistributionModel,
    MixtureEmbeddingModel,
    NonParametricOperator,
    OneParameterModel,
    TrainingPairs,
    apply_nonparametric,
    fit_mixture_distributions,
    fit_mixture_embeddings,
    fit_nonparametric,
    fit_one_parameter,
    predict_embedding,
)
from .sampler import Basis, FittedMixture, expectation_gap, fit_mixture_weights, sample_from_mixture
from .simplex_qp import SimplexQPProblem, SimplexQPSolution, project_simplex, solve

__version__ = "0.1.0"
