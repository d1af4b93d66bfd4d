"""Transversals of uniform linear hypergraphs: exact solvers, plane-derived
families, the special-hypergraph catalog, deficiency, and verification."""

from .core import (
    ArgumentError,
    CertificateError,
    Graph,
    Hypergraph,
    HypergraphError,
    bipartite_complement,
    complement_hypergraph,
    components,
    delete_vertices,
    dual_graph,
    graph_isomorphic,
    hypergraph_isomorphic,
    incidence_graph,
    is_k_uniform,
    is_linear,
    onh,
    shrink_remove,
)
from .algebra import (
    affine_plane,
    affine_residual,
    family_f,
    fano_complement,
    g30,
    gf,
    heawood,
    l_k,
    projective_plane,
    random_linear,
)
from .catalog import NAMES as SPECIAL_NAMES, special
from .deficiency import (
    Embedding,
    SpecialSet,
    check_key_theorem,
    check_lemma_specialset,
    defic_of_set,
    deficiency,
    estar,
    find_embeddings,
)
from .matching import (
    check_dual_identity,
    hall_violator,
    max_matching_bipartite,
    max_matching_general,
    tutte_berge_certificate,
)
from .probability import (
    ShrinkConfig,
    balanced_bound,
    binom,
    check_condition,
    claim_c3_envelope,
    claim_c4_fcheck,
    coefficient_threshold,
    final_bound,
    lemma_x2_check,
    mc_tau_profile,
    pr_transversal,
    pr_uncovered,
    shrink,
    threshold_scan,
)
from .solver import (
    TransversalResult,
    enumerate_min_transversals,
    exists_min_transversal,
    gamma_t,
    tau,
    tau_bruteforce,
)
from .verify import bound_check, obs61_suite, theorem_mainyy_check, tightness_scan

__version__ = "0.1.0"
