"""Stable matching instances, rotation posets, poset realizations under
restricted preference models, and pathwidth-parameterized exact counting,
sampling, and fair-matching selection.
"""

from types import ModuleType as _ModuleType

from .errors import CapExceededError, ParseError, ValidationError
from .instance import (
    MAN,
    WOMAN,
    Instance,
    Matching,
    RangeProfile,
    blocking_pairs,
    complete_preferences,
    compute_range,
    format_instance,
    gale_shapley,
    parse_instance,
    symmetric_shortlists,
)
from .rotations import (
    RULE_1,
    RULE_2,
    Rotation,
    RotationDigraph,
    matching_from_downset,
    rotation_digraph,
)
from .posets import (
    Dag,
    check_realization,
    format_dag,
    parse_dag,
    transitive_closure,
    transitive_reduction,
)
from .pathdecomp import (
    PathDecomposition,
    format_decomposition,
    parse_decomposition,
    validate_decomposition,
)
from .downsets import (
    count_downsets,
    downset_marginals,
    sample_downsets,
    uniform_int,
)
from .realize import (
    AttrRealization,
    AttributeProfile,
    ListRealization,
    bitonic_sequence,
    construct_instance,
    realize_attr6,
    realize_bounded3,
    realize_complete,
    realize_list2inf,
    realize_range,
)
from .fairness import (
    FairnessScores,
    count_stable_matchings,
    median_and_count,
    median_stable_matching,
    sample_stable_matchings,
)
from .oracles import (
    Extent,
    all_stable_matchings_bruteforce,
    balanced_bruteforce,
    construct_path_decomposition,
    downset_from_matching,
    eliminate,
    enumerate_downsets_bruteforce,
    evaluate_profiles,
    exposed_rotations,
    extent_of,
    is_downset,
    pathwidth_exact_tiny,
    poset_isomorphic_small,
    sex_equal_bruteforce,
    to_nice,
)

# the submodules are bound here by the imports above, but are not exported
__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
__version__ = "0.1.0"
