import ast
import types
from pathlib import Path

import smposet

# every name `from smposet import *` binds; a removal or an addition to the
# public API changes this set
PUBLIC = {
    "AttrRealization", "AttributeProfile", "CapExceededError", "Dag", "Extent",
    "FairnessScores", "Instance", "ListRealization", "MAN", "Matching",
    "ParseError", "PathDecomposition", "RULE_1", "RULE_2", "RangeProfile",
    "Rotation", "RotationDigraph", "ValidationError", "WOMAN",
    "all_stable_matchings_bruteforce", "balanced_bruteforce", "bitonic_sequence",
    "blocking_pairs", "check_realization", "complete_preferences", "compute_range",
    "construct_instance", "construct_path_decomposition", "count_downsets",
    "count_stable_matchings", "downset_from_matching", "downset_marginals",
    "eliminate", "enumerate_downsets_bruteforce", "evaluate_profiles",
    "exposed_rotations", "extent_of", "format_dag", "format_decomposition",
    "format_instance", "gale_shapley", "is_downset", "matching_from_downset",
    "median_and_count", "median_stable_matching", "parse_dag",
    "parse_decomposition", "parse_instance", "pathwidth_exact_tiny",
    "poset_isomorphic_small", "realize_attr6", "realize_bounded3",
    "realize_complete", "realize_list2inf", "realize_range", "rotation_digraph",
    "sample_downsets", "sample_stable_matchings", "sex_equal_bruteforce",
    "symmetric_shortlists", "to_nice", "transitive_closure",
    "transitive_reduction", "uniform_int", "validate_decomposition",
}


def test_public_names():
    assert set(smposet.__all__) == PUBLIC
    namespace: dict = {}
    exec("from smposet import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    assert not any(isinstance(v, types.ModuleType) for v in namespace.values())


def test_dp_internals_stay_in_downsets():
    # the plan, its caps and the count's table updates are read only inside
    # `downsets`; every other module calls its entry points
    internal = {
        "_plan", "_caps", "_insert", "_forget", "_step",
        "HARD_WIDTH_CAP", "MAX_STATES", "MAX_STORED",
    }
    src = Path(smposet.__file__).parent
    modules = sorted(m for m in src.glob("*.py") if m.name != "downsets.py")
    assert len(modules) > 5
    for module in modules:
        named = set()
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
        assert not named & internal, (module.name, sorted(named & internal))
    # inside `downsets`, one loop walks the plan: `_plan` is named in the
    # body of `_run` and of no other function, nor outside a function
    tree = ast.parse((src / "downsets.py").read_text(encoding="utf-8"))

    def names_plan(node):
        return sum(isinstance(n, ast.Name) and n.id == "_plan" for n in ast.walk(node))

    walkers = [
        f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and names_plan(f)
    ]
    assert walkers == ["_run"], walkers
    run = next(f for f in tree.body if getattr(f, "name", None) == "_run")
    assert names_plan(tree) == names_plan(run)
