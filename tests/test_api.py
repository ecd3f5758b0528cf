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


def _names(node) -> set[str]:
    """Every name, attribute and imported name used under node."""
    named = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            named.add(n.id)
        elif isinstance(n, ast.Attribute):
            named.add(n.attr)
        elif isinstance(n, ast.alias):
            named.add(n.name)
    return named


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
        named = _names(ast.parse(module.read_text(encoding="utf-8")))
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


# the oracle-only names: each is defined in `oracles` and in no other module
ORACLES = {
    "_successor", "exposed_rotations", "eliminate", "downset_from_matching",
    "all_stable_matchings_bruteforce", "enumerate_downsets_bruteforce", "is_downset",
    "poset_isomorphic_small", "to_nice", "Extent", "extent_of",
    "construct_path_decomposition", "pathwidth_exact_tiny", "MAX_MATCHINGS",
    "_bruteforce", "sex_equal_bruteforce", "balanced_bruteforce", "evaluate_profiles",
}


def _defines(tree) -> set[str]:
    """The classes and functions defined anywhere in tree, and the names
    bound at its top level.
    """
    out = {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        out.update(t.id for t in targets if isinstance(t, ast.Name))
    return out


def _imports_oracles(tree) -> bool:
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.module or "").endswith("oracles"):
            return True
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            if any(a.name.endswith("oracles") for a in n.names):
                return True
    return False


def test_oracles_stay_in_oracles():
    # the brute-force oracles live in `oracles`, which only the package
    # namespace and the CLI's `oracle` command import; the fast modules
    # define none of them, and the oracles reach the DP through public calls
    src = Path(smposet.__file__).parent
    trees = {m.name: ast.parse(m.read_text(encoding="utf-8")) for m in src.glob("*.py")}
    assert "oracles.py" in trees
    oracles = trees.pop("oracles.py")
    assert ORACLES <= _defines(oracles), sorted(ORACLES - _defines(oracles))
    for name, tree in sorted(trees.items()):
        if name not in ("cli.py", "__init__.py"):
            assert not _imports_oracles(tree), name
        assert not ORACLES & _defines(tree), (name, sorted(ORACLES & _defines(tree)))
    for node in ast.walk(oracles):
        if isinstance(node, ast.ImportFrom) and node.module in ("downsets", "fairness"):
            private = [a.name for a in node.names if a.name.startswith("_")]
            assert not private, (node.module, private)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in ("downsets", "fairness"):
                assert not node.attr.startswith("_"), (node.value.id, node.attr)
    # the fair brute force takes only the refusal count from the DP
    bodies = {f.name: f for f in oracles.body if isinstance(f, ast.FunctionDef)}
    for fn in ("_bruteforce", "sex_equal_bruteforce", "balanced_bruteforce"):
        pipeline = _names(bodies[fn]) & {"_prepare", "_count", "enumerate_downsets_bruteforce"}
        assert not pipeline, (fn, sorted(pipeline))
