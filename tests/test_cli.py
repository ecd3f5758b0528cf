import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from smposet import (
    Dag,
    FairnessScores,
    ParseError,
    ValidationError,
    all_stable_matchings_bruteforce,
    check_realization,
    format_instance,
    matching_from_downset,
    parse_dag,
    parse_decomposition,
    parse_instance,
    realize_complete,
    rotation_digraph,
)
from smposet import cli
from smposet.cli import main
from smposet.fairness import _prepare
from smposet.pathdecomp import _layout_bags

from conftest import DATA, grid_poset, minrank_instances, stable_matchings_by_matching_scan


@pytest.fixture()
def workdir(tmp_path):
    for name in (
        "example_rotation_poset.sm",
        "diamond.dag",
        "diamond_list.dag",
        "diamond.pd",
        "diamond_colored.txt",
        "chain3.dag",
        "empty.dag",
        "empty.pd",
    ):
        shutil.copy(DATA / name, tmp_path / name)
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_instance(workdir, capsys):
    code, out, _ = run(capsys, "count", "--instance", workdir / "example_rotation_poset.sm")
    assert code == 0
    assert out.strip() == "4"


def test_count_multiple_instances_with_jobs(workdir, capsys):
    a = workdir / "example_rotation_poset.sm"
    code, out, _ = run(capsys, "count", "--instance", a, a)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 and all(line.endswith(": 4") for line in lines)


def test_count_dag_with_decomp(workdir, capsys):
    code, out, _ = run(
        capsys,
        "count",
        "--dag", workdir / "diamond.dag",
        "--decomp", workdir / "diamond.pd",
    )
    assert code == 0
    # downsets of the diamond: {}, {1}, {1,2}, {1,3}, {1,2,3}, all, = 6
    assert out.strip() == "6"


def test_count_empty_dag(workdir, capsys):
    code, out, _ = run(
        capsys, "count", "--dag", workdir / "empty.dag", "--decomp", workdir / "empty.pd"
    )
    assert code == 0
    assert out.strip() == "1"


def test_realize_then_verify_roundtrip(workdir, capsys):
    out_path = workdir / "built.sm"
    for model in ("generic", "complete", "bounded3", "attr6", "list2inf"):
        code, _, _ = run(
            capsys,
            "realize", "--model", model,
            "--poset", workdir / "chain3.dag",
            "-o", out_path,
        )
        assert code == 0
        code, out, _ = run(
            capsys, "verify", "--poset", workdir / "chain3.dag", "--instance", out_path
        )
        assert code == 0 and out.strip() == "ok"


def test_realize_generic_with_coloring_matches_bounded3(workdir, capsys):
    plain = workdir / "plain.sm"
    colored = workdir / "colored.sm"
    run(capsys, "realize", "--model", "bounded3", "--poset", workdir / "diamond.dag",
        "-o", plain)
    code, _, _ = run(
        capsys,
        "realize", "--model", "generic",
        "--poset", workdir / "diamond.dag",
        "--coloring", workdir / "diamond_colored.txt",
        "-o", colored,
    )
    assert code == 0
    # the pairwise-distinct coloring is exactly the bounded3 coloring
    assert plain.read_text() == colored.read_text()


@pytest.mark.parametrize(
    "extra, message",
    [
        ("4 5 1\n", "coloring line for a non-edge: '4 5 1'"),
        ("1 2 5\n", "duplicate coloring line for edge (1, 2)"),
    ],
)
def test_realize_coloring_rejects_stray_lines(workdir, capsys, extra, message):
    coloring = workdir / "stray.txt"
    coloring.write_text((workdir / "diamond_colored.txt").read_text() + extra)
    out_path = workdir / "colored.sm"
    code, out, err = run(
        capsys,
        "realize", "--model", "generic",
        "--poset", workdir / "diamond.dag",
        "--coloring", coloring,
        "-o", out_path,
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_path.exists()


def test_realize_range_needs_decomp(workdir, capsys):
    code, _, err = run(
        capsys,
        "realize", "--model", "range",
        "--poset", workdir / "diamond.dag",
        "-o", workdir / "r.sm",
    )
    assert code == 2
    assert "decomp" in err


def test_realize_range_with_decomp(workdir, capsys):
    out_path = workdir / "range.sm"
    code, _, _ = run(
        capsys,
        "realize", "--model", "range",
        "--poset", workdir / "diamond.dag",
        "--decomp", workdir / "diamond.pd",
        "-o", out_path,
    )
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "--poset", workdir / "diamond.dag", "--instance", out_path
    )
    assert code == 0 and out.strip() == "ok"


def test_realize_range_keeps_internal_errors(workdir, capsys, monkeypatch):
    # only an invalid decomposition is reported as one
    def fail(g, x):
        raise ValidationError("internal error: completion changed the shortlists")

    monkeypatch.setattr(cli, "realize_range", fail)
    code, out, err = run(
        capsys,
        "realize", "--model", "range",
        "--poset", workdir / "diamond.dag",
        "--decomp", workdir / "diamond.pd",
        "-o", workdir / "range.sm",
    )
    assert (code, out) == (2, "")
    assert err == "error: internal error: completion changed the shortlists\n"


def test_realize_sidecars(workdir, capsys):
    out_path = workdir / "a.sm"
    code, _, _ = run(
        capsys,
        "realize", "--model", "attr6", "--poset", workdir / "chain3.dag", "-o", out_path,
    )
    assert code == 0
    profiles = (workdir / "a.sm.profiles").read_text()
    assert profiles.startswith("point m[")
    assert "weights" in profiles
    code, _, _ = run(
        capsys,
        "realize", "--model", "list2inf", "--poset", workdir / "chain3.dag", "-o", out_path,
    )
    masters = (workdir / "a.sm.masters").read_text()
    assert masters.splitlines()[0].startswith("LM1:")


def test_verify_mismatch_exits_2(workdir, capsys):
    out_path = workdir / "anti.sm"
    (workdir / "anti.dag").write_text("DAG 3 0\n")
    code, _, _ = run(
        capsys, "realize", "--model", "complete", "--poset", workdir / "anti.dag", "-o", out_path
    )
    assert code == 0
    code, _, err = run(
        capsys, "verify", "--poset", workdir / "chain3.dag", "--instance", out_path
    )
    assert code == 2
    assert "mismatch" in err


def test_analyze_output(workdir, capsys):
    code, out, _ = run(
        capsys, "analyze", "--instance", workdir / "example_rotation_poset.sm",
        "--dot", workdir / "g.dot",
    )
    assert code == 0
    assert "rotations 3" in out
    assert "rho1: (m1,w1)(m2,w2)" in out
    assert "rho1 -> rho2 rule=2" in out
    assert "rho2 -> rho3 rule=12" in out
    assert "range 4" in out
    assert "minrank w1: 1" in out
    # the chain rho1 -> rho2 -> rho3 cut along its order
    assert "decomposition width 1 bags 6" in out
    assert (workdir / "g.dot").read_text().startswith("digraph")


def test_sample_deterministic_and_seeded(workdir, capsys):
    args = (
        "sample",
        "--instance", workdir / "example_rotation_poset.sm",
        "--seed", "42",
        "--draws", "5",
    )
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    blocks = out1.strip().split("\n\n")
    assert len(blocks) == 5
    for block in blocks:
        assert len(block.splitlines()) == 4


def test_sample_rejects_nonpositive_draws(workdir, capsys):
    for draws in ("0", "-3"):
        code, out, err = run(
            capsys,
            "sample", "--instance", workdir / "example_rotation_poset.sm",
            "--seed", "1", "--draws", draws,
        )
        assert code == 2
        assert out == ""
        assert "draws" in err


def test_sample_requires_seed(workdir, capsys):
    code, _, _ = run(
        capsys, "sample", "--instance", workdir / "example_rotation_poset.sm"
    )
    assert code == 1


def test_median_output(workdir, capsys):
    code, out, _ = run(capsys, "median", "--instance", workdir / "example_rotation_poset.sm")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:4] == ["m1 w2", "m2 w1", "m3 w3", "m4 w4"]
    assert lines[4] == "N 4"


def test_fair_output(workdir, capsys):
    code, out, _ = run(
        capsys,
        "fair", "--instance", workdir / "example_rotation_poset.sm",
        "--objective", "sexequal",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "delta 3" in lines
    assert lines[0] == "m1 w2"


def test_fair_past_the_listing_cap(tmp_path, capsys):
    # 2^40 stable matchings, more than the brute force lists. The rotations
    # are independent, so the reachable scores are the man-optimal ones plus
    # a subset sum of the 40 single-rotation score changes
    inst = realize_complete(Dag(40, []))
    path = tmp_path / "antichain40.sm"
    path.write_text(format_instance(inst))
    dg = rotation_digraph(inst)
    base = FairnessScores.of(inst, dg.man_optimal)
    sums = {(0, 0)}
    for i in range(40):
        one = FairnessScores.of(inst, matching_from_downset(inst, dg, {i}))
        dm, dw = one.s_men - base.s_men, one.s_women - base.s_women
        sums |= {(a + dm, b + dw) for a, b in sums}
    reached = {(base.s_men + a, base.s_women + b) for a, b in sums}
    for objective, key, want in (
        ("sexequal", "delta", min(abs(sm - sw) for sm, sw in reached)),
        ("balanced", "beta", min(max(sm, sw) for sm, sw in reached)),
    ):
        code, out, err = run(capsys, "fair", "--instance", path, "--objective", objective)
        assert code == 0 and err == ""
        got = dict(line.split() for line in out.splitlines()[inst.n_men:])
        assert got[key] == str(want)
        assert (int(got["SM"]), int(got["SW"])) in reached


def test_fair_on_incomplete_instances(workdir, capsys):
    # scores are defined only when every agent is matched; by the rural
    # hospitals theorem that holds for all stable matchings or for none
    unmatched = workdir / "unmatched.sm"
    unmatched.write_text("SM 2 2\nm1: w1\nm2: w1\nw1: m1 m2\nw2:\n")
    path = DATA / "golden_list_incomplete.sm"
    inst = parse_instance(path.read_text())
    assert not inst.is_complete
    scores = [FairnessScores.of(inst, mu) for mu in stable_matchings_by_matching_scan(inst)]
    for objective, key in (("sexequal", "delta"), ("balanced", "beta")):
        code, out, err = run(capsys, "fair", "--instance", unmatched, "--objective", objective)
        assert (code, out, err) == (2, "", "error: scores need every man matched\n")
        code, out, err = run(capsys, "fair", "--instance", path, "--objective", objective)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == inst.n_men + 4
        assert f"{key} {min(getattr(s, key) for s in scores)}" in lines


def test_oracle_count(workdir, capsys):
    code, out, _ = run(
        capsys, "oracle", "count", "--instance", workdir / "example_rotation_poset.sm"
    )
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "oracle", "count", "--dag", workdir / "chain3.dag")
    assert code == 0 and out.strip() == "4"
    path = workdir / "example_rotation_poset.sm"
    inst = parse_instance(path.read_text())
    code, out, err = run(capsys, "oracle", "matchings", "--instance", path)
    blocks = [
        "".join(f"{inst.men_labels[m]} {inst.women_labels[w]}\n" for m, w in mu.sorted_pairs())
        for mu in all_stable_matchings_bruteforce(inst)
    ]
    assert len(blocks) == 4
    assert (code, out, err) == (0, "\n".join(blocks), "")


def test_oracle_pathwidth(workdir, capsys):
    code, out, _ = run(
        capsys, "oracle", "pathwidth", "--dag", workdir / "diamond.dag",
        "-o", workdir / "d.pd",
    )
    assert code == 0
    assert out.strip() == "2"
    x_text = (workdir / "d.pd").read_text()
    assert x_text.startswith("PD ")


def test_analyze_incomplete_instance(workdir, capsys):
    path = workdir / "partial.sm"
    path.write_text("SM 2 2\nm1: w1\nm2: w1 w2\nw1: m1 m2\nw2: m2\n")
    code, out, _ = run(capsys, "analyze", "--instance", path)
    assert code == 0
    assert out.endswith("range n/a (incomplete instance)\ndecomposition width -1 bags 0\n")


def test_analyze_prints_the_cut_the_dp_runs_on(tmp_path, capsys):
    # complete and incomplete instances alike: the width of the cut along
    # `_prepare`'s order, and 2r bags, the order's inserts and forgets
    for i, inst in enumerate(minrank_instances()):
        path = tmp_path / f"{i}.sm"
        path.write_text(format_instance(inst))
        code, out, _ = run(capsys, "analyze", "--instance", path)
        dg, g, order = _prepare(inst)
        width = _layout_bags(g, order).width
        assert code == 0
        assert f"decomposition width {width} bags {2 * len(dg.rotations)}" in out.splitlines()


def test_instance_ops_walk_no_bags(workdir, capsys, monkeypatch):
    # the instance ops hand the DP the order they chose, so none of them
    # walks a decomposition, and each answers as it does unpatched
    from smposet import downsets

    path = workdir / "example_rotation_poset.sm"
    ops = [
        ("count", "--instance", path),
        ("sample", "--instance", path, "--seed", "3", "--draws", "4"),
        ("median", "--instance", path),
        ("fair", "--instance", path, "--objective", "sexequal"),
        ("fair", "--instance", path, "--objective", "balanced"),
        ("analyze", "--instance", path),
    ]
    usual = [run(capsys, *argv) for argv in ops]
    assert all(code == 0 and out for code, out, _err in usual)

    def refuse(*_args, **_kwargs):
        raise AssertionError("an instance op walked a decomposition")

    monkeypatch.setattr(downsets, "_insert_order", refuse)
    assert [run(capsys, *argv) for argv in ops] == usual


def test_count_instance_width_refusal_exits_3(tmp_path, capsys, monkeypatch):
    from smposet import downsets

    path = tmp_path / "grid.sm"
    path.write_text(format_instance(realize_complete(grid_poset(6))))
    assert run(capsys, "count", "--instance", path) == (0, "924\n", "")
    monkeypatch.setattr(downsets, "HARD_WIDTH_CAP", 4)
    assert run(capsys, "count", "--instance", path) == (
        3, "", "cap exceeded: 6 live vertices exceed width cap 4\n"
    )


def test_fair_state_cap_exits_3(tmp_path, capsys, monkeypatch):
    from smposet import downsets

    path = tmp_path / "grid.sm"
    path.write_text(format_instance(realize_complete(grid_poset(4))))
    monkeypatch.setattr(downsets, "MAX_STATES", 88)
    assert run(capsys, "count", "--instance", path) == (0, "70\n", "")
    for objective, states in (("sexequal", 98), ("balanced", 100)):
        assert run(capsys, "fair", "--instance", path, "--objective", objective) == (
            3, "", f"cap exceeded: {states} DP states exceed cap 88\n"
        )


def test_sample_and_median_stored_state_cap_exits_3(tmp_path, capsys, monkeypatch):
    # sample and median store the table before each of the 16 forget steps
    # of the grid's order, 133 states in all; the count stores none
    from smposet import downsets

    path = tmp_path / "grid.sm"
    path.write_text(format_instance(realize_complete(grid_poset(4))))
    monkeypatch.setattr(downsets, "MAX_STORED", 100)
    assert run(capsys, "count", "--instance", path) == (0, "70\n", "")
    for argv in (("sample", "--seed", "3", "--draws", "2"), ("median",)):
        assert run(capsys, argv[0], "--instance", path, *argv[1:]) == (
            3, "", "cap exceeded: 109 stored DP states exceed cap 100\n"
        )
    monkeypatch.setattr(downsets, "MAX_STORED", 133)
    for argv in (("sample", "--seed", "3", "--draws", "2"), ("median",)):
        assert run(capsys, argv[0], "--instance", path, *argv[1:])[0] == 0


def test_count_dag_accepts_non_nice_decomposition(workdir, capsys):
    pd = workdir / "single.pd"
    pd.write_text("PD 1\n1 2 3 4\n")
    code, out, _ = run(
        capsys, "count", "--dag", workdir / "diamond.dag", "--decomp", pd
    )
    assert code == 0 and out.strip() == "6"


def test_parse_error_exit_code(workdir, capsys):
    bad = workdir / "bad.sm"
    bad.write_text("SM 1 1\nm1: w1 w1\nw1: m1\n")
    code, _, err = run(capsys, "count", "--instance", bad)
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "count")[0] == 2  # no inputs given
    assert run(capsys, "nonsense")[0] == 1


def test_negative_bag_count_exits_2(workdir, capsys):
    with pytest.raises(ParseError, match="^negative bag count$"):
        parse_decomposition("PD -1\n")
    neg = workdir / "neg.pd"
    neg.write_text("PD -1\n")
    code, out, err = run(capsys, "count", "--dag", workdir / "diamond.dag", "--decomp", neg)
    assert (code, out) == (2, "")
    assert err == "error: negative bag count\n"


def test_input_that_is_not_utf8_exits_2(workdir, capsys):
    bad = workdir / "latin.sm"
    bad.write_bytes(b"SM 1 1\nm1: w1\xff\nw1: m1\n")
    code, out, err = run(capsys, "count", "--instance", bad)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode")


@pytest.mark.parametrize(
    "argv",
    [
        ("realize", "--model", "complete", "--poset", "{dir}/diamond.dag", "-o", "{dir}/no/a.sm"),
        ("analyze", "--instance", "{dir}/example_rotation_poset.sm", "--dot", "{dir}/no/g.dot"),
        ("oracle", "pathwidth", "--dag", "{dir}/diamond.dag", "-o", "{dir}/no/d.pd"),
    ],
)
def test_unwritable_output_exits_2(workdir, capsys, argv):
    argv = [a.format(dir=workdir) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: cannot write {workdir}/no/")
    assert not (workdir / "no").exists()


@pytest.mark.parametrize(("model", "suffix"), [("attr6", ".profiles"), ("list2inf", ".masters")])
def test_unwritable_sidecar_exits_2(workdir, capsys, model, suffix):
    out_path = workdir / "a.sm"
    Path(str(out_path) + suffix).mkdir()
    code, _, err = run(
        capsys, "realize", "--model", model, "--poset", workdir / "chain3.dag", "-o", out_path
    )
    assert code == 2
    assert err.startswith(f"error: cannot write {out_path}{suffix}: ")


def test_instance_and_dag_together_are_a_usage_error(workdir, capsys):
    inst, dag = workdir / "example_rotation_poset.sm", workdir / "diamond.dag"
    for argv in (
        ("count", "--instance", inst, "--dag", dag, "--decomp", workdir / "diamond.pd"),
        ("count", "--dag", dag, "--decomp", workdir / "diamond.pd", "--instance", inst),
        ("oracle", "count", "--instance", inst, "--dag", dag),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "not allowed with argument" in err
    assert run(capsys, "oracle", "count")[0] == 2  # no input given
    assert run(capsys, "count", "--dag", dag) == (2, "", "error: count --dag requires --decomp\n")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("count", "--instance", "{dir}/example_rotation_poset.sm", "--decomp", "{dir}/none.pd"),
         "argument --decomp: not allowed with argument --instance"),
        (("count", "--decomp", "{dir}/none.pd", "--instance", "{dir}/example_rotation_poset.sm"),
         "argument --decomp: not allowed with argument --instance"),
    ] + [
        (("realize", "--model", model, "--poset", "{dir}/diamond.dag", flag, value,
          "-o", "{dir}/a.sm"),
         f"argument {flag}: not allowed with --model {model}")
        for flag, value, reader in (
            ("--decomp", "{dir}/none.pd", "range"),
            ("--coloring", "{dir}/none.txt", "generic"),
            ("--master-side", "m", "list2inf"),
        )
        for model in ("generic", "complete", "bounded3", "attr6", "list2inf", "range")
        if model != reader
    ],
)
def test_options_the_command_would_not_read_are_usage_errors(workdir, capsys, argv, message):
    # refused before any file is read or written
    code, out, err = run(capsys, *(a.format(dir=workdir) for a in argv))
    assert (code, out) == (1, "")
    assert err.endswith(f": error: {message}\n")
    assert not (workdir / "a.sm").exists()


def test_list2inf_master_side_defaults_to_men(workdir, capsys):
    outs = []
    for extra in ((), ("--master-side", "m"), ("--master-side", "w")):
        out_path = workdir / f"l{len(outs)}.sm"
        code, _, _ = run(
            capsys, "realize", "--model", "list2inf", "--poset", workdir / "diamond.dag",
            *extra, "-o", out_path,
        )
        assert code == 0
        outs.append((out_path.read_text(), Path(f"{out_path}.masters").read_text()))
    assert outs[0] == outs[1] != outs[2]


def test_count_dag_antichain_in_one_bag(workdir, capsys):
    # every vertex is forgotten right after its insert, so the table never
    # holds more than two states; counting each bag slot would need 2^25
    dag, pd = workdir / "anti25.dag", workdir / "anti25.pd"
    dag.write_text("DAG 25 0\n")
    pd.write_text("PD 1\n" + " ".join(map(str, range(1, 26))) + "\n")
    assert run(capsys, "count", "--dag", dag, "--decomp", pd) == (0, "33554432\n", "")


def _write_dag(path, n, edges):
    path.write_text(f"DAG {n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))


def test_count_dag_width_cap_reads_live_vertices(workdir, capsys):
    # both DAGs given as one bag of 2000: the width-3 ladder keeps four
    # vertices live, the chain with a common sink keeps every vertex live
    # until the sink
    n = 2000
    pd = workdir / "one.pd"
    pd.write_text("PD 1\n" + " ".join(map(str, range(1, n + 1))) + "\n")
    ladder, sink = workdir / "ladder.dag", workdir / "sink.dag"
    _write_dag(ladder, n, [(i, i + d) for i in range(1, n + 1) for d in (1, 2, 3) if i + d <= n])
    _write_dag(sink, n, [(i, i + 1) for i in range(1, n - 1)] + [(i, n) for i in range(1, n)])
    assert run(capsys, "count", "--dag", ladder, "--decomp", pd) == (0, "2001\n", "")
    assert run(capsys, "count", "--dag", sink, "--decomp", pd) == (
        3, "", "cap exceeded: 32 live vertices exceed width cap 30\n"
    )


def test_invalid_decomposition_with_low_cap_exits_2(workdir, capsys, monkeypatch):
    # the decomposition is checked before the DP runs, so a cap that the
    # first insert would pass does not hide the missing edge cover
    from smposet import downsets

    monkeypatch.setattr(downsets, "MAX_STATES", 1)
    pd = workdir / "bad.pd"
    pd.write_text("PD 2\n1 2 3\n4\n")
    assert run(capsys, "count", "--dag", workdir / "diamond.dag", "--decomp", pd) == (
        2, "", "error: decomposition is not valid for the DAG\n"
    )


def test_realize_output_reparses_and_verifies(workdir, capsys):
    out_path = workdir / "again.sm"
    code, _, _ = run(
        capsys,
        "realize", "--model", "complete", "--poset", workdir / "diamond.dag", "-o", out_path,
    )
    assert code == 0
    inst = parse_instance(out_path.read_text())
    g = parse_dag((workdir / "diamond.dag").read_text())
    assert check_realization(g, inst)


@pytest.mark.parametrize(
    "bags",
    [
        "1 2 3\n2 3 4\n1\n",  # vertex 1 reappears: not convex
        "1 2 3\n2 3\n",  # vertex 4 missing
        "1 2 3\n4\n",  # edges 2->4 and 3->4 in no bag
        "1 2 3\n2 3 4 5\n",  # vertex 5 out of range
    ],
)
def test_invalid_decomposition_messages(workdir, capsys, bags):
    pd = workdir / "bad.pd"
    pd.write_text(f"PD {bags.count(chr(10))}\n{bags}")
    code, out, err = run(
        capsys, "count", "--dag", workdir / "diamond.dag", "--decomp", pd
    )
    assert (code, out, err) == (2, "", "error: decomposition is not valid for the DAG\n")
    out_path = workdir / "range.sm"
    code, out, err = run(
        capsys,
        "realize", "--model", "range", "--poset", workdir / "diamond.dag",
        "--decomp", pd, "-o", out_path,
    )
    assert (code, out, err) == (2, "", "error: decomposition is not valid for the poset\n")
    assert not out_path.exists()


def test_count_median_sample_on_incomplete_instance(capsys):
    # the bounded3 realization of the diamond: six stable matchings
    path = DATA / "golden_list_incomplete.sm"
    inst = parse_instance(path.read_text())
    assert not inst.is_complete
    code, out, err = run(capsys, "count", "--instance", path)
    assert (code, out, err) == (0, "6\n", "")
    code, out, err = run(capsys, "median", "--instance", path)
    assert code == 0 and err == "" and out.endswith("N 6\n")
    assert len(out.splitlines()) == inst.n_men + 1
    code, out, err = run(capsys, "sample", "--instance", path, "--seed", "3", "--draws", "4")
    assert code == 0 and err == ""
    assert len(out.split("\n\n")) == 4


@pytest.mark.parametrize(
    "text, side",
    [("SM 0 2\nw1:\nw2:\n", "woman"), ("SM 2 0\nm1:\nm2:\n", "man")],
)
def test_instances_with_agents_on_one_side(tmp_path, capsys, text, side):
    # the one stable matching is the empty one, as for SM 0 0
    path = tmp_path / "one_side.sm"
    path.write_text(text)
    empty = tmp_path / "empty.sm"
    empty.write_text("SM 0 0\n")
    for argv in (["count"], ["median"], ["sample", "--seed", "5", "--draws", "2"]):
        want = run(capsys, *argv, "--instance", empty)
        assert want[0] == 0
        assert run(capsys, *argv, "--instance", path) == want
    code, out, err = run(capsys, "analyze", "--instance", path)
    assert code == 0 and err == "" and "rotations 0\n" in out
    for objective in ("sexequal", "balanced"):
        code, out, err = run(capsys, "fair", "--instance", path, "--objective", objective)
        assert (code, out, err) == (2, "", f"error: scores need every {side} matched\n")


def test_python_m_smposet_runs_the_cli(capsys):
    paths = sorted(str(p) for p in DATA.glob("*.sm"))
    want = run(capsys, "count", "--instance", *paths)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "smposet", "count", "--instance", *paths],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert want[0] == 0 and want[1].count("\n") == len(paths) > 1
    assert (done.returncode, done.stdout, done.stderr) == want


def test_count_dag_relabelled_and_cyclic(workdir, capsys):
    # a band DAG and its window decomposition, then both renamed by one
    # permutation, so the edges no longer ascend and the cycle check runs
    # Kahn's sweep; then a file whose reversed edge closes a cycle
    rng = random.Random(251)
    n, window = 300, 4
    edges = [(i, j) for i in range(1, n) for j in range(i + 1, min(i + window, n) + 1)]
    edges = [e for e in edges if rng.random() < 0.5]
    bags = [range(i, min(i + window, n) + 1) for i in range(1, n - window + 1)]
    name = rng.sample(range(1, n + 1), n)
    moved = [(name[u - 1], name[v - 1]) for u, v in edges]
    rng.shuffle(moved)
    moved_bags = [[name[v - 1] for v in b] for b in bags]
    counts = []
    for stem, es, bs in (("band", edges, bags), ("moved", moved, moved_bags)):
        dag, pd = workdir / f"{stem}.dag", workdir / f"{stem}.pd"
        _write_dag(dag, n, es)
        pd.write_text(f"PD {len(bs)}\n" + "".join(" ".join(map(str, b)) + "\n" for b in bs))
        code, out, err = run(capsys, "count", "--dag", dag, "--decomp", pd)
        assert (code, err) == (0, "")
        counts.append(out)
    assert counts[0] == counts[1] and int(counts[0]) > n
    cyclic = workdir / "cyclic.dag"
    _write_dag(cyclic, 3, [(1, 2), (2, 3), (3, 1)])
    assert run(capsys, "count", "--dag", cyclic, "--decomp", workdir / "band.pd") == (
        2, "", "error: graph contains a cycle\n"
    )


def test_count_dag_restores_the_collector(workdir, capsys, monkeypatch):
    # count --dag pauses the cyclic collector while it reads and counts, and
    # leaves it as the caller had it, whether the count answers or is refused
    import gc

    from smposet import downsets

    dag, pd = workdir / "diamond.dag", workdir / "diamond.pd"
    bad_edge = workdir / "bad_edge.dag"
    bad_edge.write_text("DAG 4 1\n1 x\n")
    invalid = workdir / "invalid.pd"
    invalid.write_text("PD 1\n1 2\n")
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            for d, x, code in ((dag, pd, 0), (bad_edge, pd, 2), (dag, invalid, 2)):
                assert run(capsys, "count", "--dag", d, "--decomp", x)[0] == code
                assert gc.isenabled() is enabled
            with monkeypatch.context() as patch:
                patch.setattr(downsets, "HARD_WIDTH_CAP", 1)
                assert run(capsys, "count", "--dag", dag, "--decomp", pd) == (
                    3, "", "cap exceeded: 3 live vertices exceed width cap 1\n"
                )
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_count_dag_leaves_no_cyclic_garbage(workdir, capsys):
    # the premise of the collector's pause: what count --dag reads and
    # counts with is freed by refcounting alone. The collector stays off
    # around the run, so no collection can hide a cycle before the check.
    import gc

    n = 2000
    ladder, ladder_pd = workdir / "ladder.dag", workdir / "ladder.pd"
    _write_dag(ladder, n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, min(i + 4, n + 1))])
    ladder_pd.write_text(
        f"PD {n}\n" + "".join(" ".join(map(str, range(i, min(i + 4, n + 1)))) + "\n"
                              for i in range(1, n + 1))
    )
    was, debug = gc.isenabled(), gc.get_debug()
    try:
        for dag, pd, want in (
            (workdir / "diamond.dag", workdir / "diamond.pd", "6\n"),
            (ladder, ladder_pd, f"{n + 1}\n"),
        ):
            gc.collect()
            gc.disable()
            assert run(capsys, "count", "--dag", dag, "--decomp", pd) == (0, want, "")
            gc.set_debug(gc.DEBUG_SAVEALL)
            found = gc.collect()
            gc.set_debug(debug)
            assert (found, gc.garbage) == (0, [])
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        gc.enable() if was else gc.disable()
