"""Fast tests of the benchmark itself (not part of tier-1):

    python3 -m pytest -q bench/test_bench.py

Every workload runs to its end at a tiny size, timed and traced, and each
reference check rejects a deliberately wrong answer.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True, scope="module")
def _out_dir():
    run.OUT.mkdir(exist_ok=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_timed_run_tiny(workload):
    result = run.timed_run(workload, seed=3, seconds=0, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.SETUP_SAMPLES + len(workloads.queries(workload, 3, tiny=True))
    assert set(result["metrics"]) == {"setup_s", "workload_s", "query_p50_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_tiny(workload, tmp_path):
    path = tmp_path / "spans.tsv"
    result = run.traced_run(workload, seed=3, tiny=True, trace_path=path)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert len(metrics) == 22
    wall = result["extra"]["traced_s"]
    assert sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s")) <= wall
    assert path.read_text().count("\n") > result["extra"]["spans"]


def test_seed_changes_inputs_not_shape():
    for w in workloads.WORKLOADS:
        a, b = workloads.queries(w, 1), workloads.queries(w, 2)
        assert a == workloads.queries(w, 1)
        assert len(a) == len(b)
        assert sorted(q[0] for q in a) == sorted(q[0] for q in b)
    assert workloads.queries("geometry-levels", 1) != workloads.queries("geometry-levels", 2)


def test_recorder_self_time_of_a_generator():
    import spans

    rec = spans.Recorder()
    outer = rec.name_id("bench.outer")

    def gen():
        yield from range(3)

    wrapped = rec._wrap(gen, "cones.enumerate_P")
    began = spans.perf_counter_ns()
    sid = rec.open(outer, began)
    assert list(wrapped()) == [0, 1, 2]
    rec.close(sid, began)
    assert rec.counts["cones.P_vectors"] == 3
    assert rec.parent[1] == 0 and rec.busy[1] <= rec.busy[0]
    assert sum(rec.self_times()) == rec.busy[0]


# --- the reference checks bind --------------------------------------------------

def _answer(argv):
    return run.call_in_process(run._import_canalg().cli.main, argv)


def test_ci_check_rejects_off_by_one_count():
    argv = ("ci", "--type", "5,5,5,5,5", "--p", "10")
    a = _answer(argv)
    assert reference.check_query(argv, a.code, a.out) == []
    assert a.out["components"] == 2
    bad = dict(a.out, components=3)
    assert reference.check_query(argv, 0, bad)
    assert reference.check_query(argv, 0, dict(a.out, is_normal=not a.out["is_normal"]))


def test_components_check_rejects_wrong_lists():
    argv = ("components", "--type", "3,3,3,3,3,3", "--p", "6")
    a = _answer(argv)
    assert reference.check_query(argv, a.code, a.out) == []
    comps = a.out["components"]
    assert len(comps) == 2
    for bad in (comps[:1], comps + comps[-1:], [comps[0], "2;1,1/1,1/1,1/1,1/1,1/1,1;0"]):
        assert reference.check_query(argv, 0, dict(a.out, components=bad, count=len(bad)))
    assert reference.check_query(argv, 0, dict(a.out, count=a.out["count"] + 1))


def test_zeroset_check_rejects_wrong_count():
    argv = ("zeroset", "--type", "2,2,2", "--p", "4")
    a = _answer(argv)
    assert reference.check_query(argv, a.code, a.out) == []
    assert a.out["component_count"] == 20
    assert reference.check_query(argv, 0, dict(a.out, component_count=21))
    assert reference.check_query(argv, 0, dict(a.out, target_dim=a.out["target_dim"] + 1))


def _triples(m, p):
    canalg = run._import_canalg()
    return [(run._vec(z.dprime), run._vec(z.ddouble),
             tuple((x.arm, x.socle, x.qlen) for x in z.xclass.members), z.q)
            for z in canalg.zeroset.enumerate_Zp(canalg.forms.CanonicalType(m), p)]


def _stream(m, p, triples, recorded):
    check = reference.ZpStreamCheck(m, p)
    for t in triples:
        check.add(*t)
    return check.finish(recorded)


def test_stream_check_rejects_perturbed_triple():
    m, p = (2, 2, 2), 3
    triples = _triples(m, p)
    assert _stream(m, p, triples, len(triples)) == []
    dp, dd, members, q = triples[100]
    bumped = (dd[0], dd[1] + 1, dd[2])
    assert _stream(m, p, triples[:100] + [(dp, bumped, members, q)] + triples[101:],
                   len(triples))
    assert _stream(m, p, triples + triples[:1], len(triples) + 1)   # a duplicate
    assert _stream(m, p, triples, len(triples) + 1)                 # recorded count


def test_stream_check_needs_every_equality_stratum():
    m, p = (2, 2, 2), 3
    triples = _triples(m, p)
    check = reference.ZpStreamCheck(m, p)
    strata = []
    for i, t in enumerate(triples):
        before = check.equality
        check.add(*t)
        if check.equality > before:
            strata.append(i)
    assert len(strata) == reference.equality_count(m, p) == 12
    drop = strata[0]
    assert _stream(m, p, triples[:drop] + triples[drop + 1:], len(triples) - 1)


def test_hom_check_rejects_wrong_dimension():
    m = (2, 2, 2)
    tube = [((1, 0, 1), (1, 0, 1)), ((1, 0, 2), (1, 1, 1)), ((1, 0, 1), (2, 0, 1))]
    tube_homs = [((x, y), reference.segment_hom(m, x, y)) for x, y in tube]
    homog = [((s, t), min(s, t)) for s in (1, 2) for t in (1, 2)]
    mixed = [("Hom(J1, 1:0:1)", 0)]
    assert reference.check_homs(m, 2, tube_homs, homog, mixed) == []
    assert tube_homs[0][1] == 1 and tube_homs[1][1] == 1 and tube_homs[2][1] == 0
    wrong = [(tube_homs[0][0], 2)] + tube_homs[1:]
    assert reference.check_homs(m, 2, wrong, homog, mixed)
    assert reference.check_homs(m, 2, tube_homs, [((1, 2), 2)] + homog[1:], mixed)
    assert reference.check_homs(m, 2, tube_homs, homog, [("Hom(J1, 1:0:1)", 1)])


def test_oracle_hom_errors_on_a_real_query():
    canalg = run._import_canalg()
    assert run.oracle_hom_errors(canalg, [("oracle", "--type", "2,2,3", "--full",
                                           "--sizes", "2", "--mu", "3")]) == []


def test_verify_check_binds():
    argv = ("verify", "--type", "2,2,2", "--pmax", "2", "--seed", "5")
    a = _answer(argv)
    assert reference.check_query(argv, a.code, a.out) == []
    no_zeroset = copy.deepcopy(a.out)
    no_zeroset["results"] = [r for r in no_zeroset["results"]
                             if not r["name"].startswith("zeroset/")]
    assert reference.check_query(argv, 0, no_zeroset)
    assert reference.check_query(argv, 0, dict(a.out, all_ok=False))
    assert reference.check_query(argv, 0, dict(a.out, seed=6))


def test_classify_check_binds():
    argv = ("classify", "--type", "2,3,7")
    a = _answer(argv)
    assert reference.check_query(argv, a.code, a.out) == []
    assert reference.check_query(argv, 0, dict(a.out, lcm=41))
    assert reference.check_query(argv, 0, dict(a.out, zeroset_threshold=None))


def test_closed_form_matches_known_values():
    # (2,2,2) is domestic: CI and normal at every level, one component.
    assert reference.geometry_expect((2, 2, 2), 7) == {
        "defect": 0, "is_ci": True, "is_normal": True, "count": 1}
    # (3,)*7 is below the boundary: CI only for p <= 2.
    assert reference.geometry_expect((3,) * 7, 2)["is_ci"]
    assert not reference.geometry_expect((3,) * 7, 3)["is_ci"]
    assert reference.equality_count((2, 2, 2), 4) == 20
