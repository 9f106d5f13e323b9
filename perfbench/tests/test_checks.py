"""The benchmark's checks accept real reports and reject corrupted ones.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from exact import progression_text  # noqa: E402
from polyprog import cli  # noqa: E402


def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


def analyze(label, polys):
    meta = {"label": label, "polys": polys}
    return meta, report(["analyze", progression_text(polys)])


# ---------------------------------------------------------------------------
# classify

INH = ((1,), (2,), (0, 1))             # x, x+y, x+2y, x+y^2
AP = ((1,), (2,), (3,))
INDEPENDENT = ((1,), (0, 1), (1, 0, 2))


@pytest.fixture(scope="module")
def inhomogeneous():
    return analyze("inhomogeneous", INH)


def test_analyze_reports_pass(inhomogeneous):
    assert checks.check_analyze(*inhomogeneous) == []
    assert checks.check_analyze(*analyze("ap", AP)) == []
    assert checks.check_analyze(*analyze("independent", INDEPENDENT)) == []
    assert checks.check_analyze(*analyze("linear", ((0, 1), (0, 2), (0, 0, 1)))) == []


def test_relation_coefficient_changed(inhomogeneous):
    meta, rep = copy.deepcopy(inhomogeneous)
    rel = rep["relation_basis"][0]
    assert rel.startswith("(u, -2*u")
    rep["relation_basis"][0] = rel.replace("-2*u", "-3*u", 1)
    assert any("does not vanish" in e for e in checks.check_analyze(meta, rep))


def test_homogeneity_flag_flipped(inhomogeneous):
    meta, rep = copy.deepcopy(inhomogeneous)
    rep["homogeneous"] = True
    errs = checks.check_analyze(meta, rep)
    assert any("every slice" in e for e in errs)


def test_homogeneous_flag_flipped_on_homogeneous_input():
    meta, rep = analyze("ap", AP)
    rep["homogeneous"] = False
    assert any("every slice" in e for e in checks.check_analyze(meta, rep))


def test_witness_changed(inhomogeneous):
    meta, rep = copy.deepcopy(inhomogeneous)
    rep["inhomogeneity_witness"]["relation"] = "(u, -2*u, u, 0)"
    assert checks.check_analyze(meta, rep) == ["witness relation does not mix degrees"]
    rep["inhomogeneity_witness"]["relation"] = "(u, -2*u, 2*u, 0)"
    assert "witness relation does not vanish" in checks.check_analyze(meta, rep)


def test_dimension_and_complexity_changed():
    meta, rep = analyze("independent", INDEPENDENT)
    bad = dict(rep, relation_space_dim=1)
    assert any("oracle" in e for e in checks.check_analyze(meta, bad))
    meta, rep = analyze("ap", AP)
    bad = dict(rep, complexity=[1, 2, 2, 2])
    assert any("complexity" in e for e in checks.check_analyze(meta, bad))


def test_relation_dropped():
    meta, rep = analyze("ap", AP)
    rep["relation_basis"] = rep["relation_basis"][:-1]
    rep["relation_space_dim"] -= 1
    assert checks.check_analyze(meta, rep)


# ---------------------------------------------------------------------------
# zn-count

N = 31


@pytest.fixture(scope="module")
def zn(tmp_path_factory):
    rng = random.Random(5)
    mask = workloads.bernoulli_mask(rng, N, 0.5)
    path = tmp_path_factory.mktemp("zn") / "subset.txt"
    path.write_text("".join(f"{x}\n" for x, inside in enumerate(mask) if inside))
    text = progression_text(workloads.FIVE_TERM)
    meta = {"polys": workloads.FIVE_TERM, "n": N, "mask": mask, "epsilon": 0.005}
    count = report(["count", text, "--N", str(N), "--subset-file", str(path)])
    popdiff = report(["popdiff", text, "--N", str(N), "--subset-file", str(path),
                      "--epsilon", "0.005"])
    gowers = report(["gowers", "--N", str(N), "--signal", "quadratic", "--s-max", "3"])
    return meta, count, popdiff, gowers


def test_zn_reports_pass(zn):
    meta, count, popdiff, gowers = zn
    assert checks.check_count(meta, count) == []
    assert 0 < len(popdiff["qualifying"]) < N
    assert checks.check_popdiff(meta, popdiff) == []
    assert checks.check_gowers({"n": N}, gowers) == []


def test_count_off_by_one_occurrence(zn):
    meta, count = zn[0], copy.deepcopy(zn[1])
    count["rows"][0]["poly_count"][0] += 1 / N ** 2
    assert any("exact count" in e for e in checks.check_count(meta, count))
    count = copy.deepcopy(zn[1])
    count["rows"][0]["linear_count"][0] += 1 / N ** 3
    assert any("Fourier" in e for e in checks.check_count(meta, count))


def test_count_basis_coefficient_changed(zn):
    meta, count = zn[0], copy.deepcopy(zn[1])
    count["rows"][0]["coeffs"][1][0] += 1
    assert any("not sum" in e for e in checks.check_count(meta, count))


def test_popdiff_shift_dropped(zn):
    meta, popdiff = zn[0], copy.deepcopy(zn[2])
    popdiff["qualifying"] = popdiff["qualifying"][1:]
    popdiff["qualifying_count"] -= 1
    assert any("qualifying set differs" in e for e in checks.check_popdiff(meta, popdiff))


def test_gowers_norm_changed(zn):
    gowers = copy.deepcopy(zn[3])
    gowers["rows"][2]["norm"] *= 0.999
    assert any("U^3" in e for e in checks.check_gowers({"n": N}, gowers))
    gowers = copy.deepcopy(zn[3])
    gowers["u2_fourier"] += 1e-6
    assert any("Fourier route" in e for e in checks.check_gowers({"n": N}, gowers))


def test_fourier_count_matches_enumeration():
    rng = random.Random(9)
    n = 13
    mask = workloads.bernoulli_mask(rng, n, 0.5)
    coeffs = [[0, 0], [1, 0], [2, 0], [1, 1], [2, 2]]
    direct = sum(all(mask[(x + a * y1 + b * y2) % n] for a, b in coeffs)
                 for x in range(n) for y1 in range(n) for y2 in range(n))
    assert abs(checks.fourier_linear_count(mask, coeffs) * n ** 3 - direct) < 1e-6


# ---------------------------------------------------------------------------
# torus

@pytest.fixture(scope="module")
def torus(tmp_path_factory):
    out = {}
    for name, (gens, dim, cosets) in workloads.TORUS_SCENARIOS.items():
        path = tmp_path_factory.mktemp("torus") / f"{name}.json"
        path.write_text(json.dumps({
            "order": 2, "system": "generators", "generators": gens,
            "base": ["1/2", "0"], "progression": workloads.TORUS_PROGRESSION,
            "N": 800, "radius": 2}))
        out[name] = ({"dim": dim, "cosets": cosets}, report(["weyl", str(path)]))
    return out


def test_torus_reports_pass(torus):
    for meta, rep in torus.values():
        assert checks.check_weyl(meta, rep) == []


def test_closure_dimension_changed(torus):
    meta, rep = copy.deepcopy(torus["dependent"])
    rep["dim"] = 7
    assert any("(dim, cosets)" in e for e in checks.check_weyl(meta, rep))


def test_character_dropped_and_confinement(torus):
    meta, rep = copy.deepcopy(torus["dependent"])
    rep["discrepancy"]["rows"].pop()
    assert any("closed form" in e for e in checks.check_weyl(meta, rep))
    meta, rep = copy.deepcopy(torus["dependent"])
    rep["confinement_distance"] = 1e-3
    assert any("confinement" in e for e in checks.check_weyl(meta, rep))


def test_character_kind_changed(torus):
    meta, rep = copy.deepcopy(torus["independent"])
    rep["discrepancy"]["rows"][0]["kind"] = "constant"
    assert any("reported constant" in e for e in checks.check_weyl(meta, rep))


def test_character_count_closed_form():
    assert checks.character_count(8, 3) == 416
    assert checks.character_count(8, 2) == 72


# ---------------------------------------------------------------------------
# the benchmark's own declarations

def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()


def test_classify_corpus_depends_on_seed_and_round():
    a = workloads.classify_corpus(1, 0)
    assert a == workloads.classify_corpus(1, 0)
    assert a != workloads.classify_corpus(2, 0)
    assert a != workloads.classify_corpus(1, 1)
