import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import polyflip
import polyflip.verify as verify_module
from polyflip import (
    CLAIMS,
    BudgetExceededError,
    TriangulationError,
    build_slice,
    distance_matrix,
    flip,
    flip_incident_to,
    run_all,
    run_claim,
    verify_characterization,
    verify_close,
    verify_deletion_lemmas,
    verify_far,
    verify_omega,
    verify_remark_family,
)
from polyflip.cli import main
from polyflip.verify import reports_to_csv, reports_to_json


def test_close_small():
    r = verify_close(6)
    assert r.status == "pass"
    assert r.instances == 14
    r5 = verify_close(5)
    assert r5.status == "pass" and r5.instances == 5


def test_omega_small():
    r = verify_omega(6)
    assert r.status == "pass"
    assert r.instances == 14 * 6
    assert verify_omega(7).status == "pass"


def test_far_small():
    for n in (6, 7, 8):
        r = verify_far(n)
        assert r.status == "pass", r.failures[:1]


def test_characterization_vacuous_then_sandwich():
    r = verify_characterization(12)
    assert r.status == "vacuous"
    assert r.instances == 0
    for n in (20, 21):
        r = verify_characterization(n)
        assert r.status == "pass"
        assert any("n-3" in note for note in r.notes)


def test_remark_family_small():
    assert verify_remark_family(8).status == "pass"
    r = verify_remark_family(10)
    assert r.status == "pass" and r.instances == 2
    assert verify_remark_family(6).status == "vacuous"


def test_deletion_lemmas_small():
    assert verify_deletion_lemmas(4).status == "pass"
    assert verify_deletion_lemmas(6).status == "pass"
    assert verify_deletion_lemmas(7).status == "pass"


def test_status_never_pass_on_empty():
    for claim in CLAIMS:
        for n in (6, 7):
            r = run_claim(claim, n)
            if r.instances == 0:
                assert r.status == "vacuous"
            assert r.status in {"pass", "vacuous"}, (claim, n, r.failures[:1])


def test_unknown_claim_rejected():
    with pytest.raises(ValueError):
        run_claim("nonsense", 6)


def test_worker_counts_agree():
    for claim in ("close", "omega", "deletion"):
        solo = run_claim(claim, 7, workers=1)
        many = run_claim(claim, 7, workers=8)
        assert solo.to_json_obj(False) == many.to_json_obj(False)


def test_run_all_serialization_deterministic():
    a = run_all([6], workers=1)
    b = run_all([6], workers=4)
    assert reports_to_json(a, include_timing=False) == reports_to_json(
        b, include_timing=False
    )
    csv_text = reports_to_csv(a, include_timing=False)
    head = csv_text.splitlines()[0]
    assert head == "claim,n,instances,failures,status"
    parsed = json.loads(reports_to_json(a, include_timing=False))
    assert len(parsed) == len(CLAIMS)
    assert all("seconds" not in obj for obj in parsed)
    timed = json.loads(reports_to_json(a, include_timing=True))
    assert all("seconds" in obj for obj in timed)


def test_deletion_lemmas_honour_max_nodes(monkeypatch):
    monkeypatch.setenv("POLYFLIP_NODE_BUDGET", "100")
    r = verify_deletion_lemmas(8, max_nodes=1000)
    assert r.status == "pass" and r.instances == 132 * 133 // 2
    with pytest.raises(BudgetExceededError):
        verify_deletion_lemmas(8)


def test_deletion_lemmas_vacuous_on_triangle():
    r = verify_deletion_lemmas(3)
    assert r.status == "vacuous" and r.instances == 0
    assert r.notes == ("vertex deletion needs n >= 4",)


def test_far_vacuous_below_hexagon():
    for n in (3, 4, 5):
        r = verify_far(n)
        assert r.status == "vacuous" and r.instances == 0 and not r.failures
        assert r.notes == ("far witnesses need n >= 6",)


def test_omega_vacuous_on_triangle():
    r = verify_omega(3)
    assert r.status == "vacuous" and r.instances == 0 and not r.failures
    assert r.notes == ("witness sets need n >= 4",)
    assert verify_omega(4).status == "pass"


def test_verify_all_below_hexagon_exits_zero(capsys):
    assert main(["verify", "--all", "--n", "3..5", "--no-timestamp"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "far n=5: vacuous (0 instances)" in lines
    assert "omega n=3: vacuous (0 instances)" in lines
    assert not any(": fail" in line for line in lines)


def test_deletion_index_matches_vertex_deletion():
    for n in range(4, 9):
        slc, small = build_slice(n), build_slice(n - 1)
        del_idx = verify_module._deletion_index(slc, small)
        for i in range(len(slc)):
            t = slc.triangulation(i)
            assert [small.index_of(t.delete(a)) for a in range(n)] == list(del_idx[i])
    # a contraction missing from the index is no triangulation
    with pytest.raises(TriangulationError, match="gives no triangulation"):
        verify_module._deletion_index(
            slc, dataclasses.replace(small, index=small.index[1:], order=small.order[1:])
        )


@pytest.fixture(scope="module")
def replayed_walks_n7():
    """Every ordered n=7 pair walked by `_geodesic_steps` and replayed with
    `flip`: per pair the end triangulation, the step count and, per boundary
    edge {a, a+1}, the incident flips by the incidence masks and by
    `flip_incident_to`."""
    n = 7
    slc = build_slice(n)
    mat = distance_matrix(n)
    masks = verify_module._incidence_masks(slc)
    sources, targets = (x.ravel() for x in np.indices(mat.shape))
    current = [slc.triangulation(int(i)) for i in sources]
    steps = np.zeros(len(sources), dtype=np.int64)
    by_mask = np.zeros((len(sources), n), dtype=np.int64)
    by_flip = np.zeros((len(sources), n), dtype=np.int64)
    for live, nodes, cols in verify_module._geodesic_steps(slc, mat, sources, targets):
        for k, node, col in zip(live, nodes, cols):
            t = current[k]
            assert slc.index_of(t) == node
            removed = slc.key_array[node, col].tolist()
            for a in range(n):
                by_mask[k, a] += (int(masks[node, col]) >> a) & 1
                by_flip[k, a] += flip_incident_to(t, removed, (a, (a + 1) % n))
            current[k] = flip(t, removed)[0]
            steps[k] += 1
    return slc, mat, sources, targets, current, steps, by_mask, by_flip


def test_geodesic_walks_replay_to_target(replayed_walks_n7):
    slc, mat, sources, targets, current, steps, _, _ = replayed_walks_n7
    assert len(sources) == 42 * 42
    assert np.array_equal(steps, mat[sources, targets])
    for k, j in enumerate(targets):
        assert current[k] == slc.triangulation(int(j))


def test_geodesic_walk_incident_counts_match_flip_incident_to(replayed_walks_n7):
    *_, steps, by_mask, by_flip = replayed_walks_n7
    assert np.array_equal(by_mask, by_flip)
    assert by_mask.sum() > 0 and (by_mask <= steps[:, None]).all()


MONOTONE_KEYS = {"t", "u", "a", "distance", "deleted", "problem"}
INCIDENT_KEYS = MONOTONE_KEYS | {"incident_flips"}
EAR_KEYS = {"t", "u", "edge", "distance", "problem"}


def _failure_key_sets(report) -> set:
    return {frozenset(f) for f in report.failures}


def test_deletion_lemmas_catch_a_wrong_smaller_distance(monkeypatch):
    real = verify_module.distance_matrix

    def bumped(n, max_nodes=None):
        mat = real(n, max_nodes)
        if n == 6:
            mat = mat.copy()
            mat[0, 0] += 1
        return mat

    monkeypatch.setattr(verify_module, "distance_matrix", bumped)
    r = verify_deletion_lemmas(7)
    assert r.status == "fail"
    assert _failure_key_sets(r) == {
        frozenset(MONOTONE_KEYS), frozenset(INCIDENT_KEYS), frozenset(EAR_KEYS)
    }
    assert {f["problem"] for f in r.failures} == {
        "deletion increased the distance",
        "geodesic flip count breaks the bound",
        "no deletion gains two flips at the ear",
    }


def test_deletion_lemmas_catch_a_wrong_incidence_bit(monkeypatch):
    real = verify_module._incidence_masks

    def extra_bit(slc):
        masks = real(slc)
        spare = next(a for a in range(slc.n) if not (masks[0, 0] >> a) & 1)
        masks[0, 0] |= 1 << spare
        return masks

    monkeypatch.setattr(verify_module, "_incidence_masks", extra_bit)
    r = verify_deletion_lemmas(7)
    assert r.status == "fail"
    assert _failure_key_sets(r) == {frozenset(INCIDENT_KEYS)}
    assert {f["problem"] for f in r.failures} == {"geodesic flip count breaks the bound"}


EAR_PROBLEM = "no deletion gains two flips at the ear"


def test_deletion_ear_step_checks_both_orientations(monkeypatch):
    """With every deleted distance inflated, each ear instance the claim
    evaluates fails, so its ear failures list exactly those instances.  They
    must be every ordered pair (T, U) and boundary edge {a, a+1} such that
    a+1 is an ear of T with interior degree >= 2 in U, T reported as `t`."""
    n = 7
    real = verify_module.distance_matrix

    def inflated(m, max_nodes=None):
        mat = real(m, max_nodes)
        return mat + 100 if m == n - 1 else mat

    monkeypatch.setattr(verify_module, "distance_matrix", inflated)
    r = verify_deletion_lemmas(n)
    seen = [(f["t"], f["u"], tuple(f["edge"])) for f in r.failures if f["problem"] == EAR_PROBLEM]

    ts = [t for t in polyflip.enumerate_all(n)]
    expected = [
        (t.text(), u.text(), (a, (a + 1) % n))
        for t in ts
        for u in ts
        for a in range(n)
        if sum((a + 1) % n in e for e in t.diagonals) == 0
        and sum((a + 1) % n in e for e in u.diagonals) >= 2
    ]
    assert len(seen) == len(set(seen))
    assert sorted(seen) == sorted(expected)


def test_deletion_ear_fault_seen_only_in_reverse_orientation(monkeypatch):
    """The last node reads as all ears and no vertex of interior degree >= 2.
    It is the higher-indexed node of every pair it belongs to, except its
    pair with itself, so only the reverse orientation can see the fault."""
    real = verify_module.interior_degrees

    def last_all_ears(slc):
        degrees = real(slc).copy()
        degrees[-1] = 0
        return degrees

    monkeypatch.setattr(verify_module, "interior_degrees", last_all_ears)
    r = verify_deletion_lemmas(7)
    last = build_slice(7).triangulation(41).text()
    assert r.status == "fail"
    assert {f["problem"] for f in r.failures} == {EAR_PROBLEM}
    assert {f["t"] for f in r.failures} == {last}


def test_deletion_lemmas_n10_in_time_and_memory():
    script = (
        "import resource, time\n"
        "from polyflip import verify_deletion_lemmas\n"
        "start = time.perf_counter()\n"
        "r = verify_deletion_lemmas(10)\n"
        "print(r.status, r.instances, time.perf_counter() - start,"
        " resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(polyflip.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        check=True, timeout=120,
    )
    status, instances, seconds, peak_kb = done.stdout.split()
    assert (status, int(instances)) == ("pass", 1_023_165)
    assert float(seconds) < 15
    assert int(peak_kb) < 400 * 1024  # ru_maxrss is in KiB on Linux
