"""Pinned outputs of the pair search.

The expected values were captured from the tuple-key search that the packed
code replaced; a search that visits keys in another order, or picks other
parents, returns other geodesics and fails here.
"""
import hashlib
import json
import random

from polyflip import comb, enumerate_all, flip_distance, zigzag
from polyflip.cli import main

# zigzag(P,0,6) vs zigzag(P,9,2) at n=13: distance 15, no common diagonal.
ZIGZAG_13_T = "1-11,1-12,2-10,2-11,3-9,3-10,4-8,4-9,5-7,5-8"
ZIGZAG_13_U = "0-4,0-5,1-3,1-4,5-12,6-11,6-12,7-10,7-11,8-10"

ZIGZAG_13_TEXT = """distance=15
remove 2-11 insert 1-10
remove 2-10 insert 1-3
remove 3-9 insert 4-10
remove 3-10 insert 1-4
remove 4-9 insert 8-10
remove 4-8 insert 5-10
remove 4-10 insert 1-5
remove 5-8 insert 7-10
remove 1-10 insert 5-11
remove 5-10 insert 7-11
remove 5-7 insert 6-11
remove 1-11 insert 5-12
remove 1-12 insert 0-5
remove 1-5 insert 0-4
remove 5-11 insert 6-12
"""
ZIGZAG_13_JSON_SHA256 = "b457ef30d5868f985055ca3f405f178776440f3756778262f93b2e4ea7520a39"
RELABELLED_JSON_SHA256 = "e2a91daabaf306a4eb115054e6ce850d756be895387480af1505367ba777f9c8"
ALL_PAIRS_6_SHA256 = "56a26bb49d555179b978d085924f4fa01823b78732c973ae29781fc333b0b415"
SAMPLED_PAIRS_9_SHA256 = "d935223cb5ac79a660c811c7fd660cb39388c506e627420fbbb49f71b02753a9"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def results_digest(pairs) -> str:
    h = hashlib.sha256()
    for t, u in pairs:
        h.update(json.dumps(flip_distance(t, u).to_json_obj(), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_zigzag_13_distance_output(capsys):
    argv = ["distance", "--n", "13", "--t", ZIGZAG_13_T, "--u", ZIGZAG_13_U]
    assert main(argv) == 0
    assert capsys.readouterr().out == ZIGZAG_13_TEXT
    assert main(argv + ["--format", "json"]) == 0
    assert sha256(capsys.readouterr().out) == ZIGZAG_13_JSON_SHA256


def test_relabelled_polygon_geodesic():
    t = comb(7, 0).delete(0)
    assert t.polygon.vertices == (1, 2, 3, 4, 5, 6)
    result = flip_distance(t, zigzag(t.polygon, 1, 4))
    assert [(m.removed, m.inserted, m.quad) for m in result.geodesic] == [
        ((1, 4), (3, 5), (1, 3, 4, 5)),
        ((1, 3), (2, 5), (1, 2, 3, 5)),
        ((1, 5), (2, 6), (1, 2, 5, 6)),
    ]
    # the form `polyflip distance --format json` prints
    assert sha256(json.dumps(result.to_json_obj(), indent=2)) == RELABELLED_JSON_SHA256


def test_all_pairs_n6_and_sampled_pairs_n9():
    six = list(enumerate_all(6))
    assert results_digest([(t, u) for t in six for u in six]) == ALL_PAIRS_6_SHA256
    nine = list(enumerate_all(9))
    rng = random.Random(0)
    pairs = [(rng.choice(nine), rng.choice(nine)) for _ in range(300)]
    assert results_digest(pairs) == SAMPLED_PAIRS_9_SHA256
