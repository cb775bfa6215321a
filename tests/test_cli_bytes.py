"""Byte pins for every CLI command in every output format, at n <= 10.

Each digest is the sha256 of the command's stdout; a change in any output
byte, including whitespace and key order, fails here.  Each command is also
run with `-o FILE`, which must write the same bytes and leave stdout empty.
"""
import hashlib

import pytest

from polyflip.cli import main

T8 = "1-3,1-4,1-7,4-6,4-7"
U8 = "0-2,0-5,2-4,2-5,5-7"
ZIGZAG_8 = "1-7,2-7,2-6,3-6,3-5"
FAN_10 = "0-2,0-3,0-5,0-7,3-5,5-7,7-9"

PINNED = {
    ("enumerate", "--n", "6", "--format", "text"):
        "86cf485484a7c522a0c35bab6b7099ba33c44a2759b22fbf26c65077bae36ca4",
    ("enumerate", "--n", "6", "--format", "json"):
        "37b50d895882fce1d4c31956ecb1213c3ac9380552d6f39e62d071a2ddf3841e",
    ("distance", "--n", "8", "--t", T8, "--u", U8, "--format", "text"):
        "273d9ac5c9cbef69988a30aff2f091f33843d9fcf8a721dc24938ea0d26008d1",
    ("distance", "--n", "8", "--t", T8, "--u", U8, "--format", "json"):
        "309c80188df4b4fe532deb13c19638afc1dadb5c5a99e1668d971d4fce67edcf",
    ("eccentricity", "--n", "8", "--t", T8, "--format", "text"):
        "c0e07d534360ac34f6679d96785d1b89d05086b5be907724013f312d67d29dd4",
    ("eccentricity", "--n", "8", "--t", T8, "--format", "json"):
        "cfd9f33a14abff6244ff22a06a7a926ddd65ecc8a8d6796fe4c1747350fbe718",
    ("profile", "--n", "8", "--format", "text"):
        "a345a0a21b6060ad4f3c8121b0f7194168091ff2f90cd03d19af46be83eab265",
    ("profile", "--n", "8", "--format", "json"):
        "0d1a49d3c74ab8803f5f4cad5ab3cf707ddfde953c58d2a6ba9712fb0a069a02",
    ("witness", "omega", "--n", "10", "--t", FAN_10, "--v", "0", "--format", "text"):
        "51e9ba42074d5a745b40c8c28ef20514f0459f754ca90185c3273b3767db7884",
    ("witness", "omega", "--n", "10", "--t", FAN_10, "--v", "0", "--format", "json"):
        "2f81b9c29f3d9481b1cb6e19cba12fb097e9ccb04a75ddea61b37035e6ff5f24",
    ("witness", "far-long", "--n", "8", "--t", ZIGZAG_8, "--format", "text"):
        "58dad46f80149fc5d558382fd4673ad8f47691ccfe7b6326e9992615ce40646d",
    ("witness", "far-long", "--n", "8", "--t", ZIGZAG_8, "--format", "json"):
        "cedef42a72c1dfab5f0179c0679f8caaf4c1d4a774555ecfdd055cd541e56055",
    ("witness", "far-short", "--n", "8", "--t", T8, "--format", "text"):
        "b38ef008ca5bdd8246ef73c65aa07e98aa2db2f174fdfbd39f74bc95d11f3703",
    ("witness", "far-short", "--n", "8", "--t", T8, "--format", "json"):
        "0018e7f64409339df5f78d08bcbde804a219e04c31a56d4356861bb817cf2587",
    ("witness", "family", "--n", "10", "--k", "5", "--format", "text"):
        "ab5d816dfb13ded4a0d82d9c69ea39b208ad61dec438d02dfb3a544a0aea487c",
    ("witness", "family", "--n", "10", "--k", "5", "--format", "json"):
        "3a42fefb698402f77b56c3bdcfc3b88c28053a8ba6dbc9243d9966ab4f55296e",
    ("witness", "central", "--n", "8", "--t", T8, "--format", "text"):
        "68851f3d49e65c6e8c08bc76a9ceb64f2a44986d737276762db73bc500f1d732",
    ("witness", "central", "--n", "8", "--t", T8, "--format", "json"):
        "55ad8fbb10e17a396a70848a89d6f3f6b6aed697bf97b3e800835a73c0628ffc",
    ("verify", "--all", "--n", "6..7", "--no-timestamp", "--format", "text"):
        "36f64de9cc5b2cea07d17953330b013e518ec6f145d3f321ba39a2c74fd8c273",
    ("verify", "--all", "--n", "6..7", "--no-timestamp", "--format", "json"):
        "f7dcf759b88a4ca34b78a7e1ec49c67b4e554f9be02faf21a0549b84199f8991",
    ("verify", "--all", "--n", "6..7", "--no-timestamp", "--format", "csv"):
        "a60bec4d4d14e5ad988c33198f4a7fed26b0d6a2f01ebad97280a36dc886dbfd",
    ("export", "--n", "6", "--format", "dot"):
        "e7808bcdbd8ebfc3f13640451699636c6a43c60b85395f851079cc32c4897a01",
    ("export", "--n", "6", "--format", "json"):
        "5a9255e6aefdc19f1e9d91349c4b56d8ede7fcfefa47e120d6611e122fe305cc",
}


def _case_id(argv) -> str:
    words = [argv[0]] + ([argv[1]] if argv[0] == "witness" else []) + [argv[-1]]
    return "-".join(words)


def _stdout(capsys, argv) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out


@pytest.mark.parametrize("argv", list(PINNED), ids=[_case_id(a) for a in PINNED])
def test_cli_bytes_pinned(capsys, tmp_path, argv):
    out = _stdout(capsys, argv).encode()
    assert hashlib.sha256(out).hexdigest() == PINNED[argv]
    target = tmp_path / "out"
    assert _stdout(capsys, argv + ("-o", str(target))) == ""
    assert target.read_bytes() == out
