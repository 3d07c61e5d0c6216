"""Golden outputs: sha256 digests of CLI output bytes on fixed seeds.

Every command runs in-process with the working directory set to a
fresh temporary directory and relative paths, because the JSON reports
record the graph and bundle paths they were given.  The bench CSVs are
pinned with their one wall-clock column (oracle_seconds) removed.

The planted graph engages every phase of the distributed diamond
listing: two dense blocks become clusters, six hubs with more than
sqrt(n) member neighbours are heavy, and the outsiders with one to four
member neighbours, together with a sparse background, feed the light
pair rules and the sparse phase.  The sparse graph, G(300, 0.03), has
no cluster: every vertex peels, so its sparse phase streams long
assigned-edge lists and lists every diamond there.

A digest changes only when an output byte changes.  If a change is
meant to alter an output, update the digest and say why in the change
log.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random

import pytest

from congestlab.cli import EXIT_OK, main
from congestlab.graphs import Graph, random_graph

EXPECTED = {
    "bench.cycle-protocol.csv": "62a12610c521b0c8bd2b9cf787b812768e5565b910b599734d2f673fd2111753",
    "bench.diamond-listing.csv": "7708d24b815f07a303eab281c4e2d051b5a1d649a75eb7c5ad66b0d332eae4b2",
    "bench.diamond-protocol.csv": "526122c8174c228f51de69fa90eb1376e573f80f77824603812f8287b53a9a2b",
    "ck.capped.json": "f3296fac391cdb35426771e93291d68ddbb4d9a80946dae948af16ed81035ff0",
    "ck.congest.json": "17901058b4ded852c48adc029692ef32d92d6e9b035062831ba4854d2cbec7db",
    "ck.cycles4.json": "4d38e35a6bfcd888bf84f9ab1a21a2b8b3d4e2f536743f28dffd9f95d283b70d",
    "ck.cycles5.json": "1725f18a6a15415b657d1663e627f6789537265cba80067754c73ef49c15b84a",
    "ck.cycles6.json": "2f7b876984bef3f81ecf7cbcb6333b3a7cd31fe071bb88f0d550c4f2647dad53",
    "ck.cycles7.json": "fe039758361e2ccf179a2d8ba80af8c663624c2be8e33788120a15269b5a35f2",
    "ck.diamond.json": "9d0fe571ddbb86cf68ec8bd10c5eade356db1e2f4995813529286ad1de252caa",
    "ck/graph.txt": "16f6eb785a051a5563bd93e21677de52a1650d58e1efd06179ae0c8b83a6d948",
    "ck/inputs.json": "d4ad08440367233aa725319c2b7686f583f142c2913287b2281a47fc5cf2a256",
    "ck/meta.json": "ededce69bca1fe87e166afcf2cd846cf0fb58e44674a1a2ad303fb1d10a08fae",
    "diamond.congest.json": "a201c983f7ba8255386b381fda3c45127ccbaaec4541c7880eac06d2b000f7f5",
    "diamond.cycles4.json": "e5c5685d89c3c7c71449863a5282a1604033f8508dd7ce0d880755ab9d38ea26",
    "diamond.cycles5.json": "035af43899b8980dd1d9c14499519cfb6450b382588bf8f482ac206b6fdee6e6",
    "diamond.cycles6.json": "5f861c693dad74a60a88aeb9d86ac3f3ff6916cf0790e3abee1f6bea7c77269a",
    "diamond.cycles7.json": "6604c134f6c9a293b1c22933ab086625229e31e979647af0f0d3f8f5a5bfaf65",
    "diamond.diamond.json": "bec6cd9222b84ebfa9fa15f9b21594f5dd7270df5a95a203d3b972fa7200b6b6",
    "diamond/graph.txt": "477d81504673d7ee992c27623aabdb19e926e31556d7eb7e13d78650d7c1aac3",
    "diamond/inputs.json": "e59a18ca5aaea30ed08dfaf5e9a28ad71d2541b7bd2caeb66bb7cd37bcd3c61c",
    "diamond/meta.json": "e16f355c147d5fc7ab799becf65559a21deea8f4505eacf96eb102f746972a46",
    "gnp.diamonds.json": "748b0e5c61c6f268c8f1da3eb02aaec69e64ceb3bc04a2909c55d7eeabbc3407",
    "gnp.listing.json": "63f336ef0b5778b11ada0a7d232475fc0195e01ec94769ebb6ff14b2634fa7c9",
    "longcycle.congest.json": "586d0c0713af40c76d571770c7095f65dbc3618daeab597b12dfd0e972b596f8",
    "longcycle.cycles4.json": "16fd26bfb16aeac11820d45cc3a256d55880198bc9d2aca2f29c0ceb3d288d6a",
    "longcycle.cycles5.json": "0545aec87f46249063eeb878943193209a3275b68b7761c77f132e3251da41e9",
    "longcycle.cycles6.json": "d6cff18aed4eb81cf66feb3135df949413c5f86e7f94cd7da241c7ecff44a44a",
    "longcycle.cycles7.json": "5bf3d1169595ac3637512a7d10d0e39dfe64d077c6252d7d5e20f79bae1b2dde",
    "longcycle.diamond.json": "00784ef646393b48ae4350b12f630d76011c3b1c0efbacf27685dc5261dc9f09",
    "longcycle/graph.txt": "09962545c7cceb0241736c1d9dda48e2064e998780d89cba2f65ce36be85cd07",
    "longcycle/inputs.json": "1d1dcc30231ac61c8303c3c7b33d9155873220c30b7636c015e21034b588a949",
    "longcycle/meta.json": "23003477575eda6a7ac11dbf3e6478d476e0e10057ccd5c48d5f35ce992bc814",
    "planted.diamonds.json": "0a22b6711880b887b94735df3a3efa1fc2725202d4a7b748564a0695b546919a",
    "planted.listing.json": "39819ffdeee911231e5084ab723fb438ecfd73bda79340ef59f90fc06d77f33c",
    "sparse.diamonds.json": "8fa42834b7f4ef0e853873f239a444bbb59f91f4e88c2cc2c7cb0a65f53cc8b1",
    "sparse.listing.json": "65d72574be5625f15239abd497438bb94f7b9e6d1cfcf1fa64ccbb277d7930d3",
    "verify.ck.json": "84b1b0e67333821fdc8547a7a2a1f9c0a5db195fe2391cbe50de184ff3c52be9",
    "verify.diamond.json": "c86173a929e8766ddc4e8c4b8f7cb80d7370c21d290d97f9740c9248b41f74d4",
    "verify.longcycle.json": "535a7d86c9f8a4a02e840cc863b3becc0937b31b6beeff47ae9a80309fa360e9",
}


def planted_graph() -> Graph:
    """n = 120: blocks 0..29 and 30..59 at density 0.8, hubs 60..65 with
    12 member neighbours each, outsiders 66..95 with 1..4 member
    neighbours each, and a 0.15-density background on 66..119.

    Hub 60 has 11 member neighbours and outsider 66 has 10, one each
    side of the heavy/light threshold floor(sqrt(120)) = 10, so moving
    the threshold by one changes the listing's phase counts."""
    rng = random.Random(0)
    blocks = [range(0, 30), range(30, 60)]
    edges = set()
    for block in blocks:
        for u in block:
            for v in block:
                if u < v and rng.random() < 0.8:
                    edges.add((u, v))
    for i, hub in enumerate(range(60, 66)):
        for m in rng.sample(list(blocks[i % 2]), 11 if hub == 60 else 12):
            edges.add((m, hub))
    for i, outsider in enumerate(range(66, 96)):
        count = 10 if outsider == 66 else rng.randint(1, 4)
        for m in rng.sample(list(blocks[i % 2]), count):
            edges.add((m, outsider))
    background = list(range(66, 120))
    for i, u in enumerate(background):
        for v in background[i + 1 :]:
            if rng.random() < 0.15:
                edges.add((u, v))
    return Graph(120, edges)


def sparse_graph() -> Graph:
    """n = 300 at density 0.03: 1,396 edges, every vertex peeled, 66
    diamonds, all listed by the sparse phase in 18 rounds."""
    return random_graph(300, 0.03, random.Random(0))


def _run(argv: list[str]) -> None:
    assert main(argv) == EXIT_OK, argv


def _strip_seconds(csv_bytes: bytes) -> bytes:
    rows = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))
    col = rows[0].index("oracle_seconds")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row[:col] + row[col + 1 :])
    return buf.getvalue().encode("utf-8")


def _produce_outputs() -> dict[str, bytes]:
    """Run every pinned command in the current directory; return the bytes
    of each output file by name."""
    with open("planted.txt", "w", encoding="utf-8") as fh:
        fh.write(planted_graph().to_text())
    with open("gnp.txt", "w", encoding="utf-8") as fh:
        fh.write(random_graph(60, 0.3, random.Random(0)).to_text())
    with open("sparse.txt", "w", encoding="utf-8") as fh:
        fh.write(sparse_graph().to_text())

    bundles = {
        "ck": ["ck", "--n", "3", "--k", "5", "--input-seed", "1"],
        "longcycle": ["long-cycle", "--n", "2", "--ell", "2", "--input-seed", "1"],
        "diamond": ["diamond", "--n", "16", "--seed", "0", "--input-seed", "1"],
    }
    outputs: list[str] = []
    for name, flags in bundles.items():
        _run(["gen-family", *flags, "--out", name])
        outputs += [f"{name}/graph.txt", f"{name}/meta.json", f"{name}/inputs.json"]

    for graph in ("planted", "gnp", "sparse"):
        _run(
            [
                "run-diamond-listing",
                "--graph",
                f"{graph}.txt",
                "--check-oracle",
                "--stats-out",
                f"{graph}.listing.json",
                "--list-out",
                f"{graph}.diamonds.json",
            ]
        )
        outputs += [f"{graph}.listing.json", f"{graph}.diamonds.json"]

    for name in bundles:
        for protocol in ("cycles:4", "cycles:5", "cycles:6", "cycles:7", "diamond"):
            out = f"{name}.{protocol.replace(':', '')}.json"
            _run(
                [
                    "run-protocol",
                    "--graph",
                    f"{name}/graph.txt",
                    "--partition",
                    name,
                    "--protocol",
                    protocol,
                    "--out",
                    out,
                ]
            )
            outputs.append(out)
        out = f"{name}.congest.json"
        _run(
            [
                "run-congest",
                "--graph",
                f"{name}/graph.txt",
                "--program",
                "detect-four-cycle",
                "--cut",
                name,
                "--stats-out",
                out,
            ]
        )
        outputs.append(out)

    # Streams cut traffic, then jumps to a cap it cannot decide before:
    # the one pinned report whose per-round list runs past the last send.
    _run(
        [
            "run-congest",
            "--graph",
            "ck/graph.txt",
            "--program",
            "detect-four-cycle",
            "--cut",
            "ck",
            "--max-rounds",
            "12",
            "--stats-out",
            "ck.capped.json",
        ]
    )
    outputs.append("ck.capped.json")

    _run(["verify-family", "ck", "--n", "2", "--k", "5", "--json-out", "verify.ck.json"])
    _run(
        [
            "verify-family",
            "long-cycle",
            "--n",
            "2",
            "--ell",
            "2",
            "--json-out",
            "verify.longcycle.json",
        ]
    )
    _run(
        [
            "verify-family",
            "diamond",
            "--n",
            "16",
            "--seed",
            "0",
            "--json-out",
            "verify.diamond.json",
        ]
    )
    outputs += ["verify.ck.json", "verify.longcycle.json", "verify.diamond.json"]

    for suite in ("cycle-protocol", "diamond-protocol", "diamond-listing"):
        _run(["bench", "--suite", suite, "--seed", "0", "--out", f"bench.{suite}.csv"])
        outputs.append(f"bench.{suite}.csv")

    data = {}
    for path in outputs:
        with open(path, "rb") as fh:
            raw = fh.read()
        data[path] = _strip_seconds(raw) if path.endswith(".csv") else raw
    return data


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, bytes]:
    here = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("golden"))
    try:
        return _produce_outputs()
    finally:
        os.chdir(here)


def test_every_pinned_output_is_produced(outputs):
    assert sorted(outputs) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_digest(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == EXPECTED[name]


def test_planted_graph_engages_every_coverage_tag(outputs):
    stats = json.loads(outputs["planted.listing.json"])
    assert stats["oracle_match"] is True
    assert stats["heavy_engaged_clusters"] > 0
    assert set(stats["coverage_counts"]) == {
        "sparse",
        "heavy",
        "light-reconcile",
        "light-pair-absent",
        "light-pair-present",
    }
    assert all(count > 0 for count in stats["coverage_counts"].values())
