"""Random instances: the seeded fuzz stream is pinned, and random full
trees are grown as leaf-path lists that match a node-by-node oracle."""

import hashlib

import pytest

from codecert import InvalidRadix, SplitMix64, format_certificate, format_codeword, grow_full_tree, random_prefix_code
from codecert import cli, randgen
from codecert.randgen import _grow_leaf_paths, _random_leaf_paths
from oracles import grow_leaf_paths_oracle, tree_shape_oracle

# sha256 of every trial k < 100 of `fuzz --seed S`: the instance (r, n,
# probabilities, codewords, reversed or not), its certificate text and the
# closing-inequality group it draws
FUZZ_STREAM_DIGESTS = {
    1: "bb53019c470505119e5d8d721a0f7f92befed6f72d71d717c778a66ef0875189",
    2026: "9495a37cb36b54165f52b748155abed282e6699fd3b472fec9a55d1b6290bdff",
    2**64 - 1: "6d8ae3c0d036370b949108ee94428ad965d7330aea49067de403291cb0151f96",
}


def _fuzz_stream_digest(monkeypatch, seed):
    digest = hashlib.sha256()
    flipped = []
    reversed_code, certify, random_group = cli.reversed_code, cli.certify, cli.random_group

    def reversing(code):
        flipped.append(True)
        return reversed_code(code)

    def certifying(src, code):
        cert = certify(src, code)
        words = list(map(format_codeword, code.pooled()))
        instance = (code.radix, len(src), [str(p) for p in src.probs], words, bool(flipped))
        digest.update(repr(instance).encode())
        digest.update(format_certificate(cert).encode())
        flipped.clear()
        return cert

    def drawing(rng, r):
        group = random_group(rng, r)
        digest.update(repr(group).encode())
        return group

    monkeypatch.setattr(cli, "reversed_code", reversing)
    monkeypatch.setattr(cli, "certify", certifying)
    monkeypatch.setattr(cli, "random_group", drawing)
    for k in range(100):
        assert cli.run_fuzz_trial(seed, k, 1e-9) == []
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(FUZZ_STREAM_DIGESTS))
def test_fuzz_stream_pinned(monkeypatch, seed):
    assert _fuzz_stream_digest(monkeypatch, seed) == FUZZ_STREAM_DIGESTS[seed]


GROWN = [(seed, r, z) for seed in range(4) for r in (2, 3, 5) for z in (0, 1, 2, 7, 40)]


@pytest.mark.parametrize("seed, r, z", GROWN)
def test_grow_full_tree_shape_and_draws(seed, r, z):
    tree = grow_full_tree(SplitMix64(seed), r, z)
    assert tree_shape_oracle(tree.paths, r) == (z * (r - 1) + 1, z, True)
    leaves = tree.leaves()
    assert all(leaf.symbol is None and leaf.prob is None for _, leaf in leaves)
    paths = [path for path, _ in leaves]
    assert paths == _grow_leaf_paths(SplitMix64(seed), r, z)
    assert paths == grow_leaf_paths_oracle(SplitMix64(seed).randbelow, r, z)


def test_grow_full_tree_rejects_a_negative_node_count():
    with pytest.raises(ValueError, match="at least zero internal nodes, got -1"):
        grow_full_tree(SplitMix64(1), 2, -1)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_random_codes_need_radix_two(n):
    # one draw in two makes a one-word code without growing a tree; the
    # radix is checked before either
    for seed in range(4):
        with pytest.raises(InvalidRadix):
            random_prefix_code(SplitMix64(seed), 1, n)


def test_deep_leaf_path_list_pinned(monkeypatch):
    # 2,000 internal nodes: the leaves drawn by the node-by-node growth
    monkeypatch.setattr(randgen, "EXTRA_NODES", 0)
    paths = _random_leaf_paths(SplitMix64(7), 2, 2001)
    assert len(paths) == 2001
    digest = hashlib.sha256(repr(paths).encode()).hexdigest()
    assert digest == "9cf9a25c4e4b0c367a6abf4afa4d7599dd9534cd4ec28eb2e9b2b08aae4e9137"
