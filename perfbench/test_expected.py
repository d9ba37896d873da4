"""Tests of the benchmark's reference answers and input generator.

    python3 -m pytest perfbench/test_expected.py

The order checks compare expected.py with sympy's Schreier-Sims on sphere
actions that reference.py builds from the square lists, so neither side
of the comparison comes from vhcert.  They are skipped without sympy.
"""

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(os.path.dirname(HERE), "src", "vhcert", "corpus")
sys.path.insert(0, HERE)

import expected  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402


def corpus(name):
    with open(os.path.join(CORPUS, f"{name}.vh"), encoding="utf-8") as fh:
        return fh.read()


def sympy_group(text, side, depth):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    gens, degree = reference.sphere_generators(text, side, depth)
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(g, size=degree) for g in gens]
    )


@pytest.mark.parametrize("key", sorted(expected.ORDERS))
def test_order_matches_sympy(key):
    name, side, depth = key
    assert sympy_group(corpus(name), side, depth).order() == expected.ORDERS[key]


@pytest.mark.parametrize("key", sorted(k for k in expected.ORDERS if k != ("sigma", "h", 2)))
def test_order_survives_relabelling(key):
    name, side, depth = key
    text = gen.relabel(corpus(name), random.Random(f"test:{name}"))
    assert sympy_group(text, side, depth).order() == expected.ORDERS[key]


@pytest.mark.parametrize("key", sorted(expected.DEPTH1))
def test_depth1_stabilizers(key):
    name, side = key
    facts = expected.DEPTH1[key]
    group = sympy_group(corpus(name), side, 1)
    stabilizers = [group.stabilizer(p) for p in range(group.degree)]
    assert {s.order() for s in stabilizers} == {facts["stab_order"]}
    two_transitive = group.is_transitive() and len(stabilizers[0].orbit(1)) == group.degree - 1
    assert two_transitive == facts["two_transitive"]


def test_relabelling_keeps_the_squares():
    for name in ("lambda", "delta", "sigma"):
        text = corpus(name)
        shuffled = gen.relabel(text, random.Random(7))
        assert shuffled != text
        assert reference.parse(shuffled)[2] == reference.parse(text)[2]


def test_inputs_repeat_for_a_seed(tmp_path):
    root = os.path.dirname(HERE)
    for workload in ("local-groups", "closure-enum", "cap-exhaust"):
        a, b, c = (tmp_path / f"{workload}-{k}" for k in "abc")
        gen.write_pass(root, workload, 5, 0, str(a))
        gen.write_pass(root, workload, 5, 0, str(b))
        gen.write_pass(root, workload, 6, 0, str(c))
        read = lambda d: {f.name: f.read_text() for f in d.iterdir()}
        assert read(a) == read(b)
        assert read(a) != read(c)


def test_closure_tour_walks_the_whole_panel():
    for seed in (5, 6):
        tour = [k for i in range(gen.CLOSURE_PANEL // gen.CLOSURE_RELABELLINGS)
                for k in gen.closure_pass(seed, i)]
        assert sorted(tour) == list(range(gen.CLOSURE_PANEL))
        assert gen.closure_pass(seed, len(tour) // gen.CLOSURE_RELABELLINGS) == tour[:2]
    assert gen.closure_pass(5, 0) != gen.closure_pass(6, 0)
    panel = gen.closure_panel(corpus("sigma"))
    assert len(set(panel)) == gen.CLOSURE_PANEL


def test_torus_words_are_reduced():
    rng = random.Random(3)
    for _ in range(50):
        word = gen.torus_word(rng, gen.TORUS_WORD_LENGTH).split("*")
        assert len(word) == gen.TORUS_WORD_LENGTH
        assert all(gen._INVERSE[x] != y for x, y in zip(word, word[1:]))
