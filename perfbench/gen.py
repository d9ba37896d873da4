"""Seeded input generator: relabelled .vh files and torus words.

A relabelling shuffles the declaration order of the generators within each
side, which renumbers the letters (and so the sphere points, Schreier-Sims
base points and coset-table columns) without changing the complex.  Every
pass of a local-groups or cap-exhaust run gets its own inputs, drawn from
(workload, seed, pass index), so the same seed always gives the same files.

closure-enum walks a fixed panel of relabellings instead.  The cost of one
closure request depends on the labelling by a factor of three (HLT
defines 10k-65k cosets), and a run has room for only about 70 of them, so
with fresh labellings per seed the median request time moved by about 8%
(up to 12%) from seed to seed on sampling alone, on top of the machine's
own drift.  The panel is cut into fixed pairs, one pair per pass, so that a
labelling always shares its process with the same other one; the seed
shuffles the order in which a run tours the pairs, and so decides which
ones a run that stops part-way through its second tour sees twice.
"""

from __future__ import annotations

import os
import random

from expected import TORUS

# Relabelled copies of sigma per closure-enum pass, and torus words per
# cap-exhaust pass.  Short passes (about 1.5 s and 0.8 s) let a run measure
# many different inputs, so that its medians settle.  One word per pass keeps
# the median pass clear of the words that take HLT's slower lookahead path.
CLOSURE_RELABELLINGS = 2
# The closure-enum panel: 16 passes, which a 60 s run tours about twice.
CLOSURE_PANEL = 32
CLOSURE_PANEL_SEED = "closure-enum:panel"
TORUS_WORDS = 1
TORUS_WORD_LENGTH = 6

_INVERSE = {"a1": "a1^-1", "a1^-1": "a1", "b1": "b1^-1", "b1^-1": "b1"}


def relabel(text: str, rng: random.Random) -> str:
    lines = []
    for line in text.splitlines():
        fields = line.split("#", 1)[0].split()
        if fields and fields[0] in ("horizontal", "vertical"):
            names = fields[1:]
            rng.shuffle(names)
            line = " ".join([fields[0], *names])
        lines.append(line)
    return "\n".join(lines) + "\n"


def torus_word(rng: random.Random, length: int) -> str:
    """A freely reduced word of the given length over a1, b1."""
    word = []
    while len(word) < length:
        x = rng.choice(sorted(_INVERSE))
        if not word or x != _INVERSE[word[-1]]:
            word.append(x)
    return "*".join(word)


def closure_panel(sigma: str) -> list[str]:
    """The fixed panel of relabelled sigma files, the same for every seed."""
    rng = random.Random(CLOSURE_PANEL_SEED)
    return [relabel(sigma, rng) for _ in range(CLOSURE_PANEL)]


def closure_pass(seed: int, index: int) -> list[int]:
    """Panel positions of a closure-enum pass: a seeded tour of the pairs."""
    tour = list(range(CLOSURE_PANEL // CLOSURE_RELABELLINGS))
    random.Random(f"closure-enum:{seed}").shuffle(tour)
    first = tour[index % len(tour)] * CLOSURE_RELABELLINGS
    return list(range(first, first + CLOSURE_RELABELLINGS))


def write_pass(root: str, workload: str, seed: int, index: int, out_dir: str) -> None:
    """Write the inputs of one pass into ``out_dir``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    os.makedirs(out_dir, exist_ok=True)

    def corpus(name):
        path = os.path.join(root, "src", "vhcert", "corpus", f"{name}.vh")
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    def put(name, text):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    if workload == "local-groups":
        for name in ("lambda", "delta", "sigma"):
            put(f"{name}.vh", relabel(corpus(name), rng))
    elif workload == "closure-enum":
        panel = closure_panel(corpus("sigma"))
        for k in closure_pass(seed, index):
            put(f"sigma_{k:02d}.vh", panel[k])
    elif workload == "cap-exhaust":
        put("torus.vh", TORUS)
        words = [torus_word(rng, TORUS_WORD_LENGTH) for _ in range(TORUS_WORDS)]
        put("words.txt", "\n".join(words) + "\n")
    elif workload != "sigma-cert":
        raise ValueError(f"unknown workload {workload!r}")
