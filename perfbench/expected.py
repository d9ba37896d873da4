"""Hand-written reference answers for the benchmark's correctness checks.

None of these values is read from vhcert's output.  The sources are the
paper (the orders of Alt(6), M12 and Alt(8), the depth-2 order criterion,
the index-4 closure with quotient Z/2 x Z/2 and the simplicity of the
parity kernel), group theory (point stabilizers and Reidemeister-Schreier
counts), and sympy's Schreier-Sims on sphere actions built from the square
lists by perfbench/reference.py; test_expected.py repeats that sympy check.
Every value here is invariant under relabelling the generators, which is
what lets the seeded workloads be checked against one table.
"""

import math


def _alt(d):
    return math.factorial(d) // 2


M11 = 7920
M12 = 95040

# (complex, side, depth) -> order of the local group.
ORDERS = {
    ("lambda", "h", 1): _alt(6),                   # 360
    ("lambda", "v", 1): _alt(6),
    ("lambda", "h", 2): _alt(6) * _alt(5) ** 6,    # 360 * 60**6
    ("lambda", "v", 2): _alt(6) * _alt(5) ** 6,
    ("delta", "h", 1): 4,
    ("delta", "v", 1): 36,
    ("delta", "h", 2): 16,
    ("delta", "v", 2): 419904,                     # 2**6 * 3**8
    ("sigma", "h", 1): M12,                        # 95040
    ("sigma", "v", 1): _alt(8),                    # 20160
    ("sigma", "h", 2): M12 * M11 ** 12,
    ("sigma", "v", 2): _alt(8) * _alt(7) ** 8,     # 20160 * 2520**8
}

# (complex, side) -> facts about the depth-1 group G and its point
# stabilizer S = point_stabilizer(G, 0).  Recognition names use vhcert's
# documented spelling: Alt(d), Sym(d), M11, M12, or other(<order>).  All
# orbits of one group have the same size (lambda and sigma are transitive,
# delta's orbits all have size 2 on h and 3 on v), so |S| does not depend
# on which letter a relabelling puts at point 0.  Groups of order below 60
# are never nonabelian simple, which settles delta.
DEPTH1 = {
    ("lambda", "h"): {"name": "Alt(6)", "stab_order": 60, "two_transitive": True, "stab_simple": True},
    ("lambda", "v"): {"name": "Alt(6)", "stab_order": 60, "two_transitive": True, "stab_simple": True},
    ("delta", "h"): {"name": "other(4)", "stab_order": 2, "two_transitive": False, "stab_simple": False},
    ("delta", "v"): {"name": "other(36)", "stab_order": 12, "two_transitive": False, "stab_simple": False},
    ("sigma", "h"): {"name": "M12", "stab_order": M11, "two_transitive": True, "stab_simple": True},
    ("sigma", "v"): {"name": "Alt(8)", "stab_order": _alt(7), "two_transitive": True, "stab_simple": True},
}

WITNESS = "a2*a1^-1*a3*a4^-1"

# Normal closure of WITNESS in sigma's group: the parity kernel.
CLOSURE_INDEX = 4
QUOTIENT_TORSION = (2, 2)

# Reidemeister-Schreier on an index-k subgroup of a group with g
# generators and r relators: k*g - (k - 1) generators, k*r relators.
# Sigma has g = 6 + 4 and r = 24 squares, and k = 4.
KERNEL_GENERATORS = 4 * 10 - 3    # 37
KERNEL_RELATORS = 4 * 24          # 96
# Tietze moves remove one generator and one relator each.
KERNEL_DEFICIENCY = KERNEL_RELATORS - KERNEL_GENERATORS   # 59
# The parity kernel is simple and nonabelian, hence perfect.
KERNEL_ABELIANIZATION_TRIVIAL = True

# Values in the certificate's steps that do not depend on vhcert.
CERT = {
    "link_condition": {
        "m": 6, "n": 4, "squares": 24, "corners_covered": 4 * 6 * 4,
        "euler_characteristic": 1 - (6 + 4) + 6 * 4,   # 15
    },
    # delta, the embedded subcomplex on a1..a4, b1..b3, has 4 * 3 squares.
    "subcomplex_embedding": {"squares": 12, "matches_reference": True},
    "irreducibility": {
        "depth1_order": _alt(8), "depth1_recognition": "Alt(8)",
        "depth2_order": ORDERS[("sigma", "v", 2)],
        "target_order": _alt(8) * _alt(7) ** 8,
    },
    "normal_subgroup_theorem": {
        "horizontal_order": M12, "horizontal_recognition": "M12",
        "horizontal_stabilizer_order": M11, "vertical_order": _alt(8),
        "vertical_recognition": "Alt(8)", "vertical_stabilizer_order": _alt(7),
    },
    "normal_closure_index": {"index": CLOSURE_INDEX},
    "parity_kernel_identification": {
        "index": CLOSURE_INDEX, "quotient_invariants": list(QUOTIENT_TORSION),
    },
}

# The torus complex: its group is Z^2, and Z^2 / <<w>> is infinite for
# every single word w (the quotient keeps free rank at least 1), so an
# enumeration of it can only end by exhausting its cap.
TORUS = "complex torus\nhorizontal a1\nvertical b1\nsquare a1 b1 a1^-1 b1^-1\n"
