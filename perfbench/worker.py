"""One pass of a workload, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py setup|pass WORKLOAD INPUT_DIR [--trace SPANS_FILE]

``setup`` imports vhcert and parses the pass's inputs, then stops.
``pass`` goes on to make every request of the pass and checks each answer
against expected.py.  Either way the last stdout line is one JSON object.
For sigma-cert a pass runs the CLI in this process; run.py only does that
for traced passes, since an untraced sigma-cert request is a plain
``python -m vhcert`` process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import expected  # noqa: E402  (the benchmark's own directory is sys.path[0])

sys.path.insert(0, SRC)

# Fixed sizes of the workloads' requests.
TORUS_CAP = 50_000
# Sigma's depth-2 horizontal group (degree 132) takes 2-4 s, longer than the
# rest of a local-groups pass together.  With it, a 30 s run holds fewer than
# eleven passes, so the tail percentile falls on its boundary with the next
# request and swings from run to run; it is left out of the workload.
LOCAL_GROUPS_LEFT_OUT = {("sigma", "h", 2)}
CERT_ARGS = [
    "simple-cert", os.path.join("src", "vhcert", "corpus", "sigma.vh"),
    "--word", expected.WITNESS, "--assume-nrf", "--json",
]
GOLDEN = os.path.join(ROOT, "tests", "data", "sigma_certificate.json")


class Mismatch(Exception):
    """An answer that differs from the reference."""


def expect(condition, message):
    if not condition:
        raise Mismatch(message)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# -- set-up: parse the generated inputs --------------------------------------

def load(workload, input_dir):
    from vhcert import complexes, fpgroups

    if workload == "sigma-cert":
        with open(GOLDEN, "rb") as fh:
            golden = fh.read()
        complexes.parse_complex(_read(os.path.join(ROOT, CERT_ARGS[1])))
        return golden
    if workload == "local-groups":
        return [
            (name, complexes.parse_complex(_read(os.path.join(input_dir, f"{name}.vh"))))
            for name in ("lambda", "delta", "sigma")
        ]
    if workload == "closure-enum":
        out = []
        for name in sorted(os.listdir(input_dir)):
            c = complexes.parse_complex(_read(os.path.join(input_dir, name)))
            p = fpgroups.presentation_from_complex(c)
            out.append((name, p, p.parse_word(expected.WITNESS)))
        return out
    if workload == "cap-exhaust":
        c = complexes.parse_complex(_read(os.path.join(input_dir, "torus.vh")))
        p = fpgroups.presentation_from_complex(c)
        out = []
        for text in _read(os.path.join(input_dir, "words.txt")).split():
            relators = p.relators + (fpgroups.cyclic_reduce(p.parse_word(text)),)
            out.append((text, fpgroups.Presentation.build(p.generators, relators, p.sides)))
        return out
    raise ValueError(f"unknown workload {workload!r}")


# -- requests: (label, thunk) pairs, each thunk raising on a wrong answer ------

def sigma_cert_requests(golden):
    from vhcert import cli

    def request():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(CERT_ARGS)
        expect(code == 0, f"exit code {code}")
        out = buffer.getvalue()
        expect(out.encode("utf-8") == golden, "certificate differs from the golden file")
        check_certificate(json.loads(out))

    return [("simple-cert", request)]


def check_certificate(cert):
    """The certificate's values against expected.py, not against vhcert."""
    steps = {step["name"]: step for step in cert["steps"]}
    expect(list(steps) == list(expected.CERT), f"steps {list(steps)}")
    for name, want in expected.CERT.items():
        step = steps[name]
        expect(step["verdict"] == "pass", f"step {name} is {step['verdict']}")
        for key, value in want.items():
            got = step["values"].get(key)
            expect(got == value, f"{name}: {key} = {got!r}, expected {value!r}")


def local_group_requests(complexes_by_name):
    from vhcert import local_actions, permgroups

    def request(name, c, side, depth):
        g = local_actions.local_group(c, side, depth)
        expect(g.order == expected.ORDERS[(name, side, depth)], f"order {g.order}")
        if depth == 1:
            facts = expected.DEPTH1[(name, side)]
            got = permgroups.recognize(g)
            expect(got == facts["name"], f"recognized as {got}")
            stab = permgroups.point_stabilizer(g, 0)
            expect(stab.order == facts["stab_order"], f"stabilizer order {stab.order}")
            expect(permgroups.is_k_transitive(g, 2) == facts["two_transitive"], "2-transitivity")
            simple = permgroups.is_whitelisted_nonabelian_simple(stab)
            expect(simple is facts["stab_simple"], f"stabilizer simplicity {simple}")

    return [
        (f"{name} {side}{depth}", lambda n=name, c=c, s=side, d=depth: request(n, c, s, d))
        for name, c in complexes_by_name
        for side in ("h", "v")
        for depth in (1, 2)
        if (name, side, depth) not in LOCAL_GROUPS_LEFT_OUT
    ]


def closure_requests(presentations):
    """One request per relabelled sigma: both closures, then the kernel."""
    from vhcert import fpgroups, reidemeister_schreier, todd_coxeter

    def request(p, w):
        for strategy in ("hlt", "felsch"):
            table = todd_coxeter.normal_closure_table(p, w, strategy=strategy)
            expect(table.index == expected.CLOSURE_INDEX, f"{strategy} index {table.index}")
            q = todd_coxeter.quotient_structure(table)
            expect(q.abelian, f"{strategy} quotient is not abelian")
            expect(tuple(q.invariants.torsion) == expected.QUOTIENT_TORSION, f"quotient {q.invariants}")
        table = todd_coxeter.parity_kernel_table(p)
        sub = reidemeister_schreier.subgroup_presentation(p, table)
        expect(len(sub.generators) == expected.KERNEL_GENERATORS, f"{len(sub.generators)} generators")
        expect(len(sub.relators) == expected.KERNEL_RELATORS, f"{len(sub.relators)} relators")
        simple = reidemeister_schreier.tietze_simplify(sub)
        deficiency = len(simple.relators) - len(simple.generators)
        expect(deficiency == expected.KERNEL_DEFICIENCY, f"r - g = {deficiency}")
        ab = fpgroups.abelianization(simple)
        expect(ab.is_trivial() == expected.KERNEL_ABELIANIZATION_TRIVIAL, f"abelianization {ab}")

    return [(name, lambda p=p, w=w: request(p, w)) for name, p, w in presentations]


def cap_requests(quotients):
    """One request per word: both strategies must exhaust the cap."""
    from vhcert import todd_coxeter

    def request(q):
        for strategy in ("hlt", "felsch"):
            table = todd_coxeter.CosetTable(q, (), cap=TORUS_CAP, strategy=strategy)
            try:
                table.run()
            except todd_coxeter.EnumerationExhausted:
                continue
            raise Mismatch(f"{strategy}: an infinite quotient closed with index {table.index}")

    return [(text, lambda q=q: request(q)) for text, q in quotients]


REQUESTS = {
    "sigma-cert": sigma_cert_requests,
    "local-groups": local_group_requests,
    "closure-enum": closure_requests,
    "cap-exhaust": cap_requests,
}


def main(argv):
    mode, workload, input_dir = argv[:3]
    spans_file = argv[4] if argv[3:4] == ["--trace"] else None
    start = time.perf_counter()
    import vhcert.cli  # noqa: F401  (imports every layer, as `python -m vhcert` does)
    import_s = time.perf_counter() - start
    import vhcert

    if not os.path.abspath(vhcert.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"vhcert was imported from {vhcert.__file__}, not from {SRC}")
    inputs = load(workload, input_dir)
    ready = time.monotonic()
    result = {"ready": ready, "import_s": import_s}
    if mode == "pass":
        tracer = None
        if spans_file is not None:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        requests = []
        begin = time.perf_counter()
        for label, thunk in REQUESTS[workload](inputs):
            t0 = time.perf_counter()
            try:
                thunk()
                error = None
            except Exception as exc:  # a failed request is counted, never fatal
                error = f"{type(exc).__name__}: {exc}"
            requests.append([label, time.perf_counter() - t0, error])
        result["pass_s"] = time.perf_counter() - begin
        result["requests"] = requests
        if tracer is not None:
            tracer.write(spans_file)
            result["layers"] = tracer.metrics()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
