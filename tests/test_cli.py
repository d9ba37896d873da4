import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import vhcert
from vhcert import certificates, corpus
from vhcert.cli import main
from vhcert.complexes import ComplexError, parse_complex

DATA = Path(__file__).parent / "data"
WORD = "a2*a1^-1*a3*a4^-1"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for name in corpus.NAMES:
        (root / f"{name}.vh").write_text(corpus.text(name), encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def sigma_path(corpus_dir):
    return str(corpus_dir / "sigma.vh")


@pytest.fixture(scope="module")
def lambda_path(corpus_dir):
    return str(corpus_dir / "lambda.vh")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_import_leaves_out_unused_stdlib():
    # -S keeps site-packages .pth files from preloading modules, so this
    # sees only what importing the CLI pulls in
    src = str(Path(vhcert.__file__).resolve().parents[1])
    script = (
        "import sys, vhcert.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'importlib.resources')"
        " if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert out == "[]\n"


def test_check_link_pass(capsys, sigma_path):
    code, out = run(capsys, "check-link", sigma_path)
    assert code == 0
    assert "96/96 corners" in out


def test_check_link_fail_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.vh"
    bad.write_text("complex bad\nhorizontal a1\nvertical b1\n")
    code, out = run(capsys, "check-link", str(bad))
    assert code == 1
    assert "FAILS" in out


def test_malformed_file_exit_one(capsys, tmp_path):
    bad = tmp_path / "broken.vh"
    bad.write_text("complex broken\nhorizontal a1\nvertical b1\nsquare a1 b1\n")
    code, _ = run(capsys, "check-link", str(bad))
    assert code == 1


def test_second_alphabet_line_exit_one(capsys, tmp_path):
    bad = tmp_path / "twice.vh"
    bad.write_text("complex t\nhorizontal a1\nvertical b1\n"
                   "square a1 b1 a1^-1 b1^-1\nhorizontal x1\n")
    code = main(["check-link", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: line 5: duplicate horizontal line\n"


@pytest.mark.parametrize("content", [
    random.Random(0).randbytes(200),
    "complex caf\xe9\nhorizontal a1\nvertical b1\n".encode("latin-1"),
], ids=["random-bytes", "latin-1"])
def test_non_utf8_file_exit_one(capsys, tmp_path, content):
    with pytest.raises(UnicodeDecodeError):
        content.decode("utf-8")
    bad = tmp_path / "binary.vh"
    bad.write_bytes(content)
    code = main(["check-link", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_usage_error_exit_64(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    capsys.readouterr()
    assert info.value.code == 64


def test_missing_file_exit_64(capsys):
    code, _ = run(capsys, "check-link", "does-not-exist.vh")
    assert code == 64


def test_euler(capsys, lambda_path):
    code, out = run(capsys, "euler", lambda_path)
    assert code == 0
    assert "4" in out


def test_local_json(capsys, lambda_path):
    code, out = run(capsys, "local", lambda_path, "--side", "v", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["groups"][0]["order"] == 360
    assert report["groups"][0]["recognition"] == "Alt(6)"


# sha256 of `vhcert local` stdout, the only output that prints group
# elements (generator cycles), per (complex, extra arguments, --json)
LOCAL_DIGESTS = {
    ("lambda", ("--depth", "1"), False): "f4d3ca37db20afdbfd0931bd874017e2cb94c74b887e4fc9c7a4c84c3bb2c5e1",
    ("lambda", ("--depth", "1"), True): "df4e77964afe26dd036b204fda510761eace510a909d08a7603a8647511f6548",
    ("delta", ("--depth", "1"), False): "3448910d305875b4015c55a0a07cefcff6707a82937bb4b5f8cbb5f33651ceae",
    ("delta", ("--depth", "1"), True): "84d502678479266788e6b730d32f2a9df05b2f650ac5905e49f07835e1327a92",
    ("sigma", ("--depth", "1"), False): "8e66405a27a9fb7ffc7b6858dd53147edfa65b63d78063bef24a5bc6e73dc837",
    ("sigma", ("--depth", "1"), True): "072c09aee5372ae8b1321a8225fa6ab90401af33a6e8ea56254d87fe451a50ce",
    ("lambda", ("--depth", "2"), False): "fd7253be4bc555eb3b5d056f4f640209879c9323bbfbcb17d56834f6c613bc13",
    ("lambda", ("--depth", "2"), True): "685b0de07604ece92339daa5fdacf30bb3ebde6204156c005254b2c9b317652b",
    ("delta", ("--depth", "2"), False): "00eecfce3818e963500e23f5386caaa9b57dfdc4f0cc702fce6705ea96205b39",
    ("delta", ("--depth", "2"), True): "3d59c977f85bd4ff517314e2fa6656cf8c2d2a432a30769c2c6db19d2fd38835",
    ("sigma", ("--side", "v", "--depth", "2"), False): "116bbd3046f255b1d7cba62bd7f7031420c59ea7663dd10ebb269be5bdfcacbb",
    ("sigma", ("--side", "v", "--depth", "2"), True): "5b584a95bf557304ed7bea7224fd562cc65210500e09ea9a25314d6423ae025d",
    ("sigma", ("--side", "h", "--depth", "2"), False): "7b9b70d1353f80774a65ffcba1fdd6be7b37a77ccd52e9fac0061e4b800bf4d3",
    ("sigma", ("--side", "h", "--depth", "2"), True): "d2dac5df8535c4a2d1d85ee219294e56b35bdce75f81f8e8610dfcb936a6fef4",
}


@pytest.mark.parametrize("name, extra, as_json", list(LOCAL_DIGESTS))
def test_local_output_digest(capsys, corpus_dir, name, extra, as_json):
    argv = ["local", str(corpus_dir / f"{name}.vh"), *extra] + ["--json"] * as_json
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LOCAL_DIGESTS[name, extra, as_json]


def _sigma_without_first_square():
    lines = corpus.text("sigma").splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("square"))
    return "".join(lines[:first] + lines[first + 1:])


# Link-failing complexes: sigma without its first square (four missing
# corners), and two squares sharing the corners (a1, b1) and (a1, b1^-1)
LINK_FAILURES = {
    "sigma_minus_first": _sigma_without_first_square,
    "dup": lambda: (
        "complex dup\nhorizontal a1\nvertical b1 b2\n"
        "square a1 b1 a1^-1 b1^-1\n"
        "square a1 b1 a1^-1 b2^-1\n"
    ),
}

# sha256 of `vhcert check-link` stdout on them; pins which missing and
# duplicated corners are listed, and in what order
CHECK_LINK_DIGESTS = {
    ("sigma_minus_first", False): "14c81f684689f92b383a98c2335a5b7b87baaf20036a6c3b1c8b1dc83a0c1b11",
    ("sigma_minus_first", True): "6be4334097e96dd9c7c66a9d1fc869e34ba37380385a91d1dec736111fbd31ae",
    ("dup", False): "aae4da7c1443de6241184d1c5a62b4cc1d4e5d4ea1eb7c96aa2d4918df0411a9",
    ("dup", True): "cf66024abe5e078a225110bc1ebfafa86d09219cbf8b73df5e2ec243f677bef4",
}


@pytest.mark.parametrize("name, as_json", list(CHECK_LINK_DIGESTS))
def test_check_link_failure_digest(capsys, tmp_path, name, as_json):
    path = tmp_path / f"{name}.vh"
    path.write_text(LINK_FAILURES[name](), encoding="utf-8")
    code, out = run(capsys, "check-link", str(path), *["--json"] * as_json)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_LINK_DIGESTS[name, as_json]


def _sigma_first_square_repeated():
    lines = corpus.text("sigma").splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("square"))
    return "".join(lines[:first + 1] + lines[first:])


# sigma with its first square, a1 b1 a2^-1 b2^-1, listed a second time:
# verbatim, or in another of its four readings
REPEATED_SQUARES = {
    "verbatim": _sigma_first_square_repeated,
    "reread": lambda: corpus.text("sigma") + "square a2^-1 b2^-1 a1 b1\n",
}


@pytest.mark.parametrize("name", list(REPEATED_SQUARES))
def test_repeated_square_fails_link_and_certificate(capsys, tmp_path, name):
    path = tmp_path / f"{name}.vh"
    path.write_text(REPEATED_SQUARES[name](), encoding="utf-8")
    code, out = run(capsys, "check-link", str(path))
    assert code == 1
    assert out == (
        "96/96 corners\n"
        "link condition FAILS\n"
        "duplicated corner (a1, b1)\n"
        "duplicated corner (a2, b1^-1)\n"
        "duplicated corner (a1^-1, b2)\n"
        "duplicated corner (a2^-1, b2^-1)\n"
    )
    code, out = run(capsys, "simple-cert", str(path), "--word", WORD,
                    "--assume-nrf", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["steps"][0]["name"] == "link_condition"
    assert report["steps"][0]["verdict"] == "fail"
    assert "simple group" not in report["conclusion"]


def test_irreducible(capsys, lambda_path):
    code, _ = run(capsys, "irreducible", lambda_path)
    assert code == 0


def test_nst(capsys, sigma_path):
    code, out = run(capsys, "nst", sigma_path)
    assert code == 0
    assert "pass" in out


def test_nst_fail_exit_one(capsys, tmp_path):
    torus = tmp_path / "torus.vh"
    torus.write_text(
        "complex torus\nhorizontal a1\nvertical b1\nsquare a1 b1 a1^-1 b1^-1\n"
    )
    code, _ = run(capsys, "nst", str(torus))
    assert code == 1


def test_nst_unknown_exit_two_like_simple_cert(capsys, sigma_path, monkeypatch):
    # an undecided stabilizer leaves the step unknown, the resource verdict,
    # whether it is run alone or inside the certificate
    monkeypatch.setattr(certificates, "recognized_simplicity", lambda group, name: None)
    code, out = run(capsys, "nst", sigma_path, "--json")
    assert code == 2
    assert json.loads(out)["verdict"] == "unknown"
    code, out = run(capsys, "simple-cert", sigma_path, "--word", WORD,
                    "--assume-nrf", "--json")
    assert code == 2
    steps = {step["name"]: step["verdict"] for step in json.loads(out)["steps"]}
    assert steps["normal_subgroup_theorem"] == "unknown"


def test_irreducible_and_nst_inapplicable_without_link_condition(capsys, tmp_path):
    path = tmp_path / "sigma_minus_first.vh"
    path.write_text(_sigma_without_first_square(), encoding="utf-8")
    code, out = run(capsys, "irreducible", str(path))
    assert code == 1
    assert out == "irreducibility: inapplicable\n  reason: link condition fails\n"
    code, out = run(capsys, "nst", str(path), "--json")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "inapplicable"
    assert report["values"] == {"reason": "link condition fails"}


def test_closure_index(capsys, sigma_path):
    code, out = run(capsys, "closure-index", sigma_path, "--word", WORD, "--json")
    assert code == 0
    assert json.loads(out)["index"] == 4


def test_closure_index_exhausted_exit_two(capsys, sigma_path):
    code, out = run(capsys, "closure-index", sigma_path,
                    "--word", WORD, "--cap", "50")
    assert code == 2
    assert "unknown" in out


@pytest.mark.parametrize("as_json", [False, True])
def test_out_of_memory_exit_two(sigma_path, as_json):
    # about 100 MB of address space, for the child alone: sigma's depth-3
    # horizontal local group runs out of it within a second
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))

    src = str(Path(vhcert.__file__).resolve().parents[1])
    argv = ["local", sigma_path, "--side", "h", "--depth", "3", *["--json"] * as_json]
    out = subprocess.run(
        [sys.executable, "-m", "vhcert", *argv], env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=limit_memory, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2 and "Traceback" not in out.stderr
    if as_json:
        assert json.loads(out.stdout) == {
            "complex": "sigma", "verdict": "unknown", "out_of_memory": True,
        }
    else:
        assert out.stdout == "exhausted: out of memory (result unknown)\n"


def test_out_of_memory_while_reading_exit_two(capsys, sigma_path, monkeypatch):
    # no complex was read, so the report names none
    def load(path):
        raise MemoryError

    monkeypatch.setattr("vhcert.cli._load", load)
    code, out = run(capsys, "check-link", sigma_path, "--json")
    assert code == 2
    assert json.loads(out) == {"complex": None, "verdict": "unknown", "out_of_memory": True}


def test_huge_exponent_exit_one(capsys, sigma_path):
    # refused before the word is expanded, with one line on stderr
    code = main(["closure-index", sigma_path, "--word", "a1^99999999999999999999"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_quotient(capsys, sigma_path):
    code, out = run(capsys, "quotient", sigma_path, "--word", WORD, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 4
    assert report["invariants"] == [2, 2]


def test_abelianize(capsys, corpus_dir):
    code, out = run(capsys, "abelianize", str(corpus_dir / "delta.vh"), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["free_rank"] == 3
    assert report["torsion"] == []


def test_rs(capsys, sigma_path):
    code, out = run(capsys, "rs", sigma_path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["generators"] == 37
    assert report["relators"] == 96
    assert report["perfect"] is True


def test_simplify(capsys, sigma_path):
    code, out = run(capsys, "simplify", sigma_path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["relator_generator_difference"] == 59
    assert report["simplified"]["generators"] <= 10


def test_rs_and_simplify_of_a_word_closure(capsys, sigma_path):
    # --word replaces the parity kernel by the normal closure of the word
    code, out = run(capsys, "rs", sigma_path, "--word", "a1", "--json")
    assert code == 0
    report = json.loads(out)
    assert (report["subgroup"], report["index"]) == ("normal closure of a1", 2)
    assert (report["generators"], report["relators"], report["total_length"]) == (19, 48, 180)
    code, out = run(capsys, "simplify", sigma_path, "--word", "a1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["raw"] == {"generators": 19, "relators": 48, "total_length": 180}
    assert report["simplified"] == {"generators": 3, "relators": 32, "total_length": 3274}
    assert report["relator_generator_difference"] == 29


def test_amalgam(capsys):
    code, out = run(capsys, "amalgam", "--m", "6", "--n", "4", "--json")
    assert code == 0
    report = json.loads(out)
    ranks = {
        (s["vertex_rank"], s["edge_rank"], s["vertex_rank"])
        for s in report["splittings"]
    }
    assert ranks == {(7, 73, 7), (11, 81, 11)}


@pytest.mark.parametrize("m, n", [("0", "1"), ("-3", "2"), ("2", "0")])
def test_amalgam_nonpositive_exit_64(capsys, m, n):
    code, err = usage_error(capsys, "amalgam", "--m", m, "--n", n)
    assert code == 64
    assert err.count("\n") == 1 and "--m and --n must be positive" in err


def test_simple_cert_matches_golden(capsys, sigma_path):
    code, out = run(capsys, "simple-cert", sigma_path,
                    "--word", WORD, "--assume-nrf", "--json")
    assert code == 0
    expected = json.loads((DATA / "sigma_certificate.json").read_text())
    assert json.loads(out) == expected


def test_simple_cert_text_mentions_conclusion(capsys, sigma_path):
    code, out = run(capsys, "simple-cert", sigma_path, "--word", WORD,
                    "--assume-nrf")
    assert code == 0
    assert "simple group of index 4" in out


def test_simple_cert_refuted_word_exit_zero(capsys, sigma_path):
    # every step verdict passes, so the exit code is 0, as for an odd word;
    # the refutation is in the conclusion
    code, out = run(capsys, "simple-cert", sigma_path, "--word", "a2*a1^-1*a3*a2^-1",
                    "--assume-nrf")
    assert code == 0
    assert "(Z^3, but Z^2 with the word as a relator)" in out
    assert "simple group" not in out


def test_simple_cert_exhaustion_exit_two(capsys, sigma_path):
    code, _ = run(capsys, "simple-cert", sigma_path, "--word", WORD,
                  "--assume-nrf", "--cap", "50")
    assert code == 2


def test_simple_cert_failure_exit_one(capsys, tmp_path):
    torus = tmp_path / "torus.vh"
    torus.write_text(
        "complex torus\nhorizontal a1\nvertical b1\nsquare a1 b1 a1^-1 b1^-1\n"
    )
    code, _ = run(capsys, "simple-cert", str(torus), "--word", "a1*a1",
                  "--assume-nrf")
    assert code == 1


def test_json_output_is_deterministic(capsys, sigma_path):
    outputs = set()
    for _ in range(2):
        _, out = run(capsys, "simple-cert", sigma_path,
                     "--word", WORD, "--assume-nrf", "--json")
        outputs.add(out)
    assert len(outputs) == 1


def usage_error(capsys, *argv):
    """Exit code and stderr of an invocation that must fail as a usage error."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    return info.value.code, capsys.readouterr().err


def test_word_required(capsys, sigma_path):
    code, err = usage_error(capsys, "closure-index", sigma_path)
    assert code == 64
    assert err.count("\n") == 1 and "--word" in err


@pytest.mark.parametrize("argv", [
    ["closure-index", "--word", WORD, "--cap", "0"],
    ["simplify", "--budget", "0"],
])
def test_nonpositive_cap_or_budget_exit_64(capsys, sigma_path, argv):
    code, err = usage_error(capsys, argv[0], sigma_path, *argv[1:])
    assert code == 64
    assert err.count("\n") == 1 and "caps and budgets must be positive" in err


@pytest.mark.parametrize("depth", ["0", "4"])
def test_local_depth_out_of_range_exit_64(capsys, lambda_path, depth):
    code, err = usage_error(capsys, "local", lambda_path, "--depth", depth)
    assert code == 64
    assert err.count("\n") == 1 and "--depth" in err


def test_directory_path_exit_64(capsys, corpus_dir):
    code = main(["check-link", str(corpus_dir)])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


TOKENS = ["complex", "horizontal", "vertical", "square", "a1", "a2", "b1", "b2",
          "a1^-1", "b1^-1", "b2^-1", "a1^2", "^-1", "^", "#", "x", "0", ""]


def _corpus_variants(name):
    """The complex's header with its squares reordered (link-valid), or
    with a random selection of them, repeats allowed (link usually fails)."""
    lines = corpus.text(name).splitlines()
    squares = [line for line in lines if line.startswith("square")]
    header = [line for line in lines if line not in squares]
    picked = st.one_of(st.permutations(squares),
                       st.lists(st.sampled_from(squares), max_size=len(squares)))
    return picked.map(lambda chosen: "\n".join(header + list(chosen)))


token_soup = st.lists(
    st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join), max_size=12
).map("\n".join)
corpus_variants = st.sampled_from(corpus.NAMES).flatmap(_corpus_variants)
file_texts = st.one_of(st.text(max_size=200), token_soup, corpus_variants)
file_contents = st.one_of(st.binary(max_size=200), file_texts.map(str.encode))


@settings(max_examples=150, deadline=None)
@given(file_texts)
@example(corpus.text("sigma"))
def test_parse_complex_raises_only_complex_error(text):
    try:
        parse_complex(text)
    except ComplexError:
        pass


def quiet_exit_code(argv):
    """Exit code of ``main(argv)``, argparse exits included; stdout and
    stderr are swallowed, and any other exception escapes."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.vh"


@settings(max_examples=150, deadline=None)
@given(content=file_contents,
       argv=st.sampled_from([["check-link"], ["euler"], ["abelianize"],
                             ["local", "--depth", "1"]]))
@example(content=corpus.text("lambda").encode(), argv=["local", "--depth", "1"])
def test_cli_survives_any_file(fuzz_path, content, argv):
    fuzz_path.write_bytes(content)
    assert quiet_exit_code([argv[0], str(fuzz_path), *argv[1:]]) in (0, 1, 2, 64)


@settings(max_examples=150, deadline=None)
@given(content=file_contents,
       argv=st.sampled_from([
           ["irreducible"], ["nst"], ["local", "--depth", "2"],
           ["closure-index", "--word", "a1", "--cap", "300"],
           ["quotient", "--word", "a1*b1", "--cap", "300"],
           ["rs", "--cap", "300"], ["rs", "--word", "a1", "--cap", "300"],
           ["simplify", "--cap", "300"],
           ["simple-cert", "--word", "a1*a1", "--cap", "300"],
       ]))
@example(content=corpus.text("lambda").encode(), argv=["nst"])
def test_every_subcommand_survives_any_file(fuzz_path, content, argv):
    fuzz_path.write_bytes(content)
    assert quiet_exit_code([argv[0], str(fuzz_path), *argv[1:]]) in (0, 1, 2, 64)


@settings(max_examples=100, deadline=None)
@given(st.integers(), st.integers())
def test_cli_amalgam_survives_any_integers(m, n):
    assert quiet_exit_code(["amalgam", "--m", str(m), "--n", str(n)]) in (0, 64)
