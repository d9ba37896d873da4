import re

import pytest
from hypothesis import example, given, settings, strategies as st

from vhcert import corpus
from vhcert.complexes import (
    ComplexError,
    Square,
    SquareComplex,
    canonical_square,
    check_link,
    check_subcomplex,
    euler_characteristic,
    letters_from_names,
    parse_complex,
    render_complex,
)
from vhcert.fpgroups import presentation_from_complex

# Letters of a complex with M horizontal generators: a_i is 2(i - 1), b_j
# is 2(M + j - 1), and each inverse is one more.
M = 4


def h(i, inverted=False):
    return 2 * (i - 1) + inverted


def v(j, inverted=False):
    return 2 * (M + j - 1) + inverted


def test_corpus_shapes(lam, delta, sigma):
    assert (lam.m, lam.n, len(lam.squares)) == (3, 3, 9)
    assert (delta.m, delta.n, len(delta.squares)) == (4, 3, 12)
    assert (sigma.m, sigma.n, len(sigma.squares)) == (6, 4, 24)


def test_link_holds_on_corpus(lam, delta, sigma):
    for c, corners in ((lam, 36), (delta, 48), (sigma, 96)):
        report = check_link(c)
        assert report.ok
        assert report.total_corners == corners
        assert report.corners_covered == corners


def test_letter_involution(sigma):
    x = h(2)
    assert x ^ 1 ^ 1 == x
    assert x ^ 1 != x
    assert (sigma.letter_name(x), sigma.letter_name(x ^ 1)) == ("a2", "a2^-1")


def test_parsed_letters_are_the_presentation_letters():
    # a1 is generator 0 and b1 generator 1: letters 0, 1 and 2, 3
    c = parse_complex("complex t\nhorizontal a1\nvertical b1\nsquare a1 b1 a1^-1 b1^-1\n")
    assert c.squares == ((0, 2, 1, 3),)
    p = presentation_from_complex(c)
    assert p.relators == ((0, 2, 1, 3),)
    assert p.word_to_string(p.relators[0]) == "a1*b1*a1^-1*b1^-1"
    assert [c.side(x) for x in range(4)] == ["h", "h", "v", "v"]


def test_canonical_square_identifies_cyclic_form():
    a1, a2 = h(1), h(2)
    b2, b3 = v(2), v(3)
    first = canonical_square(a1, b3, a2, b2 ^ 1)
    second = canonical_square(a2, b2 ^ 1, a1, b3)
    assert first == second


def test_canonical_square_identifies_inverse_form():
    a1, b1 = h(1), v(1)
    first = canonical_square(a1, b1, a1 ^ 1, b1 ^ 1)
    second = canonical_square(a1 ^ 1, b1, a1, b1 ^ 1)
    assert first == second


def test_canonical_idempotent_on_sigma(sigma):
    for sq in sigma.squares:
        assert canonical_square(*sq) == sq


def test_canonical_rejects_side_violation():
    a, b = 0, 2  # a1 and b1 of a (2,2)-complex
    with pytest.raises(ComplexError, match="wrong side"):
        SquareComplex.build("x", ("a1",), ("b1",), [(b, a, b ^ 1, a ^ 1)])


@pytest.mark.parametrize("x", [-1, 4, 7])
def test_build_rejects_letters_outside_the_alphabet(x):
    with pytest.raises(ComplexError, match="outside the declared alphabet"):
        SquareComplex.build("x", ("a1",), ("b1",), [(0, 2, 1, x)])


letters_h = st.builds(h, st.integers(1, 4), st.booleans())
letters_v = st.builds(v, st.integers(1, 4), st.booleans())


@given(letters_h, letters_v, letters_h, letters_v)
def test_canonical_invariant_under_all_forms(a, b, a2, b2):
    expected = canonical_square(a, b, a2, b2)
    for form in Square(a, b, a2, b2).forms():
        assert canonical_square(*form) == expected


def test_parse_rejects_vacuous_alphabet():
    with pytest.raises(ComplexError):
        parse_complex("complex empty\nhorizontal\nvertical b1\n")


def test_parse_zero_squares_then_link_fails():
    c = parse_complex("complex bare\nhorizontal a1\nvertical b1\n")
    assert len(c.squares) == 0
    assert not check_link(c).ok


def test_parse_error_carries_line_number():
    text = "complex x\nhorizontal a1\nvertical b1\nsquare a1 b1 a1\n"
    with pytest.raises(ComplexError, match="line 4"):
        parse_complex(text)


@pytest.mark.parametrize("kind", ["horizontal", "vertical"])
def test_parse_rejects_second_alphabet_line(kind):
    # a second alphabet line would leave earlier squares indexing the old one
    text = "complex t\nhorizontal a1\nvertical b1\nsquare a1 b1 a1^-1 b1^-1\n"
    with pytest.raises(ComplexError, match=f"line 5: duplicate {kind} line"):
        parse_complex(text + f"{kind} x1\n")


@pytest.mark.parametrize("text, message", [
    ("complex x\nhorizontal a1\nvertical b1\nsquare a1^2 b1 a1^-1 b1^-1\n",
     r"^line 4: bad exponent in 'a1\^2' \(only \^-1 is allowed\)$"),
    ("complex x\ncomplex y\n", "^line 2: duplicate complex line$"),
    ("complex x\nhorizontal a1\nvertical\n",
     "^line 3: at least one vertical generator is required$"),
], ids=["exponent", "second_complex", "bare_vertical"])
def test_parse_rejects_malformed_lines(text, message):
    with pytest.raises(ComplexError, match=message):
        parse_complex(text)


@pytest.mark.parametrize("call, message", [
    (lambda c: SquareComplex.build("x", (), c.vnames, []),
     "^both generator families must be nonempty$"),
    (lambda c: letters_from_names(c, ["a1", "a9"]), "^unknown generator 'a9'$"),
    (lambda c: check_subcomplex(c, set(), letters_from_names(c, ["b1"])),
     "^subcomplex generator subsets must be nonempty$"),
], ids=["empty_family", "unknown_name", "empty_subset"])
def test_generator_sets_are_validated(sigma, call, message):
    with pytest.raises(ComplexError, match=message):
        call(sigma)


def test_parse_rejects_wrong_side():
    text = "complex x\nhorizontal a1\nvertical b1\nsquare b1 a1 b1 a1\n"
    with pytest.raises(ComplexError, match="undeclared"):
        parse_complex(text)


def test_parse_rejects_unknown_generator():
    text = "complex x\nhorizontal a1\nvertical b1\nsquare a9 b1 a1 b1\n"
    with pytest.raises(ComplexError, match="undeclared"):
        parse_complex(text)


def test_round_trip_corpus(lam, delta, sigma):
    for c in (lam, delta, sigma):
        assert parse_complex(render_complex(c)) == c


def test_missing_square_gives_four_missing_corners(lam):
    broken = SquareComplex(lam.name, lam.hnames, lam.vnames, lam.squares[1:])
    report = check_link(broken)
    assert not report.ok
    assert len(report.missing_corners) == 4
    assert len(report.duplicate_corners) == 0


def test_duplicate_square_reported():
    text = (
        "complex dup\nhorizontal a1\nvertical b1 b2\n"
        "square a1 b1 a1^-1 b1^-1\n"
        "square a1 b1 a1^-1 b2^-1\n"
    )
    report = check_link(parse_complex(text))
    assert not report.ok
    assert report.duplicate_corners


@pytest.mark.parametrize("again", ["a1 b1 a1^-1 b1^-1", "a1^-1 b1 a1 b1^-1"])
def test_repeated_square_is_kept(again):
    # the same square twice, verbatim or in another reading: kept twice,
    # so each of its corners is duplicated rather than silently merged
    text = "complex rep\nhorizontal a1\nvertical b1\nsquare a1 b1 a1^-1 b1^-1\n"
    c = parse_complex(text + f"square {again}\n")
    assert len(c.squares) == 2 and c.squares[0] == c.squares[1]
    report = check_link(c)
    assert not report.ok
    assert len(report.duplicate_corners) == 4
    assert parse_complex(render_complex(c)) == c


@pytest.mark.parametrize("name", ["a*1", "*", "a^1", "^", "1"])
def test_build_rejects_names_words_cannot_read(name):
    # parse_word splits on '*' and '^' and reads a bare 1 as the identity
    with pytest.raises(ComplexError, match=re.escape(f"generator name {name!r}")):
        parse_complex(f"complex x\nhorizontal a1\nvertical {name}\n")
    with pytest.raises(ComplexError, match=re.escape(f"generator name {name!r}")):
        SquareComplex.build("x", (name,), ("b1",), [])


@pytest.mark.parametrize("name", ["", "a b", "a\tb", "a\xa0b", "a\nb", "a#1", "#"])
def test_build_rejects_names_files_cannot_read(name):
    # a file line splits on whitespace and ends at '#', and an empty name
    # leaves no token at all
    with pytest.raises(ComplexError, match=re.escape(f"generator name {name!r}")):
        SquareComplex.build("x", ("a1",), (name,), [])


@pytest.mark.parametrize("name", ["", "a b", "a#1", "x\n", "\u2028"])
def test_build_rejects_complex_names_files_cannot_read(name):
    # the complex line splits on whitespace and ends at '#'
    with pytest.raises(ComplexError, match=re.escape(f"complex name {name!r}")):
        SquareComplex.build(name, ("a1",), ("b1",), [(0, 2, 1, 3)])


generator_names = st.lists(st.text(max_size=4), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=4), generator_names, generator_names)
@example("x", ["a b"], ["b1"])
@example("x", ["a1"], ["b#1"])
@example("x", ["a\u2028"], ["b1"])
@example("a b", ["a1"], ["b1"])
@example("x\n", ["a1"], ["b1"])
def test_built_names_round_trip_or_raise(name, hnames, vnames):
    # one square a1 b1 a1^-1 b1^-1, so the names are written in a square line too
    m = len(hnames)
    try:
        c = SquareComplex.build(name, hnames, vnames, [(0, 2 * m, 1, 2 * m + 1)])
    except ComplexError:
        return
    assert parse_complex(render_complex(c)) == c


def test_euler_characteristic(lam, delta, sigma):
    assert euler_characteristic(sigma) == 15
    assert euler_characteristic(lam) == 4
    assert euler_characteristic(delta) == 6


def test_subcomplex_recovers_delta(sigma, delta):
    ok, sub = check_subcomplex(
        sigma,
        letters_from_names(sigma, ["a1", "a2", "a3", "a4"]),
        letters_from_names(sigma, ["b1", "b2", "b3"]),
    )
    assert ok
    assert (sub.m, sub.n) == (4, 3)
    assert sub.squares == delta.squares


def test_subcomplex_full_is_identity(sigma):
    ok, sub = check_subcomplex(
        sigma,
        letters_from_names(sigma, sigma.hnames),
        letters_from_names(sigma, sigma.vnames),
    )
    assert ok
    assert sub.squares == sigma.squares


def test_subcomplex_a5_a6_b4_fails(sigma):
    ok, sub = check_subcomplex(
        sigma,
        letters_from_names(sigma, ["a5", "a6"]),
        letters_from_names(sigma, ["b4"]),
    )
    assert not ok


def test_subcomplex_rejects_non_inversion_closed(sigma):
    with pytest.raises(ComplexError, match="inversion"):
        check_subcomplex(
            sigma,
            {h(1)},
            letters_from_names(sigma, ["b1"]),
        )


@pytest.mark.parametrize("hsub, message", [
    ({-2, -1}, "outside the alphabet"),
    ({0, 1, 20, 21}, "outside the alphabet"),
    ({0, 1, 12, 13}, "b1 in the wrong subset"),
], ids=["negative", "past_the_end", "wrong_side"])
def test_subcomplex_rejects_bad_letters(sigma, hsub, message):
    # sigma has 6 + 4 generators, so its letters are 0..19 and b1 is 12
    with pytest.raises(ComplexError, match=message):
        check_subcomplex(sigma, hsub, letters_from_names(sigma, ["b1"]))


def test_subcomplex_full_true_for_all_corpus(lam, delta, sigma):
    for c in (lam, delta, sigma):
        ok, _ = check_subcomplex(
            c,
            letters_from_names(c, c.hnames),
            letters_from_names(c, c.vnames),
        )
        assert ok


def test_corner_count_identity(lam, delta, sigma):
    # every (a, b) pair appears exactly once; 4mn corners total
    for c in (lam, delta, sigma):
        entries = c.corner_entries
        assert len(entries) == 4 * c.m * c.n
        assert all(len(v) == 1 for v in entries.values())
