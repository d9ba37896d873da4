import pytest
from hypothesis import given, strategies as st

from vhcert import corpus
from vhcert.complexes import (
    ComplexError,
    Letter,
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


def test_letter_involution():
    x = Letter("h", 2)
    assert x.inverse().inverse() == x
    assert x.inverse() != x


def test_canonical_square_identifies_cyclic_form():
    a1, a2 = Letter("h", 1), Letter("h", 2)
    b2, b3 = Letter("v", 2), Letter("v", 3)
    first = canonical_square(a1, b3, a2, b2.inverse())
    second = canonical_square(a2, b2.inverse(), a1, b3)
    assert first == second


def test_canonical_square_identifies_inverse_form():
    a1, b1 = Letter("h", 1), Letter("v", 1)
    first = canonical_square(a1, b1, a1.inverse(), b1.inverse())
    second = canonical_square(a1.inverse(), b1, a1, b1.inverse())
    assert first == second


def test_canonical_idempotent_on_sigma(sigma):
    for sq in sigma.squares:
        assert canonical_square(*sq) == sq


def test_canonical_rejects_side_violation():
    a, b = Letter("h", 1), Letter("v", 1)
    with pytest.raises(ComplexError):
        canonical_square(b, a, b.inverse(), a.inverse())


letters_h = st.builds(Letter, st.just("h"), st.integers(1, 4), st.booleans())
letters_v = st.builds(Letter, st.just("v"), st.integers(1, 4), st.booleans())


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
            {Letter("h", 1)},
            letters_from_names(sigma, ["b1"]),
        )


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
