import copy
import pickle
import sys

import pytest
from hypothesis import example, given, strategies as st

from mindswap import cli, perm, plandoc
from mindswap.infinite import finitary_extension, invert_finitary_two_step
from mindswap.keeler import solve_two_machine
from mindswap.machine import solve_m_machine
from mindswap.moves import MachineMove, plan_product
from mindswap.optimal3 import solve_three_machine_optimal
from mindswap.oracle import RuleSet, search_min_plan
from mindswap.perm import (
    Element,
    INSIDER,
    OUTSIDER,
    ParseError,
    Permutation,
    _compose_cycles,
    _natural,
    format_cycles,
    insider,
    outsider,
    parse_cycles,
    parse_element,
)

from conftest import permutation_from_images


def cyc(*indices):
    return Permutation.from_cycle([insider(i) for i in indices])


class TestParse:
    def test_product_of_overlapping_cycles(self):
        assert parse_cycles("(1 5)(1 2 3)(1 4)") == cyc(1, 4, 2, 3, 5)

    def test_empty_text_is_identity(self):
        assert parse_cycles("") == Permutation.identity()
        assert parse_cycles("()") == Permutation.identity()

    def test_canonical_rotation(self):
        p = parse_cycles("(2 1)")
        assert p.cycles == ((insider(1), insider(2)),)

    def test_prefixed_and_bare_tokens_agree(self):
        assert parse_cycles("(a1 a2)(x1 a3)") == parse_cycles("(1 2)(x1 3)")

    def test_whitespace_tolerant(self):
        assert parse_cycles("  ( 1   2 )\n(3 4) ") == parse_cycles("(1 2)(3 4)")

    def test_malformed_token(self):
        with pytest.raises(ParseError):
            parse_cycles("(1 b2)")
        with pytest.raises(ParseError):
            parse_cycles("(a01 a2)")
        for text in ["(0 1)", "(\u00b2 a1)", "(a\u0663 a1)", "(01 2)"]:
            with pytest.raises(ParseError):
                parse_cycles(text)

    def test_index_digits_stop_at_the_int_limit(self):
        limit = sys.get_int_max_str_digits()
        index = int("9" * limit)
        assert parse_cycles(f"(a{'9' * limit} a2)") == cyc(index, 2)
        with pytest.raises(ParseError, match="^malformed element token 'a1"):
            parse_cycles(f"(a1{'0' * limit} a2)")

    @given(
        st.one_of(
            st.text(alphabet="()ax0123456789 \u00b2\u0663", max_size=30),
            st.lists(
                st.lists(st.text(alphabet="ax0123456789\u00b2\u0663", min_size=1, max_size=4),
                         max_size=4),
                max_size=3,
            ).map(lambda groups: "".join("(" + " ".join(g) + ")" for g in groups)),
        )
    )
    def test_only_parse_errors_escape(self, text):
        try:
            parse_cycles(text)
        except ParseError:
            pass

    def test_repeat_within_cycle(self):
        with pytest.raises(ParseError):
            parse_cycles("(1 1 2)")

    def test_repeat_across_cycles_is_fine(self):
        assert parse_cycles("(1 2)(2 3)") == cyc(1, 2, 3)

    def test_unbalanced_parentheses(self):
        with pytest.raises(ParseError):
            parse_cycles("(1 2")
        with pytest.raises(ParseError):
            parse_cycles("1 2)")
        with pytest.raises(ParseError):
            parse_cycles("(1 (2))")


def natural_parse_element(token: str) -> Element:
    """Parse "a3", "x2" or a bare integer (bare integers are insiders).

    Every index is ASCII digits with no leading zero, and not 0.
    """
    kind, digits = INSIDER, token
    if token[:1] in (INSIDER, OUTSIDER):
        kind, digits = token[:1], token[1:]
    index = _natural(digits)
    if index:
        return Element(kind, index)
    raise ParseError(f"malformed element token {token!r}")


def character_loop_parse_cycles(text: str) -> Permutation:
    """The reference parser: one pass over the characters of the text, each
    token read by the reference element parser."""
    groups: list[list[Element]] = []
    current: list[Element] | None = None
    token = ""

    def flush_token() -> None:
        nonlocal token
        if token:
            if current is None:
                raise ParseError(f"element {token!r} outside parentheses")
            current.append(natural_parse_element(token))
            token = ""

    for ch in text:
        if ch == "(":
            if current is not None:
                raise ParseError("nested '(' in cycle notation")
            current = []
        elif ch == ")":
            flush_token()
            if current is None:
                raise ParseError("unbalanced ')' in cycle notation")
            groups.append(current)
            current = None
        elif ch.isspace():
            flush_token()
        elif current is None:
            raise ParseError(f"unexpected character {ch!r} outside parentheses")
        else:
            token += ch
    if current is not None:
        raise ParseError("unbalanced '(' in cycle notation")

    for group in groups:
        if len(set(group)) != len(group):
            raise ParseError(f"repeated element within cycle ({' '.join(map(str, group))})")
    return _compose_cycles(reversed(groups))


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return str(err)


CYCLE_TEXT_ALPHABET = "()ax0123456789 \t\n\x1c\u3000\u00b2\u0663"
TOKEN_ALPHABET = "ax0123456789\u00b2\u0663"


class TestParserDifferential:
    """parse_cycles against the character loop it replaced.

    The two differ in one case only: a malformed token glued to a '(' or
    left at the end of an unclosed group is reported as a malformed token,
    where the character loop reported the parenthesis.
    """

    @given(
        st.one_of(
            st.text(alphabet=CYCLE_TEXT_ALPHABET, max_size=40),
            st.lists(
                st.lists(st.text(alphabet=TOKEN_ALPHABET, min_size=1, max_size=3), max_size=5),
                max_size=4,
            ).map(lambda groups: "".join("(" + " ".join(g) + ")" for g in groups)),
        )
    )
    def test_same_permutation_or_same_error(self, text):
        expected = parse_outcome(character_loop_parse_cycles, text)
        actual = parse_outcome(parse_cycles, text)
        if actual != expected:
            assert expected in ("nested '(' in cycle notation", "unbalanced '(' in cycle notation")
            assert actual.startswith("malformed element token ")

    @pytest.mark.parametrize(
        "text, before",
        [("(0(", "nested '('"), ("(a1 0", "unbalanced '('"), ("(1 2)(b", "unbalanced '('")],
    )
    def test_departure_reports_the_token(self, text, before):
        assert parse_outcome(character_loop_parse_cycles, text) == f"{before} in cycle notation"
        assert parse_outcome(parse_cycles, text).startswith("malformed element token ")


class TestElementParserDifferential:
    """parse_element's one regex against the digit-rule parser it replaced."""

    @given(st.text(alphabet="ax0123456789\u0663\u00b2", max_size=6))
    @example("")
    @example("a")
    @example("a0")
    @example("a01")
    @example("xa1")
    @example("0")
    def test_same_element_or_same_error(self, token):
        assert parse_outcome(parse_element, token) == parse_outcome(natural_parse_element, token)


def isdigit_natural(text: str) -> int | None:
    """The value of ASCII digits with no sign and no leading zero ("0" itself
    allowed), or None for any other text."""
    if text.isascii() and text.isdigit() and (text == "0" or not text.startswith("0")):
        return int(text)
    return None


class TestNaturalDifferential:
    """_natural's shared index pattern against the str-method rule it replaced."""

    @given(st.text(alphabet="0123456789\u0663\u00b2_+- a", max_size=6))
    @example("")
    @example("0")
    @example("00")
    @example("07")
    @example("10")
    @example("7\n")
    def test_same_value_or_none(self, text):
        assert _natural(text) == isdigit_natural(text)


def dataclass_move_seats(seats) -> tuple:
    """The seat rule of the dataclass move it replaced: at least 2 seats, no
    repeats, rotated so the least seat leads."""
    seats = tuple(seats)
    if len(seats) < 2:
        raise ValueError("a machine move needs at least 2 seats")
    if len(set(seats)) != len(seats):
        raise ValueError(f"repeated seat in move ({' '.join(map(str, seats))})")
    lead = seats.index(min(seats))
    return seats[lead:] + seats[:lead]


def move_outcome(build, seats):
    try:
        return build(seats)
    except ValueError as err:
        return str(err)


SEATS = [insider(1), insider(2), insider(3), insider(4), outsider(1), outsider(2)]


class TestMoveDifferential:
    """MachineMove, a tuple, against the dataclass seat rule it replaced."""

    @given(st.lists(st.sampled_from(SEATS), max_size=6))
    @example([])
    @example([insider(1)])
    @example([insider(2), outsider(1), insider(2)])
    @example([insider(1), outsider(1), insider(2)])
    def test_same_seats_or_same_error(self, seats):
        expected = move_outcome(dataclass_move_seats, seats)
        actual = move_outcome(MachineMove, seats)
        assert actual == expected
        assert type(actual) is (str if isinstance(expected, str) else MachineMove)


class TestMoveType:
    def test_a_move_is_its_seat_tuple(self):
        move = MachineMove((outsider(1), insider(2), insider(1)))
        assert isinstance(move, tuple)
        assert not hasattr(move, "__dict__")
        assert move == (insider(1), outsider(1), insider(2))
        assert str(move) == "(a1 x1 a2)"
        assert repr(move) == "MachineMove(a1 x1 a2)"


class TestParseCounts:
    """Each distinct element token is parsed once per text."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        tokens = []

        def counting_parse_element(token):
            tokens.append(token)
            return parse_element(token)

        monkeypatch.setattr(perm, "parse_element", counting_parse_element)
        # also counted if plandoc ever reads tokens through its own import
        monkeypatch.setattr(plandoc, "parse_element", counting_parse_element, raising=False)
        return tokens

    def test_parse_cycles(self, parsed):
        assert parse_cycles("(a1 a2)(a1 a3)(a2 a3)") == Permutation.from_cycle(
            [insider(1), insider(3)]
        )
        assert sorted(parsed) == ["a1", "a2", "a3"]

    def test_plan_document(self, parsed):
        text = plandoc.dumps(solve_three_machine_optimal(cyc(*range(1, 10))))
        parsed.clear()
        doc = plandoc.loads(text)
        distinct = {str(s) for move in doc.moves for s in move}
        assert distinct == {f"a{i}" for i in range(1, 10)} | {"x1"}
        assert sorted(parsed) == sorted(distinct)


class TestInsidersOnly:
    @pytest.mark.parametrize(
        "site",
        [
            lambda p: cli._parse_target(format_cycles(p)),
            solve_two_machine,
            lambda p: solve_m_machine(p, 3),
            solve_three_machine_optimal,
            lambda p: search_min_plan(p, RuleSet(m=3, outsiders=(outsider(2),)), -1),
            invert_finitary_two_step,
            finitary_extension,
        ],
        ids=["cli", "keeler2", "general_m", "optimal3", "oracle", "finitary2", "extension"],
    )
    def test_every_site_rejects_a_moved_outsider_first(self, site):
        # an odd target and a negative step limit: the outsider check comes first
        with pytest.raises(ValueError, match=r"^target must move insiders only$"):
            site(parse_cycles("(a1 x1)"))


class TestCompose:
    def test_stepwise_matches_parsed_product(self):
        p = cyc(1, 5)
        q = cyc(1, 2, 3) * cyc(1, 4)
        assert p * q == cyc(1, 4, 2, 3, 5)

    def test_identity_law(self):
        p = parse_cycles("(1 2 3)(4 5)")
        assert p * Permutation.identity() == p
        assert Permutation.identity() * p == p

    def test_inverse_law(self):
        p = parse_cycles("(1 2 3)(4 5)")
        assert p * p.inverse() == Permutation.identity()

    def test_rightmost_acts_first(self):
        p = cyc(1, 2)
        q = cyc(2, 3)
        assert (p * q).apply(insider(2)) == insider(3)
        assert (q * p).apply(insider(2)) == insider(1)


class TestInverse:
    def test_three_cycle(self):
        assert cyc(1, 2, 3).inverse() == cyc(1, 3, 2)

    def test_identity(self):
        assert Permutation.identity().inverse() == Permutation.identity()

    def test_mixed_cycles(self):
        p = parse_cycles("(1 2)(3 4 5)")
        assert p.inverse() == parse_cycles("(1 2)(3 5 4)")
        assert p * p.inverse() == Permutation.identity()


class TestApply:
    def test_moved_point(self):
        assert cyc(1, 4, 2, 3, 5).apply(insider(1)) == insider(4)

    def test_fixed_point(self):
        assert cyc(1, 4, 2, 3, 5).apply(insider(6)) == insider(6)

    def test_outsider_untouched(self):
        assert cyc(1, 2).apply(outsider(1)) == outsider(1)


class TestParity:
    def test_three_cycle_even(self):
        assert cyc(1, 2, 3).parity() == 0

    def test_four_cycle_odd(self):
        assert cyc(1, 2, 3, 4).parity() == 1

    def test_identity_even(self):
        assert Permutation.identity().parity() == 0


class TestSupportAndCycles:
    def test_support(self):
        assert parse_cycles("(1 2)(3 4)").support() == frozenset(
            {insider(1), insider(2), insider(3), insider(4)}
        )
        assert Permutation.identity().support() == frozenset()
        p = parse_cycles("(a1 a3 x1)")
        assert p.support() == frozenset({insider(1), insider(3), outsider(1)})

    def test_decomposition_single_cycle(self):
        assert cyc(1, 4, 2, 3, 5).cycles == (
            (insider(1), insider(4), insider(2), insider(3), insider(5)),
        )

    def test_decomposition_identity(self):
        assert Permutation.identity().cycles == ()

    def test_decomposition_merges_overlap(self):
        assert parse_cycles("(1 2)(2 3)").cycles == ((insider(1), insider(2), insider(3)),)


class TestElementOrdering:
    """An Element is the tuple (kind, index): the dataclass it replaced had
    the same order and hash.  The one departure is that it now equals the
    plain tuple, because tuple equality is what runs in C."""

    def test_insiders_before_outsiders(self):
        assert insider(99) < outsider(1)
        assert insider(1) < insider(2)
        assert outsider(1) < outsider(2)
        assert insider(2) < insider(10) < outsider(1)
        assert sorted([outsider(1), insider(10), insider(2)]) == [
            insider(2), insider(10), outsider(1)
        ]

    def test_hash_is_the_dataclass_hash(self):
        assert hash(insider(3)) == hash(("a", 3))
        assert hash(outsider(12)) == hash(("x", 12))

    def test_str(self):
        assert str(insider(3)) == "a3"
        assert str(outsider(12)) == "x12"
        assert repr(insider(3)) == "Element(a3)"
        assert repr(outsider(12)) == "Element(x12)"

    def test_fields_are_read_only(self):
        e = outsider(4)
        assert (e.kind, e.index, e.is_outsider) == ("x", 4, True)
        assert not insider(4).is_outsider
        with pytest.raises(AttributeError):
            e.index = 5

    def test_equals_the_plain_tuple(self):
        assert Element("a", 1) == ("a", 1) == insider(1)
        assert isinstance(insider(1), tuple)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        e = pickle.loads(pickle.dumps(outsider(7), protocol))
        assert type(e) is Element and e == outsider(7)
        move = MachineMove((outsider(1), insider(2), insider(1)))
        back = pickle.loads(pickle.dumps(move, protocol))
        assert type(back) is MachineMove and back == move

    def test_copy_round_trip(self):
        for e in (copy.copy(insider(5)), copy.deepcopy(insider(5))):
            assert type(e) is Element and e == insider(5)
        moved = copy.deepcopy(MachineMove((outsider(1), insider(2))))
        assert all(type(s) is Element for s in moved)
        move = MachineMove((outsider(1), insider(2), insider(1)))
        for back in (copy.copy(move), copy.deepcopy(move)):
            assert type(back) is MachineMove and back == move

    def test_bad_index(self):
        with pytest.raises(ValueError, match=r"^element index must be a positive integer, got 0$"):
            Element("a", 0)
        with pytest.raises(ValueError, match=r"^unknown element kind 'q'$"):
            Element("q", 1)
        with pytest.raises(ValueError, match=r"^element index must be a positive integer, got '1'$"):
            Element("a", "1")
        with pytest.raises(ValueError, match=r"^element index must be a positive integer, got 2.5$"):
            Element("a", 2.5)

    def test_bool_index_rejected(self):
        for flag in (True, False):
            with pytest.raises(
                ValueError, match=rf"^element index must be a positive integer, got {flag}$"
            ):
                Element("a", flag)


@st.composite
def permutations(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    images = draw(st.permutations(list(range(1, n + 1))))
    return permutation_from_images(list(images))


class TestProperties:
    @given(permutations())
    def test_round_trip(self, p):
        assert parse_cycles(format_cycles(p)) == p

    @given(permutations(max_n=6), permutations(max_n=6), permutations(max_n=6))
    def test_associativity(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(permutations())
    def test_inverse_cancels(self, p):
        assert p * p.inverse() == Permutation.identity()
        assert p.inverse() * p == Permutation.identity()

    @given(permutations(max_n=8), permutations(max_n=8))
    def test_parity_is_additive(self, p, q):
        assert (p * q).parity() == (p.parity() + q.parity()) % 2

    @given(permutations())
    def test_cycles_disjoint_and_reconstruct(self, p):
        seen = set()
        for cycle in p.cycles:
            assert len(cycle) >= 2
            assert not (set(cycle) & seen)
            seen |= set(cycle)
        rebuilt = Permutation.identity()
        for cycle in reversed(p.cycles):
            rebuilt = Permutation.from_cycle(cycle) * rebuilt
        assert rebuilt == p


def pairwise_product(groups):
    """Reference: the written product folded one factor at a time with *."""
    acc = Permutation.identity()
    for g in groups:
        acc = acc * Permutation({g[i]: g[(i + 1) % len(g)] for i in range(len(g))})
    return acc


# A small universe, so that cycles overlap often.
cycle_lists = st.lists(
    st.lists(
        st.sampled_from([insider(i) for i in range(1, 7)] + [outsider(1), outsider(2)]),
        unique=True,
        max_size=6,
    ),
    max_size=8,
)


def written(groups):
    return "".join("(" + " ".join(map(str, g)) + ")" for g in groups)


class TestLinearFold:
    @given(cycle_lists)
    def test_parse_matches_pairwise_fold(self, groups):
        assert parse_cycles(written(groups)) == pairwise_product(groups)

    @given(cycle_lists)
    def test_plan_product_matches_pairwise_fold(self, groups):
        seats = [g for g in groups if len(g) >= 2]
        moves = [MachineMove(tuple(g)) for g in seats]
        assert plan_product(moves) == pairwise_product(list(reversed(seats)))

    @given(cycle_lists)
    def test_format_round_trip(self, groups):
        text = format_cycles(parse_cycles(written(groups)))
        assert format_cycles(parse_cycles(text)) == text

    @given(cycle_lists)
    def test_equal_permutations_hash_equally(self, groups):
        p = parse_cycles(written(groups))
        q = pairwise_product(groups)
        assert hash(p) == hash(q)
        assert len({p, q, p.inverse().inverse()}) == 1
