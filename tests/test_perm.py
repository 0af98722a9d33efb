import builtins
import copy
import pickle
import re
import sys

import pytest
from hypothesis import example, given, strategies as st

from mindswap import cli, perm, plandoc
from mindswap.infinite import finitary_extension, invert_finitary_two_step
from mindswap.keeler import solve_two_machine
from mindswap.machine import lower_bound, solve_m_machine
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

from conftest import checked_compose_cycles, permutation_from_images


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


class TestCycleScanErrors:
    """The first problem after a well-formed cycle is reported as the token
    stream reports it, and a malformed token in an earlier cycle wins."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(a1)(a0)(", "malformed element token 'a0'"),
            ("(a1)(a2 (", "nested '(' in cycle notation"),
            ("(a1) a2", "unexpected character 'a' outside parentheses"),
            ("(a1))", "unbalanced ')' in cycle notation"),
            ("(a1 a1)(", "unbalanced '(' in cycle notation"),
            ("(a1)(0", "malformed element token '0'"),
            ("(a0)(a1 a1)", "malformed element token 'a0'"),
        ],
    )
    def test_message(self, text, message):
        assert parse_outcome(parse_cycles, text) == message

    def test_ideographic_space_between_cycles(self):
        assert parse_cycles("(a1)\u3000(a2)") == Permutation.identity()
        assert parse_cycles("(a1 a2)\u3000(a2 a3)") == cyc(1, 2, 3)


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
        """The label of each Element a token is turned into, by either path:
        parse_element and _read_tokens's bulk build both build through _element."""
        labels = []
        build = perm._element

        def counting_element(pair):
            labels.append(f"{pair[0]}{pair[1]}")
            return build(pair)

        monkeypatch.setattr(perm, "_element", counting_element)
        # also counted if plandoc ever builds elements through its own import
        monkeypatch.setattr(plandoc, "_element", counting_element, raising=False)
        return labels

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


class TestDunders:
    def test_times_a_non_permutation_is_a_type_error(self):
        with pytest.raises(TypeError):
            parse_cycles("(1 2)") * 3

    def test_identity_is_falsy(self):
        assert not Permutation()
        assert parse_cycles("(1 2)")

    def test_str_is_canonical_cycle_text(self):
        assert str(Permutation()) == "()"
        assert str(parse_cycles("(2 1)(3 4)")) == "(a1 a2)(a3 a4)"

    def test_repr(self):
        assert repr(parse_cycles("(1 2)")) == "Permutation((a1 a2))"


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

    def test_from_cycle_refuses_a_repeat(self):
        with pytest.raises(ValueError, match="^repeated element in cycle$"):
            Permutation.from_cycle((insider(1), insider(2), insider(1)))

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
        for held in (False, True):
            p = parse_cycles("(a1 x2 a3)(a4 a5)")
            if held:
                assert p.cycles
            back = pickle.loads(pickle.dumps(p, protocol))
            assert type(back) is Permutation and back == p and back._map == p._map
            assert back._cycles == p._cycles  # held cycles travel, and None stays None
            assert back.cycles == p.cycles and str(back) == "(a1 x2 a3)(a4 a5)"

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


def reference_fold(cycles) -> dict:
    """The image map of a product of cycles in acting order, one cycle's
    image map composed after another."""
    images: dict = {}
    for cycle in cycles:
        step = {e: cycle[(i + 1) % len(cycle)] for i, e in enumerate(cycle)}
        images = {e: step.get(images.get(e, e), images.get(e, e)) for e in images.keys() | step}
    return {e: v for e, v in images.items() if e != v}


# a small pool, so that transpositions and longer cycles overlap often
COMPOSE_POOL = [insider(1), insider(2), insider(3), insider(4), outsider(1)]


class TestComposeDifferential:
    """_compose_cycles, with its transposition path, against a plain fold."""

    @given(
        st.lists(st.lists(st.sampled_from(COMPOSE_POOL), unique=True, max_size=5), max_size=8),
        st.booleans(),
    )
    @example([[insider(1), insider(2)], [insider(2), insider(3)], [insider(1), insider(2)]], True)
    @example([[insider(1), insider(2)], [insider(1), insider(2)]], False)
    @example([[], [insider(1)], [insider(1), insider(2), insider(3)], [insider(3), insider(1)]],
             True)
    def test_same_images(self, cycles, as_tuples):
        cycles = [tuple(c) if as_tuples else c for c in cycles]
        p = _compose_cycles(cycles)
        assert p._map == reference_fold(cycles)
        assert p._map == Permutation(p._map)._map  # a bijection, no fixed points


# prefixed and bare, well-formed and not, at and past int()'s default digit cap
FILL_TOKENS = [
    "a1", "x1", "a17", "x2", "1", "17", "0", "01", "x0", "a01", "a", "x", "a\u0663", "\u00b2",
    "a(", "(a1", "a1)", "ax1", "a" + "9" * 4300, "x" + "1" * 4301, "7" * 4300, "1" * 4301,
]
HELD_TOKENS = ["a1", "x2", "17", "a" + "9" * 4300]


class TestBulkFillDifferential:
    """_read_tokens against parse_element, on a new table or one that holds tokens."""

    @given(st.lists(st.sampled_from(FILL_TOKENS)), st.lists(st.sampled_from(HELD_TOKENS)))
    @example(["a1", "x2", "a1"], [])
    @example(["a1", "17"], ["a1"])  # mixed: a bare word beside a held one
    @example(["17", "1", "17"], [])  # bare only
    @example(["17", "a1", "x2"], ["17", "x2"])  # the only bare word is held
    @example(["x2", "a\u0663", "x1"], ["x2"])
    @example(["(a1", "a1"], [])
    @example(["a1", "0", "x0", "0"], ["a1"])  # two malformed words: the first seen raises
    @example(["a" + "9" * 4300, "x" + "1" * 4301], [])
    def test_same_element_or_same_error(self, words, held):
        table = {token: parse_element(token) for token in held} or None
        before = dict(table or {})
        new = [*dict.fromkeys(word for word in words if word not in before)]
        errors = [o for word in new if type(o := parse_outcome(parse_element, word)) is str]
        try:
            read = perm._read_tokens(words, table)
        except ParseError as err:
            assert errors and str(err) == errors[0]
            return
        assert not errors
        assert table is None or read is table
        assert read.keys() == before.keys() | set(new)
        for token in held:
            assert read[token] is before[token]
        for token in new:
            assert read[token] == parse_element(token) and type(read[token]) is Element


class TestTrustedBuilds:
    """The unchecked builders give exactly what the checked ones would."""

    @given(cycle_lists)
    def test_compose_cycles_equals_the_checked_build(self, groups):
        p = _compose_cycles(groups)
        assert p._map == Permutation(p._map)._map  # a bijection, no fixed points
        assert p == checked_compose_cycles(groups)
        inverse = p.inverse()
        assert inverse._map == Permutation(inverse._map)._map
        assert inverse == Permutation({v: k for k, v in p._map.items()})

    def test_checked_constructor_still_refuses_a_non_bijection(self):
        with pytest.raises(ValueError, match="^mapping is not a finite-support bijection$"):
            Permutation({insider(1): insider(2)})

    @given(st.lists(st.lists(st.sampled_from(SEATS), max_size=5), max_size=5))
    @example([[insider(1), insider(2), insider(1)]])
    def test_plan_product_is_a_bijection_or_refused(self, seatings):
        moves = [tuple(seats) for seats in seatings]
        if any(len(set(move)) != len(move) for move in moves):
            with pytest.raises(ValueError, match="^repeated seat in move"):
                plan_product(moves)
        else:
            p = plan_product(moves)
            assert p._map == Permutation(p._map)._map
            assert p == checked_compose_cycles(moves)

    @given(st.text(alphabet="ax0123456789 (", max_size=6))
    @example("a17")
    @example("x2")
    @example("9")
    @example("a0")
    @example("x")
    def test_parse_element_equals_the_checked_element(self, token):
        kind = token[:1] if token[:1] in (INSIDER, OUTSIDER) else ""
        digits = token[len(kind):]
        if not digits.isdigit() or digits.startswith("0"):
            with pytest.raises(ParseError, match="^malformed element token"):
                parse_element(token)
            return
        element = parse_element(token)
        assert type(element) is Element
        assert element == Element(kind or INSIDER, int(digits))
        assert repr(element) == repr(Element(kind or INSIDER, int(digits)))


# one well-formed cycle: whitespace, "(", anything but a parenthesis, ")"
_CYCLE = re.compile(r"\s*\(([^()]*)\)")


def fold_parse_cycles(text: str) -> Permutation:
    """The reader before its disjoint path: the text read one cycle at a
    time, each token parsed as it is read, every cycle checked for repeats,
    then folded through _compose_cycles."""
    groups = []
    pos = 0
    while found := _CYCLE.match(text, pos):
        groups.append([parse_element(token) for token in found[1].split()])
        pos = found.end()
    perm._raise_first_problem(text[pos:])
    for group in groups:
        if len(set(group)) != len(group):
            raise ParseError(f"repeated element within cycle ({perm._labels(group)})")
    return _compose_cycles(reversed(groups))


# The scan of the rest before its structural read, kept verbatim as the reference.
# a parenthesis, or a run of everything else up to whitespace or a parenthesis
_TOKEN = re.compile(r"[()]|[^()\s]+")


def token_scan_first_problem(rest: str) -> None:
    """Raise the first problem, in reading order, of rest: the text after its
    last well-formed leading cycle.  Rest that is only whitespace has none.

    A ')' here closes nothing: a '(' before it, with only tokens between,
    would have begun a well-formed cycle.
    """
    opened = False
    for token in _TOKEN.findall(rest):
        if token == ")":
            raise ParseError("unbalanced ')' in cycle notation")
        if token == "(":
            if opened:
                raise ParseError("nested '(' in cycle notation")
            opened = True
        elif not opened:
            raise ParseError(f"unexpected character {token[0]!r} outside parentheses")
        else:
            parse_element(token)  # raises for a malformed token
    if opened:
        raise ParseError("unbalanced '(' in cycle notation")


# parentheses, ASCII and Unicode whitespace, and good and malformed tokens
REST_PIECES = ["(", ")", " ", "\t", "\n", "\x1c", "\x85", "\u2028", "\u3000"]
REST_PIECES += ["a1", "x2", "3", "0", "a0", "01", "\u00b2", "a\u0663", "b"]


class TestRestScanDifferential:
    """_raise_first_problem's structural read of the rest against the token
    scan it replaced: the same outcome, message for message, on any rest that
    the leading-cycles match leaves behind."""

    @given(st.lists(st.sampled_from(REST_PIECES), max_size=24).map("".join))
    @example("(1 2))")
    @example("(1 (2 3))")
    @example("1 (2 3)")
    @example("(1 2)(3 0(")
    @example("(a1 a1)(")
    @example("(\u3000a1\x85")
    @example("\u2028)")
    def test_same_outcome(self, text):
        rest = text[perm._CYCLES.match(text).end() :]
        assert parse_outcome(perm._raise_first_problem, rest) == parse_outcome(
            token_scan_first_problem, rest
        )


# tokens that name few elements, some of them in two spellings, so repeats are common
FOLD_TOKENS = ["1", "a1", "2", "a3", "3", "a4", "x1", "x2"]
FOLD_JUNK = ["", " ", "(", ")", "(1 2", "(a0)", "a2", "((1))", "(b1)", "(1 1)"]


class TestDisjointParseDifferential:
    """parse_cycles's union of disjoint cycles against the fold it skips."""

    @given(
        st.lists(st.lists(st.sampled_from(FOLD_TOKENS), max_size=4), max_size=5),
        st.sampled_from(FOLD_JUNK),
        st.sampled_from(["", " ", "\n"]),
    )
    @example([["1", "2"], ["a1", "a3"]], "", "")  # one element, two tokens, two cycles
    @example([["a4"]], "", "")
    @example([["a4"], ["1", "2"]], "", " ")
    @example([["a4"], ["a4"]], "", "")
    @example([["a4"], ["a4", "1"]], "", "")
    @example([["1", "a1"]], "", "")
    @example([["1", "2"], ["a1", "a1"]], "", "")
    @example([["1", "2"]], "(1 2", "")
    @example([["1", "1"]], "(a0)", "")
    def test_same_permutation_or_same_error(self, groups, junk, gap):
        text = gap.join("(" + " ".join(g) + ")" for g in groups) + junk
        expected = parse_outcome(fold_parse_cycles, text)
        actual = parse_outcome(parse_cycles, text)
        if isinstance(actual, Permutation):  # checked first: a non-bijection has no cycles
            assert actual._map == Permutation(actual._map)._map  # a bijection, no fixed points
        assert actual == expected

    def test_one_element_in_two_spellings_is_folded(self):
        p = parse_cycles("(1 2)(a1 a3)")
        assert p == cyc(1, 3, 2)
        assert p.cycles == ((insider(1), insider(3), insider(2)),)

    def test_one_cycles_are_dropped(self):
        assert parse_cycles("(a4)").is_identity()
        assert parse_cycles("(a4)(1 2)(x1)")._map == cyc(1, 2)._map

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(1 2)(a1 a1)", "repeated element within cycle (a1 a1)"),
            ("(1 1)(1 2", "unbalanced '(' in cycle notation"),
            ("(1 a1)(a0)", "malformed element token 'a0'"),
            ("(1 2)(2 1 a2)", "repeated element within cycle (a2 a1 a2)"),
        ],
    )
    def test_error_messages(self, text, message):
        assert parse_outcome(parse_cycles, text) == message
        assert parse_outcome(fold_parse_cycles, text) == message


class TestCycleCache:
    """Cycles are computed once per permutation and handed to its inverse."""

    @given(st.permutations(range(1, 9)), st.booleans())
    def test_cycles_are_kept_and_inverted(self, images, read_first):
        p = permutation_from_images(list(images))
        if read_first:
            assert p.cycles is p.cycles
        inverse = p.inverse()
        fresh = Permutation({v: k for k, v in p._map.items()})
        assert inverse.cycles == fresh.cycles
        assert inverse.cycles is inverse.cycles
        assert inverse.inverse().cycles == p.cycles
        assert format_cycles(inverse) == format_cycles(fresh)

    def test_inverse_takes_over_held_cycles(self, monkeypatch):
        p = parse_cycles("(a1 a5 a2)(a3 a4)(a6 a9 a8 a7)")
        assert p.cycles == ((insider(1), insider(5), insider(2)), (insider(3), insider(4)),
                            (insider(6), insider(9), insider(8), insider(7)))
        # a second scan would sort the support again
        monkeypatch.setattr(perm, "sorted", lambda _: pytest.fail("cycles sorted twice"),
                            raising=False)
        assert p.inverse().cycles == ((insider(1), insider(2), insider(5)),
                                      (insider(3), insider(4)),
                                      (insider(6), insider(7), insider(8), insider(9)))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_solve_and_its_check_sort_once(self, m, monkeypatch):
        """A solver, the document's target text and the CLI's bound check
        all read one scan of sigma's cycles."""
        sigma = parse_cycles("(1 5 2)(3 4)(6 9 8 7)")
        scans = []
        monkeypatch.setattr(
            perm, "sorted", lambda xs: scans.append(1) or builtins.sorted(xs), raising=False
        )
        doc = solve_two_machine(sigma) if m == 2 else solve_m_machine(sigma, m)
        assert doc.target == format_cycles(sigma) == "(a1 a5 a2)(a3 a4)(a6 a9 a8 a7)"
        assert lower_bound(sigma, m) > 0
        assert len(scans) == 1


class TestPlainSolverMoves:
    """Solvers and the oracle emit plain seat tuples that MachineMove would
    accept unchanged, without building a MachineMove."""

    @pytest.mark.parametrize(
        "solve",
        [
            lambda t: solve_two_machine(t).moves,
            lambda t: solve_m_machine(t, 3).moves,
            lambda t: solve_m_machine(t, 4).moves,
            lambda t: solve_m_machine(t, 7).moves,
            lambda t: search_min_plan(t, RuleSet(m=3, outsiders=(outsider(1),)), 6),
            lambda t: search_min_plan(t, RuleSet(m=2, outsiders=(outsider(1), outsider(2))), 8),
        ],
        ids=["keeler2", "general_m3", "general_m4", "general_m7", "oracle-m3", "oracle-m2"],
    )
    @pytest.mark.parametrize("text", ["(1 2 3)", "(1 2)(3 4)", "(2 4 3)", "(1 3)(2 5)"])
    def test_moves_are_checked_tuples(self, solve, text, monkeypatch):
        target = parse_cycles(text)
        with monkeypatch.context() as patch:
            patch.setattr(MachineMove, "__new__", lambda *_: pytest.fail("built a MachineMove"))
            moves = solve(target)
        assert moves
        for move in moves:
            assert type(move) is tuple
            assert move == MachineMove(move)
