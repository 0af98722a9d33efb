import random
import re
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from mindswap import infinite
from mindswap.infinite import (
    FORGETFUL,
    INDEX_CAP,
    NEITHER,
    RETENTIVE,
    IncompatibleTailsError,
    PointSet,
    TailMap,
    TailRule,
    classify,
    compose,
    compose_all,
    cycle_string,
    finitary_extension,
    invert_finitary_two_step,
    invert_shift_three_step,
    inverse_shift_map,
    step_table,
)
from mindswap.perm import Element, Permutation, insider, outsider, parse_cycles, plan_product

from conftest import (
    cycle_as_two_swaps,
    forward_shift,
    permutation_from_images,
    random_permutation,
)

Z = "z"
W = "w"
a = insider


def star(*indices):
    return plan_product([[insider(i) for i in indices]])


def point_set(cofinite, indices=(), named=()):
    return PointSet(cofinite, frozenset(indices), frozenset(named))


points = st.one_of(st.builds(insider, st.integers(1, 30)), st.sampled_from([Z, W]))


def distinct(draw, pool, n):
    """n distinct items of pool: the first n steps of a Fisher-Yates shuffle."""
    pool = list(pool)
    for i in range(n):
        j = draw(st.integers(i, len(pool) - 1))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:n]


@st.composite
def plain_maps(draw):
    """Partial injections, finite or with a drawn tail rule, valid by
    construction: keys lie below the tail and images outside its image
    region."""
    tail = draw(
        st.none()
        | st.sampled_from([-1, 0, 1]).flatmap(
            lambda d: st.builds(TailRule, st.integers(2 if d == -1 else 1, 12), st.just(d))
        )
    )
    pool = [Z, W] + [a(i) for i in range(1, 31)]
    keys = images = pool
    if tail is not None:
        # z and w, then the stream points below the threshold (keys) or
        # below the tail's first image (images)
        keys = pool[: tail.threshold + 1]
        images = pool[: tail.threshold + tail.delta + 1]
    n = draw(st.integers(0, min(6, len(keys), len(images))))
    return TailMap(dict(zip(distinct(draw, keys, n), distinct(draw, images, n))), tail)


@st.composite
def swaps(draw):
    """One swap of a shift or finitary inversion."""
    if draw(st.booleans()):
        return draw(st.sampled_from(invert_shift_three_step()))
    images = draw(st.permutations(range(1, draw(st.integers(2, 8)) + 1)))
    if images == sorted(images):
        images = images[1:] + images[:1]
    return draw(st.sampled_from(invert_finitary_two_step(permutation_from_images(images))))


@st.composite
def tail_maps(draw):
    """Ride-with-parking composites of random swaps and plain maps: each
    part that composes onto the parts before it is composed, the others
    are left out."""
    first, *rest = draw(st.lists(st.one_of(swaps(), plain_maps()), min_size=1, max_size=3))
    composite = first
    for part in rest:
        try:
            composite = compose(part, composite)
        except ValueError:
            pass
    return composite


class TestTailRule:
    def test_retentive_needs_room(self):
        with pytest.raises(ValueError):
            TailRule(1, -1)

    def test_delta_range(self):
        with pytest.raises(ValueError):
            TailRule(1, 2)

    @pytest.mark.parametrize("threshold, delta", [(True, 0), (2, True), (3, 1.0), (2.5, 1), ("2", 0)])
    def test_threshold_and_delta_must_be_ints(self, threshold, delta):
        with pytest.raises(ValueError, match=r"^tail (threshold|delta) must be an integer, got "):
            TailRule(threshold, delta)


class TestNonPoints:
    @pytest.mark.parametrize("bad", [outsider(1), ("a", 3), 3, None])
    def test_rejected_as_key_and_as_image(self, bad):
        message = "^exceptions must map carrier points to carrier points$"
        with pytest.raises(TypeError, match=message):
            TailMap({bad: a(1)})
        with pytest.raises(TypeError, match=message):
            TailMap({a(1): bad})


class TestCanonicalForm:
    def test_threshold_absorbs_agreeing_exception(self):
        spelled_out = TailMap({a(4): a(5)}, TailRule(5, +1))
        minimal = TailMap({}, TailRule(4, +1))
        assert spelled_out == minimal

    def test_in_region_agreeing_exception_dropped(self):
        assert TailMap({a(7): a(8)}, TailRule(4, +1)) == TailMap({}, TailRule(4, +1))

    def test_in_region_conflict_rejected(self):
        with pytest.raises(ValueError):
            TailMap({a(7): a(9)}, TailRule(4, +1))

    def test_forgetful_and_retentive_shifts_differ(self):
        assert TailMap({}, TailRule(1, +1)) != TailMap({}, TailRule(2, -1))

    def test_repeated_image_rejected(self):
        with pytest.raises(ValueError):
            TailMap({a(1): a(3), a(2): a(3)})

    def test_image_colliding_with_tail_rejected(self):
        with pytest.raises(ValueError):
            TailMap({Z: a(5)}, TailRule(4, -1))

    def test_two_spellings_hash_equally(self):
        spelled_out = TailMap({a(4): a(5), a(7): a(8), Z: a(1)}, TailRule(5, +1))
        minimal = TailMap({Z: a(1)}, TailRule(4, +1))
        assert spelled_out == minimal
        assert hash(spelled_out) == hash(minimal)

    def test_never_equals_a_non_map(self):
        assert TailMap().__eq__("x") is NotImplemented
        assert (TailMap() == "x") is False

    @given(tail_maps())
    def test_rebuilt_in_reverse_order_hashes_equally(self, f):
        rebuilt = TailMap(dict(reversed(f.exceptions.items())), f.tail)
        assert rebuilt == f
        assert hash(rebuilt) == hash(f)


class TestApply:
    def test_forward_shift(self):
        assert forward_shift().apply(a(7)) == a(8)

    def test_step_one_exceptions(self):
        f1 = invert_shift_three_step()[0]
        assert f1.apply(Z) == a(2)
        assert f1.apply(a(3)) == Z
        assert f1.apply(a(1)) is None

    def test_outside_domain(self):
        assert forward_shift().apply(Z) is None


class TestPointSets:
    def test_participants_of_three_steps(self):
        f1, f2, f3 = invert_shift_three_step()
        whole = point_set(True, named={"z"})
        assert f1.participants() == whole
        assert f2.participants() == point_set(True, {1}, {"z"})
        assert f3.participants() == point_set(True, {1, 2}, {"z"})

    def test_identity_tail_participants(self):
        ident = TailMap({}, TailRule(1, 0))
        assert ident.participants() == point_set(True)

    def test_finite_stream_parts(self):
        f = TailMap({a(2): a(5)})
        assert f.dom() == point_set(False, {2})
        assert f.img() == point_set(False, {5})

    def test_membership(self):
        ps = point_set(True, {1, 2}, {"z"})
        assert a(3) in ps and a(1) not in ps
        assert Z in ps and W not in ps
        assert outsider(3) not in ps

    @given(tail_maps(), st.lists(points, min_size=1, max_size=40))
    def test_participants_are_dom_union_img(self, f, sample):
        dom, img, participants = f.dom(), f.img(), f.participants()
        for p in sample:
            assert (p in participants) == (p in dom or p in img)

    @given(tail_maps(), st.lists(points, min_size=1, max_size=40))
    def test_dom_and_img_agree_with_apply(self, f, sample):
        # a tail moves an index by at most one, so a preimage of an index up
        # to 30 has an index up to 31
        sources = [a(i) for i in range(1, 32)] + [Z, W]
        images = {f.apply(q) for q in sources}
        dom, img = f.dom(), f.img()
        for p in sample:
            assert (p in dom) == (f.apply(p) is not None)
            assert (p in img) == (p in images)


class TestClassify:
    def test_forward_shift_is_forgetful(self):
        assert classify(forward_shift()) == FORGETFUL

    def test_three_step_classifications(self):
        assert [classify(f) for f in invert_shift_three_step()] == [
            RETENTIVE,
            FORGETFUL,
            RETENTIVE,
        ]

    def test_neither(self):
        crooked = TailMap({a(1): a(4)})
        assert classify(crooked) == NEITHER

    @given(st.one_of(tail_maps(), plain_maps()))
    def test_kinds_come_from_the_table_not_the_point_sets(self, f):
        # the kind that dom and img give, read without building either: a
        # threshold of millions would build millions of indices
        dom, img = f.dom(), f.img()
        a_, b_ = (img.indices, dom.indices) if f.tail else (dom.indices, img.indices)
        if dom.named <= img.named and a_ <= b_:
            want = RETENTIVE
        elif img.named <= dom.named and b_ <= a_:
            want = FORGETFUL
        else:
            want = NEITHER
        with mock.patch.object(TailMap, "_point_set", side_effect=AssertionError("point set")):
            assert classify(f) == want


class TestCompose:
    def test_three_step_composes_to_inverse_shift(self):
        f1, f2, f3 = invert_shift_three_step()
        assert compose(f3, compose(f2, f1)) == inverse_shift_map()

    def test_empty_map_is_identity_for_composition(self):
        f1 = invert_shift_three_step()[0]
        assert compose(f1, TailMap()) == f1
        assert compose(TailMap(), f1) == f1

    def test_incompatible_tails_rejected(self):
        with pytest.raises(IncompatibleTailsError):
            compose(forward_shift(), forward_shift())

    def test_apply_coherence_on_samples(self):
        rng = random.Random(3)
        f1, f2, f3 = invert_shift_three_step()
        pairs = [(f2, f1), (f3, compose(f2, f1)), (f3, f2)]
        points = [a(i) for i in range(1, 30)] + [Z, W]
        for f, g in pairs:
            composite = compose(f, g)
            for _ in range(1000):
                e = rng.choice(points)
                mid = g.apply(e)
                parked = mid is None
                out = f.apply(e if parked else mid)
                if out is None:
                    out = None if parked else mid
                assert composite.apply(e) == out

    def test_ride_through_collision_rejected(self):
        g = TailMap({a(2): a(1)})
        f = TailMap({a(1): a(5)})
        with pytest.raises(ValueError, match="^map is not injective: repeated image$"):
            compose(f, g)

    @pytest.mark.parametrize("shift", [forward_shift, inverse_shift_map], ids=["+2", "-2"])
    def test_net_shift_of_two_rejected(self, shift):
        with pytest.raises(IncompatibleTailsError, match=r"^net shift [+-]2 on stream a "):
            compose(shift(), shift())

    @given(tail_maps())
    def test_unchecked_builds_match_the_checked_build(self, f):
        # compose and the constructions skip only TailMap()'s point-type test
        rebuilt = TailMap(f.exceptions, f.tail)
        assert rebuilt == f
        assert list(rebuilt.exceptions) == list(f.exceptions)


def fold_from_empty(maps):
    acc = TailMap()
    for m in maps:
        acc = compose(m, acc)
    return acc


class TestComposeAll:
    @given(st.lists(tail_maps(), max_size=4))
    def test_matches_the_fold_from_the_empty_map(self, maps):
        try:
            expected = fold_from_empty(maps)
        except ValueError as err:
            with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
                compose_all(maps)
            return
        result = compose_all(maps)
        assert result == expected
        assert list(result.exceptions) == list(expected.exceptions)

    def test_lone_map_lists_its_keys_in_point_order(self):
        scatter, _ = invert_finitary_two_step(parse_cycles("(a2 a5)(a7 a9 a8)"))
        result = compose_all([scatter])
        assert result == scatter
        assert list(result.exceptions) == list(fold_from_empty([scatter]).exceptions)
        assert list(result.exceptions) != list(scatter.exceptions)

    def test_two_swaps_compose_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(infinite, "compose", lambda f, g: calls.append(f) or compose(f, g))
        swaps = invert_finitary_two_step(parse_cycles("(a1 a2)(a3 a4 a5)"))
        assert compose_all(swaps) == finitary_extension(parse_cycles("(a1 a2)(a3 a4 a5)").inverse())
        assert calls == [swaps[1]]


class TestInvertShiftThreeStep:
    def test_exact_step_tables(self):
        f1, f2, f3 = invert_shift_three_step()
        assert f1 == TailMap({a(2): a(1), Z: a(2), a(3): Z}, TailRule(4, -1))
        assert f2 == TailMap({Z: a(2)}, TailRule(2, +1))
        assert f3 == TailMap({a(3): Z}, TailRule(4, -1))

    def test_participants_pairwise_distinct(self):
        swaps = invert_shift_three_step()
        parts = [f.participants() for f in swaps]
        assert len(set(parts)) == 3

    def test_undoes_forward_shift(self):
        composite = compose_all(invert_shift_three_step())
        assert compose(composite, forward_shift()) == TailMap({Z: Z}, TailRule(1, 0))


class TestCycleAsTwoSwaps:
    @pytest.mark.parametrize("order", [[1, 2, 3], [1, 2], [2, 1, 3], [1]])
    def test_composes_to_cycle_extension(self, order):
        swaps = cycle_as_two_swaps(order)
        assert [classify(f) for f in swaps] == [FORGETFUL, RETENTIVE]
        assert swaps[0].participants() != swaps[1].participants()
        n = len(order)
        cycle = {a(order[i]): a(order[(i + 1) % n]) for i in range(n)}
        expected = TailMap(cycle, TailRule(n + 1, 0))
        assert compose_all(swaps) == expected

    def test_rejects_gaps(self):
        with pytest.raises(ValueError):
            cycle_as_two_swaps([1, 3])


class TestInvertCycleTwoStep:
    def test_transposition_matches_printed_solution(self):
        swaps = invert_finitary_two_step(star(1, 2))
        assert swaps[0] == TailMap({a(1): a(2), a(2): Z, Z: a(3)}, TailRule(3, +1))
        assert swaps[1] == TailMap({a(3): Z, Z: a(1)}, TailRule(4, -1))
        assert [classify(f) for f in swaps] == [FORGETFUL, RETENTIVE]

    def test_three_cycle_composite(self):
        target = star(1, 2, 3)
        swaps = invert_finitary_two_step(target)
        assert compose_all(swaps) == finitary_extension(target.inverse())

    def test_composite_cancels_cycle(self):
        target = star(1, 2, 3, 4)
        swaps = invert_finitary_two_step(target)
        identity_ext = finitary_extension(Permutation.identity())
        assert compose(compose_all(swaps), finitary_extension(target)) == identity_ext


class TestInvertFinitaryTwoStep:
    def test_worked_example_matches_printed_solution(self):
        swaps = invert_finitary_two_step(parse_cycles("(a1 a2)(a3 a4 a5)"))
        step1 = TailMap(
            {a(1): a(2), a(2): Z, Z: a(5), a(5): a(4), a(4): a(3), a(3): a(6)},
            TailRule(6, +1),
        )
        step2 = TailMap({a(5): Z, Z: a(1)}, TailRule(6, -1))
        assert swaps == [step1, step2]

    def test_single_cycle_matches_recorded_tail_maps(self):
        step1 = TailMap(
            {a(1): a(3), a(2): a(7), a(3): a(5), a(4): Z, a(5): a(6), a(6): a(8), a(7): a(4),
             Z: a(1)},
            TailRule(8, +1),
        )
        step2 = TailMap(
            {a(1): Z, a(3): a(1), a(5): a(3), a(6): a(5), a(8): a(6), Z: a(2)},
            TailRule(9, -1),
        )
        assert invert_finitary_two_step(parse_cycles("(2 4 7)")) == [step1, step2]

    def test_index_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(infinite, "INDEX_CAP", 9)
        assert len(invert_finitary_two_step(star(1, 9))) == 2
        assert finitary_extension(star(1, 9)).tail == TailRule(10, 0)
        for build in (invert_finitary_two_step, finitary_extension):
            with pytest.raises(ValueError, match="^stream index 10 is above the cap of 9$"):
                build(star(1, 10))

    def test_index_above_the_cap_is_refused_before_any_point(self, monkeypatch):
        monkeypatch.setattr(infinite, "_element", mock.Mock(side_effect=AssertionError("built")))
        sigma = star(3, INDEX_CAP + 1)
        for build in (invert_finitary_two_step, finitary_extension):
            with pytest.raises(ValueError, match=f"^stream index {INDEX_CAP + 1} is above the cap"):
                build(sigma)

    def test_identity_gives_empty_plan(self):
        assert invert_finitary_two_step(Permutation.identity()) == []

    def test_random_finitary_targets(self):
        rng = random.Random(23)
        for _ in range(60):
            sigma = random_permutation(rng, rng.randint(2, 12))
            if not sigma:
                continue
            swaps = invert_finitary_two_step(sigma)
            assert len(swaps) == 2
            assert [classify(f) for f in swaps] == [FORGETFUL, RETENTIVE]
            assert swaps[0].participants() != swaps[1].participants()
            assert compose_all(swaps) == finitary_extension(sigma.inverse())


class TestRendering:
    def test_step_table_layout_for_retentive_step(self):
        f1 = invert_shift_three_step()[0]
        assert step_table(f1, horizon=2) == [
            "a2 -> a1",
            "z -> a2",
            "a3 -> z",
            "a4 -> a3",
            "a5 -> a4",
            "...",
        ]

    def test_step_table_layout_for_forgetful_step(self):
        f2 = invert_shift_three_step()[1]
        assert step_table(f2, horizon=2) == ["z -> a2", "a2 -> a3", "a3 -> a4", "..."]

    def test_cycle_strings(self):
        f1, f2, _ = invert_shift_three_step()
        assert cycle_string(f1, horizon=2) == "(... a5 a4 a3 z a2 a1)"
        assert cycle_string(f2, horizon=2) == "(z a2 a3 a4 ...)"

    def test_cycle_string_of_composite(self):
        assert cycle_string(inverse_shift_map(), horizon=2) == "(z)(... a3 a2 a1)"

    def test_renderers_build_no_points(self):
        maps = [
            *invert_shift_three_step(),
            inverse_shift_map(),
            *invert_finitary_two_step(parse_cycles("(a2 a5)(a7 a9 a8)")),
        ]

        def render():
            return [(step_table(f, h), cycle_string(f, h)) for f in maps for h in range(4)]

        expected = render()
        with mock.patch("mindswap.infinite.insider", side_effect=AssertionError("point built")):
            assert render() == expected

    def test_composition_checks_no_points(self, monkeypatch):
        # every stream point compose and apply make derives from valid ones,
        # so none of them goes through Element's checks again
        sigma = parse_cycles("(a2 a5)(a7 a9 a8)")
        swaps = [*invert_shift_three_step(), *invert_finitary_two_step(sigma)]
        points = [insider(n) for n in range(1, 14)] + [Z]

        def composite(f, g):
            try:
                return compose(f, g)
            except ValueError:  # clashing tails, or two minds riding into one body
                return None

        def run():
            composites = [compose_all(swaps[:3]), compose_all(swaps[3:])]
            composites += [composite(f, g) for f in swaps for g in swaps]
            composites = [f for f in composites if f is not None]
            images = [f.apply(p) for f in swaps + composites for p in points]
            return composites, images, finitary_extension(sigma.inverse())

        expected = run()
        built = []
        checked_new = Element.__new__

        def counting_new(cls, kind, index):
            built.append((kind, index))
            return checked_new(cls, kind, index)

        monkeypatch.setattr(Element, "__new__", staticmethod(counting_new))
        composites, images, extension = run()
        assert built == []
        assert (composites, images, extension) == expected
        for f in [*composites, extension]:
            assert all(type(k) is Element for k in f.exceptions if not isinstance(k, str))
        assert all(type(e) is Element for e in images if e is not None and not isinstance(e, str))
