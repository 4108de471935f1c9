import contextlib
import copy
import io
import json
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from clinch import cli, core, engine, rowtext, two_player
from clinch.checks import TRACE_REL, check_price_state, stratified_two_player
from clinch.core import (
    AuctionError,
    EmptyInstance,
    LengthMismatch,
    NegativeEntry,
    NonFinite,
    close,
    dumps,
    instance_from_json,
    instance_to_json,
    replace,
    tol,
    validate_instance,
)
from clinch.engine import initial_state

from conftest import instances


class TestValidation:
    def test_showcase_instance_valid_no_ties(self):
        inst = validate_instance(values=[9, 10, 11, 5.7], budgets=[3, 2, 1, 0.5],
                                 supply=1)
        assert inst.n == 4
        assert inst.value_order == (3, 0, 1, 2)
        assert inst.budget_order == (0, 1, 2, 3)

    def test_repeated_values_grouped_by_bit_equality(self):
        # bit-equal values and budgets are ordered by index; near-ties are distinct
        inst = validate_instance(values=[1, 1, 0.5], budgets=[1, 2, 2], supply=1)
        assert inst.value_order == (2, 0, 1)
        assert inst.budget_order == (1, 2, 0)
        near = validate_instance(values=[1 + 1e-15, 1], budgets=[1, 1 + 1e-15],
                                 supply=1)
        assert near.value_order == (1, 0)
        assert near.budget_order == (1, 0)

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry):
            validate_instance(values=[1, -2], budgets=[1, 1], supply=1)
        with pytest.raises(NegativeEntry):
            validate_instance(values=[1, 2], budgets=[1, 1], supply=-0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite):
            validate_instance(values=[1, math.inf], budgets=[1, 1], supply=1)
        with pytest.raises(NonFinite):
            validate_instance(values=[1, 2], budgets=[math.nan, 1], supply=1)

    def test_length_mismatch_and_empty(self):
        with pytest.raises(LengthMismatch):
            validate_instance(values=[1, 2], budgets=[1], supply=1)
        with pytest.raises(EmptyInstance):
            validate_instance(values=[], budgets=[], supply=1)

    @given(instances())
    def test_idempotent(self, inst):
        assert validate_instance(inst) == inst


# finite doubles, with signed zeros, subnormals and magnitudes near 1e300 made
# likely; the hex of a float is its bit pattern
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e300, -1e300, 1.7976931348623157e308]),
    st.floats(min_value=1e299, max_value=1e301))


class TestTolerance:
    def test_close_scales_with_magnitude(self):
        assert close(1e12, 1e12 * (1 + 1e-10))
        assert not close(1.0, 1.0 + 1e-6)
        assert close(0.0, 1e-13)

    @settings(max_examples=500)
    @given(FINITE, FINITE, FINITE)
    @example(1e-9, 0.0, 0.0)  # a gap of exactly the band is inside it
    def test_rule_is_the_floored_relative_formula_bit_for_bit(self, a, b, c):
        assert tol(a).hex() == max(1e-12, 1e-9 * max(1.0, abs(a))).hex()
        assert (tol(a, b, c).hex()
                == max(1e-12, 1e-9 * max(1.0, abs(a), abs(b), abs(c))).hex())
        default = max(1e-12, 1e-9 * max(1.0, abs(a), abs(b)))
        assert close(a, b) is (abs(a - b) <= default)

    def test_knee_band_is_the_rule_over_spend_budget_and_knee(self):
        # marginal_rates_n2 flags the split boundary within tol(spend, b2, knee),
        # the budget band widened to rel * knee
        for inst in stratified_two_player(0, 3000):
            v1, v2 = inst.values
            b1, b2 = sorted(inst.budgets, reverse=True)
            spend = inst.supply * min(v1, v2)
            knee = two_player._knee(b1, b2)
            assert math.isfinite(knee)
            band = max(max(1e-12, 1e-9 * max(1.0, spend, b2)), 1e-9 * knee)
            assert tol(spend, b2, knee).hex() == band.hex()


class TestJson:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_round_trip_exact(self, x):
        assert json.loads(dumps({"v": x}))["v"] == x

    def test_instance_round_trip(self):
        inst = validate_instance(values=[0.1, 2 / 3], budgets=[1e-9, 5], supply=1.7)
        again = instance_from_json(instance_to_json(inst))
        assert again == inst

    def test_schema_errors(self):
        with pytest.raises(LengthMismatch):
            instance_from_json("{}")
        with pytest.raises(LengthMismatch):
            instance_from_json('{"values": [1], "budgets": [1]}')
        assert instance_from_json('{"values": [1], "budgets": [1]}',
                                  require_supply=False).supply == 0.0

    def test_non_finite_rendering(self):
        assert dumps(math.inf) == "Infinity"
        assert json.loads(dumps([math.inf]))[0] == math.inf


def _reference_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _reference_encode(obj) -> str:
    """The per-value encoder that `dumps` must match byte for byte."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _reference_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_reference_encode(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_reference_encode(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                2.2250738585072014e-308, 1e308, -1e308, 0.1, 1 / 3]
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
# all-float lists reach the all-float path, with mixed zeros in one list
_float_lists = st.one_of(st.lists(_floats), st.lists(_floats).map(tuple),
                         st.lists(st.sampled_from([0.0, -0.0, 1.5]), min_size=1))
_leaves = st.one_of(_floats, st.integers(), st.booleans(), st.none(), st.text(),
                    st.floats().map(np.float64), _float_lists,
                    st.lists(st.integers()), st.lists(st.booleans()))
_docs = st.recursive(
    _leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(st.one_of(st.text(), st.integers()),
                                           kids, max_size=4)),
    max_leaves=12)


def _small_instances(n: int):
    """Instances that stress the row encoder: bit-equal value ties, equal,
    zero and -0.0 budgets, zero values and zero supply."""
    values = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 3.0]),
                       st.floats(0.01, 10.0))
    budgets = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.11]),
                        st.floats(0.0, 5.0))
    supply = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0, 40.0]), st.floats(0.0, 20.0))
    return st.tuples(st.lists(values, min_size=n, max_size=n),
                     st.lists(budgets, min_size=n, max_size=n), supply)


def _trace_stdout(inst, path) -> tuple[int, list[str]]:
    # json.dumps keeps a -0.0 budget as -0.0; the package's encoder writes -0
    path.write_text(json.dumps({"values": list(inst.values),
                                "budgets": list(inst.budgets), "supply": inst.supply}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["trace", "--input", str(path)])
    return code, out.getvalue().splitlines()


def _reference_trace_lines(inst) -> list[str]:
    """Per-value encoding of every event line, and of the final line unless
    the run fails."""
    events = []
    try:
        _, outcome, notes = engine.run_trace(inst, events.append)
    except AuctionError:
        final = []
    else:
        final = [_reference_encode({"kind": "final", "x": list(outcome.allocation),
                                    "pi": list(outcome.payments), "notes": list(notes)})]
    return [_reference_encode({
        "kind": ev.kind,
        "price": ev.price,
        "players": list(ev.players),
        "delta_x": list(ev.delta_x),
        "delta_pi": list(ev.delta_pay),
        "state_after": {
            "x": list(ev.after.allocation),
            "B": list(ev.after.budgets),
            "S": ev.after.supply,
            "A": sorted(ev.after.active),
            "C": sorted(ev.after.clinching),
        },
    }) for ev in events] + final


class TestEncoder:
    @given(st.lists(_docs, min_size=1, max_size=6))
    def test_matches_reference_on_a_run_of_documents(self, docs):
        for doc in docs:
            assert dumps(doc) == _reference_encode(doc)

    def test_signed_zeros_and_specials_in_one_list(self):
        for doc in ([0.0, -0.0], [-0.0, 0.0, 1.0], (0.0, 2.0), [-0.0],
                    [math.nan, math.inf, -math.inf, 0.0], [-1.5, 0.0], [-1.5, 2.0]):
            assert dumps(doc) == _reference_encode(doc)
        assert dumps([0.0, -0.0]) == "[0, -0]"

    def test_a_wrapper_on_dumps_sees_one_call_per_document(self, monkeypatch):
        # perfbench/layers.py counts calls and bytes by wrapping core.dumps
        calls = []
        monkeypatch.setattr(core, "dumps", lambda obj: calls.append(obj) or dumps(obj))
        doc = {"a": [1.0, {"b": [2, None]}], "c": "x"}
        assert core.dumps(doc) == _reference_encode(doc)
        assert calls == [doc]

    def test_bools_and_numpy_scalars_keep_their_rendering(self):
        assert dumps([True, False]) == "[true, false]"
        assert dumps([1, True]) == "[1, true]"
        assert dumps([np.float64(0.5), 0.25]) == "[0.5, 0.25]"
        with pytest.raises(TypeError):
            dumps([np.int64(3)])

    @given(st.integers(1, 3 * rowtext.ROW_BLOCK), st.data())
    def test_row_and_id_set_encoders_match_reference(self, n, data):
        row_text = rowtext.RowText(n, rowtext.float_entry)
        ids_text = rowtext.RowText(n, rowtext.id_entry)
        row = tuple(data.draw(st.lists(_floats, min_size=n, max_size=n)))
        ids = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
        changed = ()  # the first row and set are encoded whole
        for _ in range(data.draw(st.integers(1, 6))):
            assert row_text(row, changed) == _reference_encode(row)
            assert ids_text(ids, changed) == _reference_encode(sorted(ids))
            # the next row and set differ from these at `changed` alone
            changed = data.draw(st.sets(st.integers(0, n - 1), max_size=8))
            new = list(row)
            for i in changed:
                new[i] = data.draw(st.one_of(st.just(-0.0), _floats))
            row = tuple(new)
            ids = ids ^ frozenset(i for i in changed if data.draw(st.booleans()))

    def test_trace_lines_match_reference_encoding(self, tmp_path, capsys):
        rnd = random.Random(64)
        n = 64
        inst = validate_instance(values=[round(rnd.uniform(0.01, 10), 2) for _ in range(n)],
                                 budgets=[rnd.uniform(0.5, 2) for _ in range(n)],
                                 supply=n / 100)
        path = tmp_path / "n64.json"
        path.write_text(instance_to_json(inst))
        assert cli.main(["trace", "--input", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) > 30
        assert lines == _reference_trace_lines(inst)

    @settings(max_examples=150)
    @given(st.integers(1, 12).flatmap(_small_instances))
    def test_trace_lines_match_reference_encoding_on_small_instances(
            self, tmp_path_factory, doc):
        values, budgets, supply = doc
        inst = validate_instance(values=values, budgets=budgets, supply=supply)
        code, lines = _trace_stdout(inst, tmp_path_factory.getbasetemp() / "small.json")
        want = _reference_trace_lines(inst)
        assert lines == want
        assert code == (0 if want and json.loads(want[-1])["kind"] == "final" else 2)

    @settings(max_examples=60)
    @given(st.one_of(st.sampled_from([rowtext.ROW_BLOCK - 1, rowtext.ROW_BLOCK, rowtext.ROW_BLOCK + 1,
                                      2 * rowtext.ROW_BLOCK + 1]),
                     st.integers(1, 100)).flatmap(_small_instances))
    def test_trace_lines_match_reference_encoding_across_blocks(
            self, tmp_path_factory, doc):
        # rows and id sets longer than one cached block, so that the entries
        # changed by one event can fall in different blocks
        values, budgets, supply = doc
        inst = validate_instance(values=values, budgets=budgets, supply=supply)
        code, lines = _trace_stdout(inst, tmp_path_factory.getbasetemp() / "blocks.json")
        want = _reference_trace_lines(inst)
        assert lines == want
        assert code == (0 if want and json.loads(want[-1])["kind"] == "final" else 2)

    def test_trace_keeps_a_negative_zero_budget(self, tmp_path):
        inst = validate_instance(values=[2.0, 1.0, 3.0], budgets=[1.0, -0.0, 1.0],
                                 supply=1.0)
        code, lines = _trace_stdout(inst, tmp_path / "negzero.json")
        assert code == 0 and len(lines) > 2
        assert all('"B": [' in line and ", -0, " in line for line in lines[:-1])
        assert lines == _reference_trace_lines(inst)


class _Pair(core.Record):
    __slots__ = {"a": "int", "b": "int"}


class _OtherPair(core.Record, b=0):
    __slots__ = {"a": "int", "b": "int"}


class TestRecords:
    def test_positional_keyword_and_default_construction(self):
        assert _Pair(1, 2) == _Pair(b=2, a=1) == _Pair(1, b=2)
        assert _OtherPair(1).b == 0
        tr = engine.trace(validate_instance(values=[2, 1], budgets=[1, 1], supply=1))
        assert core.EventTrace(tr.values, tr.budgets, tr.supply, tr.events, tr.final,
                               tr.outcome).notes == ()
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'b'"):
            _Pair(1)
        with pytest.raises(TypeError, match="unexpected keyword argument 'c'"):
            _Pair(1, 2, c=3)

    def test_equality_is_by_fields_within_one_class(self):
        assert _Pair(1, 2) == _Pair(1, 2)
        assert not _Pair(1, 2) != _Pair(1, 2)
        assert _Pair(1, 2) != _Pair(1, 3)
        # equal fields, different record class: never equal
        assert _Pair(1, 2) != _OtherPair(1, 2)
        assert not _Pair(1, 2) == _OtherPair(1, 2)
        assert _Pair(1, 2) != (1, 2)
        assert core.Outcome((1.0,), (0.5,)) != core.Outcome((1.0,), (0.25,))

    def test_hash_follows_equality(self):
        assert hash(_Pair(1, (2, 3))) == hash(_Pair(1, (2, 3)))
        assert len({_Pair(1, 2), _Pair(1, 2), _Pair(2, 1), _OtherPair(1, 2)}) == 3
        st0 = initial_state(validate_instance(values=[2, 1], budgets=[1, 1], supply=1))
        assert {st0: 1}[replace(st0)] == 1

    def test_fields_cannot_be_assigned_or_deleted(self):
        out = core.Outcome((1.0,), (0.5,))
        with pytest.raises(AttributeError, match="cannot assign to field 'payments'"):
            out.payments = (0.0,)
        with pytest.raises(AttributeError, match="cannot delete field 'payments'"):
            del out.payments
        with pytest.raises(AttributeError):
            out.extra = 1  # no __dict__ to take new attributes either
        assert out == core.Outcome((1.0,), (0.5,))

    def test_repr_names_every_field(self):
        out = core.Outcome((1.0, 0.0), (0.5, 0.0))
        assert repr(out) == "Outcome(allocation=(1.0, 0.0), payments=(0.5, 0.0))"
        assert eval(repr(out), {"Outcome": core.Outcome}) == out
        assert repr(_OtherPair(1)) == "_OtherPair(a=1, b=0)"

    def test_replace_copies_with_the_named_fields_changed(self):
        st0 = initial_state(validate_instance(values=[2, 1], budgets=[1, 1], supply=1))
        moved = replace(st0, price=0.5, supply=0.25)
        assert (moved.price, moved.supply) == (0.5, 0.25)
        assert moved.allocation is st0.allocation and moved.active is st0.active
        assert (st0.price, st0.supply) == (0.0, 1.0)
        assert replace(st0) == st0 and type(replace(st0)) is core.PriceState
        with pytest.raises(TypeError, match="unexpected keyword argument 'prices'"):
            replace(st0, prices=1.0)

    def test_copy_and_pickle_round_trip(self):
        inst = validate_instance(values=[2, 1], budgets=[1, 1], supply=1)
        assert copy.copy(inst) == inst
        assert copy.deepcopy(inst) == inst
        assert pickle.loads(pickle.dumps(inst)) == inst

    def test_n_max_budget_and_zero_stay(self):
        inst = validate_instance(values=[2, 1, 3], budgets=[1, 4, 2], supply=1)
        st0 = initial_state(inst)
        assert inst.n == st0.n == 3
        assert st0.max_budget() == 4
        assert core.Outcome.zero(2) == core.Outcome((0.0, 0.0), (0.0, 0.0))
        assert core.Outcome.zero(2).n == 2


class TestPriceState:
    def test_valid_initial_state_passes(self):
        inst = validate_instance(values=[9, 10, 11, 5.7], budgets=[3, 2, 1, 0.5],
                                 supply=1)
        assert check_price_state(initial_state(inst), inst.budgets, inst.supply) == []

    def test_corrupted_state_flagged(self):
        inst = validate_instance(values=[9, 10, 11, 5.7], budgets=[3, 2, 1, 0.5],
                                 supply=1)
        st0 = initial_state(inst)
        broken = type(st0)(st0.price, (0.5, 0.0, 0.0, 0.0), st0.budgets, st0.supply,
                           st0.active, st0.clinching, st0.values)
        assert any("supply identity" in msg for msg in
                   check_price_state(broken, inst.budgets, inst.supply))

    def test_supply_inequality_names_each_failing_player(self):
        # at p = 1 the others of player 2 hold 2 < S = 3; players 0 and 1 see 4
        inst = validate_instance(values=[9, 10, 11], budgets=[1, 1, 3], supply=3)
        st = replace(initial_state(inst), price=1.0)
        assert check_price_state(st, inst.budgets, inst.supply) == [
            "supply inequality fails for player 2: S=3.0 > 2.0"]
        st = replace(st, budgets=(1.0, 1.0, 1.0))
        assert len(check_price_state(st, (1.0, 1.0, 1.0), inst.supply)) == 3

    @pytest.mark.parametrize("law", ["budget profile", "supply identity"])
    @pytest.mark.parametrize("gap, flagged", [(0.5, False), (2.0, True)])
    def test_band_is_the_trace_slack_relative_to_the_quantities(self, law, gap, flagged):
        # at money and supply 1000 the band is 1000 * TRACE_REL, so an
        # absolute band of TRACE_REL would flag both gaps
        inst = validate_instance(values=[9, 10, 11, 5.7],
                                 budgets=[3000, 2000, 1000, 500], supply=1000)
        st = initial_state(inst)
        nudge = 1.0 + gap * TRACE_REL
        if law == "budget profile":
            st = replace(st, budgets=(3000.0, 2000.0 * nudge, 1000.0, 500.0))
        else:
            st = replace(st, supply=1000.0 * nudge)
        bad = check_price_state(st, inst.budgets, inst.supply)
        assert [msg.split(":")[0] for msg in bad] == ([law] if flagged else [])
