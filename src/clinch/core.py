"""Shared domain types, validation and tolerance conventions.

Everything downstream works on validated instances: a vector of per-unit
valuations, a vector of budgets (money) and a total supply of a divisible
good.  All quantities are IEEE doubles; equality between money/supply
quantities is relative to max(1, |x|), by the one rule in `tol`.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Sequence

REL_TOL = 1e-9
SUPPLY_FLOOR = 1e-12  # remnant supply at or below this counts as sold out


def tol(x: float, *xs: float) -> float:
    """The tolerance rule: REL_TOL * max(1, |x|, |xs|...)."""
    return REL_TOL * max(1.0, abs(x), *map(abs, xs))


def close(a: float, b: float) -> bool:
    """True when a and b agree within `tol(a, b)`."""
    return abs(a - b) <= tol(a, b)


def leq(a: float, b: float) -> bool:
    """a <= b up to `tol(a, b)`."""
    return a <= b + tol(a, b)


class AuctionError(Exception):
    """Base class for every error raised by this package."""


class NonFinite(AuctionError):
    pass


class NegativeEntry(AuctionError):
    pass


class LengthMismatch(AuctionError):
    pass


class EmptyInstance(AuctionError):
    pass


class BudgetExceeded(AuctionError):
    """Payment above the declared budget (the -infinity utility branch)."""


class NumericalDivergence(AuctionError):
    """The event loop failed to advance the price clock."""


class NoActivePlayers(AuctionError):
    pass


class EventSkipped(AuctionError):
    """A closed-form evolution step jumped over an entry or exit event."""


class NegativeBudget(AuctionError):
    """A remaining budget went negative beyond tolerance; internal bug signal."""


class ZeroPrice(AuctionError):
    pass


class StepTooLarge(AuctionError):
    """The integrator's clinching-set membership oscillated; shrink the step."""


class OnRegimeBoundary(AuctionError):
    """Marginal rates requested on or too near a regime boundary."""


class NonPositiveIncrement(AuctionError):
    pass


class MonotonicityViolation(AuctionError):
    """A supply increment produced a negative allocation/payment delta."""


class OracleViolation(AuctionError):
    """A capacity oracle broke monotonicity during evaluation."""


@dataclass(frozen=True)
class ValidatedInstance:
    """An instance that passed validation, plus derived ordering metadata.

    `value_order` lists player ids by ascending (value, index), the order in
    which they exit; `budget_order` lists them by descending budget, then
    ascending index, the order in which they join the clinching set.
    """

    values: tuple[float, ...]
    budgets: tuple[float, ...]
    supply: float
    value_order: tuple[int, ...]
    budget_order: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.values)


def _as_floats(name: str, xs: Sequence[float]) -> tuple[float, ...]:
    out = []
    for v in xs:
        v = float(v)
        if not math.isfinite(v):
            raise NonFinite(f"{name} contains a non-finite entry: {v!r}")
        if v < 0.0:
            raise NegativeEntry(f"{name} contains a negative entry: {v!r}")
        out.append(v)
    return tuple(out)


def validate_instance(
    inst: ValidatedInstance | None = None,
    *,
    values: Sequence[float] | None = None,
    budgets: Sequence[float] | None = None,
    supply: float | None = None,
) -> ValidatedInstance:
    """Validate an instance and attach derived metadata.

    Idempotent: re-validating a ValidatedInstance reproduces it exactly.
    Raises NonFinite / NegativeEntry / LengthMismatch / EmptyInstance.
    """
    if inst is not None:
        values, budgets, supply = inst.values, inst.budgets, inst.supply
    if values is None or budgets is None or supply is None:
        raise LengthMismatch("values, budgets and supply are all required")
    vals = _as_floats("values", values)
    buds = _as_floats("budgets", budgets)
    if len(vals) == 0:
        raise EmptyInstance("need at least one player")
    if len(vals) != len(buds):
        raise LengthMismatch(f"{len(vals)} values vs {len(buds)} budgets")
    (sup,) = _as_floats("supply", [supply])
    return ValidatedInstance(vals, buds, sup, *player_orders(vals, buds))


def player_orders(values: tuple[float, ...], budgets: tuple[float, ...]
                  ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`value_order` and `budget_order` (see ValidatedInstance)."""
    # sorted is stable, also with reverse=True: equal keys keep index order
    ids = range(len(values))
    return (tuple(sorted(ids, key=values.__getitem__)),
            tuple(sorted(ids, key=budgets.__getitem__, reverse=True)))


@dataclass(frozen=True)
class Outcome:
    """Final allocation (units per player) and payments (money per player)."""

    allocation: tuple[float, ...]
    payments: tuple[float, ...]

    @staticmethod
    def zero(n: int) -> "Outcome":
        return Outcome((0.0,) * n, (0.0,) * n)

    @property
    def n(self) -> int:
        return len(self.allocation)


def utility(inst: ValidatedInstance, outcome: Outcome, i: int) -> float:
    """Budget-constrained utility v_i * x_i - pay_i for player i.

    Raises BudgetExceeded instead of returning the -infinity branch.
    """
    pay = outcome.payments[i]
    if not leq(pay, inst.budgets[i]):
        raise BudgetExceeded(f"player {i} pays {pay} with budget {inst.budgets[i]}")
    return inst.values[i] * outcome.allocation[i] - pay


@dataclass(frozen=True)
class PriceState:
    """Snapshot of the ascending process at one price.

    Carries the (constant) value vector so that a state is self-contained:
    active/clinching sets, remaining budgets and remnant supply can all be
    re-derived and cross-checked from the snapshot alone.
    """

    price: float
    allocation: tuple[float, ...]
    budgets: tuple[float, ...]
    supply: float
    active: frozenset[int]
    clinching: frozenset[int]
    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.allocation)

    def max_budget(self) -> float:
        """Maximum remaining budget among active players (0 if none active)."""
        return max((self.budgets[i] for i in self.active), default=0.0)


EVENT_CLINCH_ENTRY = "clinch_entry"
EVENT_EXIT = "exit"


@dataclass(frozen=True)
class Event:
    """One event of the ascending process and the state right after it.

    Exits at a repeated value are recorded as one event per removed player,
    all sharing the price; entries list every player that joined together.
    The state just before the event is not stored: it is the previous
    event's `after` (or the initial state) evolved to `price`, which
    `engine.left_limit` rebuilds.
    """

    kind: str
    price: float
    players: tuple[int, ...]
    delta_x: tuple[float, ...]
    delta_pay: tuple[float, ...]
    after: PriceState


@dataclass(frozen=True)
class EventTrace:
    """Ordered events of one auction run plus the final state and outcome."""

    values: tuple[float, ...]
    budgets: tuple[float, ...]
    supply: float
    events: tuple[Event, ...]
    final: PriceState
    outcome: Outcome
    notes: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# JSON plumbing.  Numbers are rendered with 17 significant digits so that a
# serialize/parse round trip reproduces every double exactly.

INSTANCE_SCHEMA = '{"values": [...], "budgets": [...], "supply": number}'


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


_MEMO_CAP = 1 << 14
_FLOATS = frozenset((float,))
_INTS = frozenset((int,))
_ONES = itertools.repeat(1.0)


class FloatMemo(dict):
    """float -> text cache shared by the `dumps` calls of one output stream.

    A miss formats the value and stores it; the memo is emptied once it
    holds `_MEMO_CAP` entries, so its memory stays bounded.  0.0 and -0.0
    are one dict key, so `_encode` routes lists holding a signed zero past it.
    """

    __slots__ = ()

    def __missing__(self, x: float) -> str:
        if len(self) >= _MEMO_CAP:
            self.clear()
        text = self[x] = _fmt_float(x)
        return text


class RawJSON(str):
    """Text that is already JSON; `_encode` writes it verbatim."""

    __slots__ = ()


ROW_BLOCK = 32  # positions per cached block of a row's or a set's text


class _BlockText:
    """Text of a JSON list kept as the texts of its blocks of ROW_BLOCK
    positions, so that a change at a few positions re-joins only their blocks.
    A subclass's `block(b)` renders block b; an empty block is left out."""

    __slots__ = ("blocks", "text")

    def __init__(self):
        self.blocks: list[str] = []
        self.text = RawJSON("[]")

    def rejoin(self, touched) -> RawJSON:
        blocks = self.blocks
        for b in touched:
            blocks[b] = self.block(b)
        self.text = RawJSON("[" + ", ".join(filter(None, blocks)) + "]")
        return self.text


class RowText(_BlockText):
    """Encoder of one float row that changes in few entries from line to line.

    It is called with the row and the positions where the row may differ
    from the last row it encoded; the first row, or one of another length,
    is encoded whole.  At those positions an entry that is not the same
    object as before is formatted again, through the memo except exact
    zeros, so that -0.0 stays distinct, and only the blocks holding such
    entries are joined again.  The result equals `_encode(list(row), memo)`
    for every all-float row whose entries outside `changed` are those of the
    last row.  Rows must be immutable (tuples): the last row is held to
    compare against.
    """

    __slots__ = ("memo", "row", "texts")

    def __init__(self, memo: FloatMemo):
        super().__init__()
        self.memo = memo
        self.row: tuple = ()
        self.texts: list[str] = []

    def __call__(self, row: tuple[float, ...], changed) -> RawJSON:
        prev, memo = self.row, self.memo
        if row is prev:
            return self.text
        self.row = row
        if len(row) != len(prev):
            self.texts = [memo[x] if x else _fmt_float(x) for x in row]
            self.blocks = [""] * -(-len(row) // ROW_BLOCK)
            return self.rejoin(range(len(self.blocks)))
        texts, touched = self.texts, set()
        for i in changed:
            x = row[i]
            if x is not prev[i]:
                texts[i] = memo[x] if x else _fmt_float(x)
                touched.add(i // ROW_BLOCK)
        return self.rejoin(touched) if touched else self.text

    def block(self, b: int) -> str:
        return ", ".join(self.texts[b * ROW_BLOCK:(b + 1) * ROW_BLOCK])


class IdsText(_BlockText):
    """Encoder of a set of player ids in range(n) as its sorted JSON list,
    for sets that change in few members from line to line.

    It is called with the set and the ids whose membership may have changed
    since the last call; the first set is encoded whole.  Only the blocks of
    ids that did change are joined again.  The result equals
    `_encode(sorted(ids), memo)`.
    """

    __slots__ = ("n", "ids")

    def __init__(self, n: int):
        super().__init__()
        self.n = n
        self.ids: frozenset | None = None

    def __call__(self, ids: frozenset[int], changed) -> RawJSON:
        prev = self.ids
        self.ids = ids
        if prev is None:
            self.blocks = [""] * -(-self.n // ROW_BLOCK)
            return self.rejoin(range(len(self.blocks)))
        touched = {i // ROW_BLOCK for i in changed if (i in ids) is not (i in prev)}
        return self.rejoin(touched) if touched else self.text

    def block(self, b: int) -> str:
        ids = self.ids
        return ", ".join([str(i) for i in range(b * ROW_BLOCK, (b + 1) * ROW_BLOCK) if i in ids])


def _encode(obj, memo: FloatMemo) -> str:
    if isinstance(obj, (list, tuple)):
        # Exact types, so bool and numpy scalars take the per-value path; the
        # memo serves a float list only if its zeros are all +0.0.
        kinds = set(map(type, obj))
        if kinds == _FLOATS and (0.0 not in obj
                                 or min(map(math.copysign, _ONES, obj)) > 0.0):
            return "[" + ", ".join(map(memo.__getitem__, obj)) + "]"
        if kinds == _INTS:
            return "[" + ", ".join(map(str, obj)) + "]"
        return "[" + ", ".join(_encode(v, memo) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return obj if type(obj) is RawJSON else _quote(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        items = (f"{_quote(str(k))}: {_encode(v, memo)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj, memo: FloatMemo | None = None) -> str:
    """Serialize nested dicts/lists/numbers with lossless float formatting.

    Pass one `FloatMemo` to every call that writes the same stream: values
    repeated across calls are then formatted once.  Output is the same with
    or without it.
    """
    return _encode(obj, FloatMemo() if memo is None else memo)


def instance_to_json(inst: ValidatedInstance) -> str:
    return dumps({"values": list(inst.values), "budgets": list(inst.budgets),
                  "supply": inst.supply})


def instance_from_json(text: str, *, require_supply: bool = True) -> ValidatedInstance:
    """Parse the shared instance schema; supply defaults to 0 when optional."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LengthMismatch(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "values" not in doc or "budgets" not in doc:
        raise LengthMismatch(f"expected schema {INSTANCE_SCHEMA}")
    if require_supply and "supply" not in doc:
        raise LengthMismatch(f"expected schema {INSTANCE_SCHEMA}")
    return validate_instance(values=doc["values"], budgets=doc["budgets"],
                             supply=doc.get("supply", 0.0))

