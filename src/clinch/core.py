"""Shared domain types, validation and tolerance conventions.

Everything downstream works on validated instances: a vector of per-unit
valuations, a vector of budgets (money) and a total supply of a divisible
good.  All quantities are IEEE doubles; equality between money/supply
quantities is relative to max(1, |x|), by the one rule in `tol`.
"""
from __future__ import annotations

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


class NumericalDivergence(AuctionError):
    """The event loop failed to advance the price clock."""


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
    # sorted is stable, also with reverse=True: equal keys keep index order
    ids = range(len(vals))
    return ValidatedInstance(vals, buds, sup, tuple(sorted(ids, key=vals.__getitem__)),
                             tuple(sorted(ids, key=buds.__getitem__, reverse=True)))


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
    event's `after` (or the initial state) evolved to `price` by
    `engine.evolve`.
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


_FLOATS = frozenset((float,))
_INTS = frozenset((int,))


class RawJSON(str):
    """Text that is already JSON; `_encode` writes it verbatim."""

    __slots__ = ()


ROW_BLOCK = 32  # positions per cached block of a list's text


class RowText:
    """Encoder of one JSON list over positions range(n) that changes in few
    positions from line to line: a float row or a set of player ids.

    `entry(row, i)` is the text of position i, or "" to leave it out.  The
    first call renders every position; a later call renders again only the
    positions in `changed`, where the row may differ from the last one, and
    keeps a new text where it differs from the old.  Only the blocks of
    ROW_BLOCK positions that hold such a text are joined again.  Comparing
    text keeps -0.0, NaN and the infinities apart with no special case.
    """

    __slots__ = ("n", "entry", "texts", "blocks", "text")

    def __init__(self, n: int, entry):
        self.n, self.entry = n, entry
        self.texts: list[str] = []
        self.blocks = [""] * -(-n // ROW_BLOCK)
        self.text = RawJSON("[]")

    def __call__(self, row, changed) -> RawJSON:
        texts, entry = self.texts, self.entry
        if not texts:
            texts += [entry(row, i) for i in range(self.n)]
            touched = range(len(self.blocks))
        else:
            touched = set()
            for i in changed:
                text = entry(row, i)
                if text != texts[i]:
                    texts[i] = text
                    touched.add(i // ROW_BLOCK)
            if not touched:
                return self.text
        blocks = self.blocks
        for b in touched:
            blocks[b] = ", ".join(filter(None, texts[b * ROW_BLOCK:(b + 1) * ROW_BLOCK]))
        self.text = RawJSON("[" + ", ".join(filter(None, blocks)) + "]")
        return self.text


def float_entry(row, i: int) -> str:
    """`RowText` renderer of a float row."""
    return _fmt_float(row[i])


def id_entry(ids, i: int) -> str:
    """`RowText` renderer of a set of ids: an id outside the set is left out."""
    return str(i) if i in ids else ""


def _encode(obj) -> str:
    if isinstance(obj, (list, tuple)):
        # Exact types, so bool and numpy scalars take the per-value path.
        kinds = set(map(type, obj))
        if kinds == _FLOATS:
            return "[" + ", ".join(map(_fmt_float, obj)) + "]"
        if kinds == _INTS:
            return "[" + ", ".join(map(str, obj)) + "]"
        return "[" + ", ".join(map(_encode, obj)) + "]"
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
        items = (f"{_quote(str(k))}: {_encode(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    """Serialize nested dicts/lists/numbers with lossless float formatting.

    The recursion stays in `_encode`, so a wrapper put on `dumps` (the layer
    spans of `perfbench/layers.py`) sees one call per document.
    """
    return _encode(obj)


def instance_to_json(inst: ValidatedInstance) -> str:
    return dumps({"values": list(inst.values), "budgets": list(inst.budgets),
                  "supply": inst.supply})


def json_number(x, name: str) -> float:
    """`x`, a value that `json.loads` returned, as a float: only a finite JSON
    number passes.  A boolean, string, null, array or object raises
    LengthMismatch; NaN, an infinity, or an integer beyond the double range
    raises NonFinite.  Either names `name`."""
    if type(x) not in (int, float):
        raise LengthMismatch(f"{name} must be a number, got {json.dumps(x)}")
    try:
        x = float(x)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise NonFinite(f"{name} must be a finite number")
    return x


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

    def numbers(key: str) -> list[float]:
        row = doc[key]
        if type(row) is not list:
            raise LengthMismatch(f"{key} must be an array of numbers, got {json.dumps(row)}")
        return [json_number(x, f"{key}[{i}]") for i, x in enumerate(row)]

    return validate_instance(values=numbers("values"), budgets=numbers("budgets"),
                             supply=json_number(doc.get("supply", 0.0), "supply"))

