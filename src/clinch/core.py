"""Shared domain types, validation and tolerance conventions.

Everything downstream works on validated instances: a vector of per-unit
valuations, a vector of budgets (money) and a total supply of a divisible
good.  All quantities are IEEE doubles; equality between money/supply
quantities is relative to max(1, |x|), by the one rule in `tol`.
"""
from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Sequence

REL_TOL = 1e-9
SUPPLY_FLOOR = 1e-12  # remnant supply at or below this counts as sold out


def tol(x: float, y: float = 0.0, z: float = 0.0) -> float:
    """The tolerance rule: REL_TOL * max(1, |x|, |y|, |z|)."""
    return REL_TOL * max(1.0, abs(x), abs(y), abs(z))


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


class Record:
    """Base of the package's immutable records.

    A subclass maps each field to its type in `__slots__` and gives field
    defaults as class keywords: `class EventTrace(Record, notes=())`.  A
    record is built positionally or by keyword, compares `==` and hashes by
    its fields (only against a record of the same class), has a `repr`
    that names every field and refuses attribute assignment.  `replace`
    copies one with some fields changed.  Its `__init__` is generated, as a
    dataclass's is, but stores through the slot descriptors directly and
    needs no `dataclasses` import.
    """

    __slots__ = ()

    def __init_subclass__(cls, **defaults):
        super().__init_subclass__()
        fields = tuple(cls.__slots__)
        scope = {f"_set_{f}": getattr(cls, f).__set__ for f in fields}
        scope.update((f"_default_{f}", v) for f, v in defaults.items())
        params = ", ".join(f"{f}=_default_{f}" if f in defaults else f for f in fields)
        body = "".join(f"\n    _set_{f}(self, {f})" for f in fields)
        exec(f"def __init__(self, {params}):{body}", scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls._fields = fields
        cls._values = attrgetter(*fields)  # the field values, as one tuple

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        items = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({items})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values(self)


def replace(record: Record, **changes) -> Record:
    """A copy of `record` with the fields named in `changes` set to them."""
    return type(record)(**dict(zip(record._fields, record._values(record)), **changes))


class ValidatedInstance(Record):
    """An instance that passed validation, plus derived ordering metadata.

    `value_order` lists player ids by ascending (value, index), the order in
    which they exit; `budget_order` lists them by descending budget, then
    ascending index, the order in which they join the clinching set.
    """

    __slots__ = {
        "values": "tuple[float, ...]",
        "budgets": "tuple[float, ...]",
        "supply": "float",
        "value_order": "tuple[int, ...]",
        "budget_order": "tuple[int, ...]",
    }

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
    Raises NonFinite / NegativeEntry / LengthMismatch / EmptyInstance; the
    budgets must also have a finite sum, which the engine takes.
    """
    if inst is not None:
        values, budgets, supply = inst.values, inst.budgets, inst.supply
    if values is None or budgets is None or supply is None:
        raise LengthMismatch("values, budgets and supply are all required")
    vals = _as_floats("values", values)
    buds = _as_floats("budgets", budgets)
    try:
        math.fsum(buds)
    except OverflowError:
        raise NonFinite("budgets sum to more than the largest double") from None
    if len(vals) == 0:
        raise EmptyInstance("need at least one player")
    if len(vals) != len(buds):
        raise LengthMismatch(f"{len(vals)} values vs {len(buds)} budgets")
    (sup,) = _as_floats("supply", [supply])
    # sorted is stable, also with reverse=True: equal keys keep index order
    ids = range(len(vals))
    return ValidatedInstance(vals, buds, sup, tuple(sorted(ids, key=vals.__getitem__)),
                             tuple(sorted(ids, key=buds.__getitem__, reverse=True)))


def with_supply(inst: ValidatedInstance, supply: float) -> ValidatedInstance:
    """`inst` with its supply replaced by `supply`, validated as
    `validate_instance` validates a supply; the player orders are kept."""
    (sup,) = _as_floats("supply", [supply])
    return ValidatedInstance(inst.values, inst.budgets, sup, inst.value_order,
                             inst.budget_order)


class Outcome(Record):
    """Final allocation (units per player) and payments (money per player)."""

    __slots__ = {"allocation": "tuple[float, ...]", "payments": "tuple[float, ...]"}

    @staticmethod
    def zero(n: int) -> "Outcome":
        return Outcome((0.0,) * n, (0.0,) * n)

    @property
    def n(self) -> int:
        return len(self.allocation)


class PriceState(Record):
    """Snapshot of the ascending process at one price.

    Carries the (constant) value vector so that a state is self-contained:
    active/clinching sets, remaining budgets and remnant supply can all be
    re-derived and cross-checked from the snapshot alone.
    """

    __slots__ = {
        "price": "float",
        "allocation": "tuple[float, ...]",
        "budgets": "tuple[float, ...]",
        "supply": "float",
        "active": "frozenset[int]",
        "clinching": "frozenset[int]",
        "values": "tuple[float, ...]",
    }

    @property
    def n(self) -> int:
        return len(self.allocation)

    def max_budget(self) -> float:
        """Maximum remaining budget among active players (0 if none active)."""
        return max((self.budgets[i] for i in self.active), default=0.0)


EVENT_CLINCH_ENTRY = "clinch_entry"
EVENT_EXIT = "exit"


class Event(Record):
    """One event of the ascending process and the state right after it.

    Exits at a repeated value are recorded as one event per removed player,
    all sharing the price; entries list every player that joined together.
    The state just before the event is not stored: it is the previous
    event's `after` (or the initial state) evolved to `price` by
    `engine.evolve`.
    """

    __slots__ = {
        "kind": "str",
        "price": "float",
        "players": "tuple[int, ...]",
        "delta_x": "tuple[float, ...]",
        "delta_pay": "tuple[float, ...]",
        "after": "PriceState",
    }


class EventTrace(Record, notes=()):
    """Ordered events of one auction run plus the final state and outcome."""

    __slots__ = {
        "values": "tuple[float, ...]",
        "budgets": "tuple[float, ...]",
        "supply": "float",
        "events": "tuple[Event, ...]",
        "final": "PriceState",
        "outcome": "Outcome",
        "notes": "tuple[str, ...]",
    }


# ---------------------------------------------------------------------------
# JSON plumbing.  Numbers are rendered with 17 significant digits so that a
# serialize/parse round trip reproduces every double exactly.

INSTANCE_SCHEMA = '{"values": [...], "budgets": [...], "supply": number}'


def fmt_float(x: float) -> str:
    """One number of the JSON output: 17 significant digits, or NaN and the
    infinities as `json` writes them."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


_FLOATS = frozenset((float,))
_INTS = frozenset((int,))


def _encode(obj) -> str:
    if isinstance(obj, (list, tuple)):
        # Exact types, so bool and numpy scalars take the per-value path.
        kinds = set(map(type, obj))
        if kinds == _FLOATS:
            return "[" + ", ".join(map(fmt_float, obj)) + "]"
        if kinds == _INTS:
            return "[" + ", ".join(map(str, obj)) + "]"
        return "[" + ", ".join(map(_encode, obj)) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
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

