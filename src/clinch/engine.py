"""Exact event-driven solver for the adaptive clinching auction.

The ascending-price process is piecewise closed-form: between events the
remnant supply decays like p^-k (k = number of clinching players), the
clinchers' budgets fall accordingly and nobody else moves.  Events are of
two kinds: a player *enters* the clinching set (the falling maximum budget
meets its own), or the price reaches some player's value and it *exits*,
triggering a discrete clinch by everyone still active.  The loop therefore
touches at most 2n event prices, each computed in closed form.

Every active player holds min(B_i(0), B*), where B* is the largest
remaining budget, and clinchers are exactly the active players at B*.
So a run keeps only a compressed state: the price p, the remnant supply S,
B* and the clincher count k, one cumulative gain G shared by all clinchers
(clincher i holds G - off_i units, the offset taken when it joins), the
budget sum of the active non-clinchers ("outsiders"), a pointer into
`value_order` for exits and two pointers into `budget_order`: the largest
active outsider and the smallest one.  Players join the clinching set from
the top of the budget order and leave it only by exiting, so each event
costs O(1) amortised and a solve is O(n log n), dominated by the two sorts
in `validate_instance`.  A traced run hands each event to a callback as it
happens, with one snapshot of the state after it; to take that snapshot it
writes the k clinchers' entries back to the allocation and budget lists.
Nothing is retained, so `run_trace` needs O(n) memory however many events
there are; `trace` collects the events.  An event's rows and sets differ
from the previous event's only at the clinchers after it and at its own
players (a clincher leaves only by exiting, and an exit's receivers join),
and every other entry is the same float object: `clinch trace` re-encodes
just those entries.

Beyond which values are positive, a run reads the values only through
the lowest active value (the next exit) and the players that share it.
So a positive misreport r changes nothing while the lowest active value
is below r: up to the first round where it reaches r, a run with the
report and a run with any larger one do the same floating-point
operations.  `solve_misreports` uses this: it runs the largest report
once and, at that round for each smaller r, forks the live run
(`_Run.fork`) with r's values and value order and runs the tail, which
gives `solve`'s outcome for r bit for bit.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from itertools import repeat
from operator import attrgetter, sub

from .core import (
    EVENT_CLINCH_ENTRY,
    EVENT_EXIT,
    Event,
    EventSkipped,
    EventTrace,
    NegativeBudget,
    NumericalDivergence,
    Outcome,
    PriceState,
    SUPPLY_FLOOR,
    ValidatedInstance,
    ZeroPrice,
    close,
    replace,
    tol,
    validate_instance,
)


def _ensure_validated(inst) -> ValidatedInstance:
    if isinstance(inst, ValidatedInstance):
        return inst
    return validate_instance(inst)


def _segment(p: float, p_new: float, S: float, k: int) -> tuple[float, float, float]:
    """Closed form of a clinching segment from price p to p_new with k clinchers.

    Returns the remnant supply S * (p/p')^k, each clincher's gain (the freed
    supply split equally) and each clincher's budget change
    p*S/(k-1) * ((p/p')^(k-1) - 1), which is p*S*log(p/p') for k = 1.
    """
    if p <= 0.0:
        raise ZeroPrice("cannot evolve a clinching segment from price 0")
    ratio = p / p_new
    if k == 1:
        s_new = S * ratio
        return s_new, S - s_new, p * S * (math.log(p) - math.log(p_new))
    s_new = S * ratio**k
    return s_new, (S - s_new) / k, p * S / (k - 1) * (ratio ** (k - 1) - 1.0)


class _Run:
    """Compressed state of one auction execution (see the module docstring).

    `x` and `B` hold every player's allocation and remaining budget, except
    that the clinchers' entries are stale until `sync` writes them back.
    `emit`, when set, receives each `Event` as it happens; a solve leaves it
    None and takes no snapshots.
    """

    __slots__ = ("values", "b0", "emit", "zeros", "n", "x", "B", "S", "p",
                 "active", "clinching", "G", "bstar", "n_out", "rest", "rest_err",
                 "value_order", "budget_order", "low", "top", "bottom", "b0_max",
                 "rounds", "notes")

    def __init__(self, inst: ValidatedInstance, emit=None):
        self.values = inst.values
        self.b0 = inst.budgets
        self.emit = emit
        self.n = inst.n
        # the delta rows of every entry and of every exit without receivers
        self.zeros = (0.0,) * self.n if emit is not None else None
        self.x = [0.0] * self.n
        self.B = list(inst.budgets)
        self.S = float(inst.supply)
        self.p = 0.0
        self.active = {i for i in range(self.n) if inst.values[i] > 0.0}
        # clincher -> offset: clincher i holds G - off_i units and B* money
        self.clinching: dict[int, float] = {}
        self.G = 0.0
        self.bstar = 0.0
        # outsiders (active non-clinchers) hold their initial budgets
        self.n_out = len(self.active)
        self.rest = math.fsum(map(self.b0.__getitem__, self.active))
        self.rest_err = 0.0
        self.value_order = inst.value_order
        self.budget_order = inst.budget_order
        self.low = 0            # value_order index of the next exit
        self.top = 0            # budget_order index of the largest outsider
        self.bottom = self.n - 1  # budget_order index of the smallest outsider
        self.b0_max = max(self.b0)
        self.rounds = 0         # events processed, for the divergence guard
        self.notes: list[str] = []

    def fork(self, inst: ValidatedInstance) -> _Run:
        """A copy of this live run that goes on with `inst`'s values and
        value order; it runs as a fresh run of `inst` would when the two
        differ only in values above every exit price so far.

        The mutable state is copied and the exit pointer starts again from
        the front of `inst`'s value order (everything it passes is inactive).
        """
        twin = _Run.__new__(_Run)
        for name in _Run.__slots__:
            setattr(twin, name, getattr(self, name))
        twin.x, twin.B, twin.notes = list(self.x), list(self.B), list(self.notes)
        twin.active, twin.clinching = set(self.active), dict(self.clinching)
        twin.values, twin.value_order, twin.low = inst.values, inst.value_order, 0
        return twin

    def sync(self) -> None:
        """Write the clinchers' allocations and budgets back to x and B."""
        x, B, G, bstar = self.x, self.B, self.G, self.bstar
        for i, off in self.clinching.items():
            x[i] = G - off
            B[i] = bstar

    def snap(self, price: float) -> PriceState:
        self.sync()
        return PriceState(price, tuple(self.x), tuple(self.B), self.S,
                          frozenset(self.active), frozenset(self.clinching),
                          self.values)

    def row(self, entries: dict[int, float]) -> tuple[float, ...]:
        """A delta row: `entries` on the shared zero row."""
        if not entries:
            return self.zeros
        row = list(self.zeros)
        for i, d in entries.items():
            row[i] = d
        return tuple(row)

    def top_outsider(self) -> int:
        """The active outsider with the largest budget; needs n_out > 0."""
        order, active, clinching = self.budget_order, self.active, self.clinching
        i = order[self.top]
        while i not in active or i in clinching:
            self.top += 1
            i = order[self.top]
        return i

    def min_budget(self) -> float:
        """Smallest remaining budget among the active players."""
        low = self.bstar if self.clinching else math.inf
        if self.n_out:
            order, active, clinching = self.budget_order, self.active, self.clinching
            while order[self.bottom] not in active or order[self.bottom] in clinching:
                self.bottom -= 1
            low = min(low, self.b0[order[self.bottom]])
        return low

    def lowest_value(self) -> float:
        """The smallest value among the active players; needs them non-empty."""
        order = self.value_order
        while order[self.low] not in self.active:
            self.low += 1
        return self.values[order[self.low]]

    def drop_outsider(self, i: int) -> None:
        """Take outsider i off `rest`, carrying the rounding error of each
        subtraction in `rest_err` (Neumaier), so that rest + rest_err stays
        within a few ulps of the exact sum however many players left."""
        self.n_out -= 1
        if not self.n_out:
            self.rest = self.rest_err = 0.0
            return
        s, b = self.rest, self.b0[i]
        t = s - b
        self.rest_err += (s - t) - b if abs(s) >= b else s - (t + b)
        self.rest = t

    def outsider_budget(self) -> float:
        """Total budget of the active outsiders."""
        return self.rest + self.rest_err

    def join(self, i: int, units: float) -> None:
        """Outsider i starts clinching, with `units` clinched on joining."""
        self.drop_outsider(i)
        self.clinching[i] = self.G - (self.x[i] + units)

    def enter(self) -> list[int]:
        """Every outsider within tolerance of the largest active budget joins."""
        m = self.b0[self.top_outsider()]
        if not self.clinching:
            self.bstar = m
        bstar = max(self.bstar, m)
        joined = []
        while self.n_out:
            i = self.top_outsider()
            if not close(self.b0[i], bstar):
                break
            self.join(i, 0.0)
            joined.append(i)
        return joined

    def advance_to(self, p_new: float) -> None:
        if self.clinching and p_new != self.p:
            self.S, gain, db = _segment(self.p, p_new, self.S, len(self.clinching))
            self.G += gain
            self.bstar += db
        self.p = p_new

    def entry_price(self) -> float:
        """Price of the next clinch-entry event, or +inf if none will occur.

        With no clinchers this is where the remnant supply first equals the
        price-deflated budgets of every active player but the richest; after
        that it is where the falling B* meets the largest outsider budget m,
        inverted through the segment closed form.
        """
        if not self.n_out:
            return math.inf
        m = self.b0[self.top_outsider()]
        k, p, S = len(self.clinching), self.p, self.S
        if not k:
            rest = self.outsider_budget() - m if self.n_out > 1 else 0.0
            if rest <= 0.0 or S <= 0.0:
                return math.inf
            pe = rest / S
            return pe if pe > p else p
        if p <= 0.0:
            raise ZeroPrice("clinching segment cannot start at price 0")
        if k == 1:
            log_pe = math.log(p) + (self.bstar - m) / (p * S)
            if log_pe > 700.0:
                return math.inf
            return math.exp(log_pe)
        denom = p * S - (k - 1) * (self.bstar - m)
        if denom <= 0.0:
            return math.inf
        return p * (p * S / denom) ** (1.0 / (k - 1))

    def next_event(self) -> tuple[float, str]:
        """Price and kind of the next event; an entry within tolerance of the
        next exit is absorbed by the exit's discrete clinch."""
        v_next = self.lowest_value()
        pe = self.entry_price()
        if pe < v_next and not close(pe, v_next):
            return pe, EVENT_CLINCH_ENTRY
        return v_next, EVENT_EXIT

    def settle(self) -> None:
        """Absorb an entry that coincides with the exit price just processed.

        While there are clinchers, every outsider within tolerance of the
        largest budget joins; with none, the richest outsiders join if the
        entry price is already reached.  So no zero-width entry event is
        ever emitted.
        """
        if self.n_out and (self.clinching or (
                self.S > SUPPLY_FLOOR
                and self.entry_price() <= self.p + tol(self.p))):
            self.enter()

    def do_entry(self, pe: float) -> None:
        self.advance_to(pe)
        joiners = self.enter()
        if not joiners:
            raise NumericalDivergence(f"entry event at p={pe} added no players")
        if self.emit is not None:
            self.emit(Event(EVENT_CLINCH_ENTRY, pe, tuple(sorted(joiners)),
                            self.zeros, self.zeros, self.snap(pe)))

    def remove(self, j: int) -> None:
        self.active.remove(j)
        if j in self.clinching:
            self.x[j] = self.G - self.clinching.pop(j)
            self.B[j] = self.bstar
        else:
            self.drop_outsider(j)

    def clinch(self, v: float, eps: float, dx: dict | None = None,
               dpay: dict | None = None) -> None:
        """The discrete clinch of the active players after one exit at v.

        A holder of remaining budget b clinches delta = [S - (tot - b)/v]^+,
        tot being the active players' total budget, and pays v * delta, so
        every receiver is left with T = tot - S*v: the clinchers receive
        (B* - T)/v through G, and outsiders join from the top of the budget
        order while their delta is positive.  Delta is capped at
        max(b, 0)/v, which binds only when T < 0: the cap keeps degenerate
        zero-budget instances budget-feasible, and binding beyond tolerance
        while every player holds money raises NegativeBudget.  When
        recording, each receiver's units and payment go to dx and dpay.
        """
        S, bstar, k = self.S, self.bstar, len(self.clinching)
        tot = k * bstar + self.outsider_budget()
        over = S - tot / v  # -T/v: how far the cap binds, for every receiver alike
        if over > eps / max(v, 1.0) and self.min_budget() > eps:
            raise NegativeBudget(f"exit at {v} would overdraw every budget by {S * v - tot}")
        sold, left = 0.0, None
        if k:
            d = min(S - (tot - bstar) / v, max(bstar, 0.0) / v)
            if d > 0.0:
                self.G += d
                sold, left = k * d, bstar - v * d
                if dx is not None:
                    for i in self.clinching:
                        dx[i], dpay[i] = d, v * d
        while self.n_out:
            i = self.top_outsider()
            b = self.b0[i]
            d = min(S - (tot - b) / v, b / v)
            if d <= 0.0:
                break
            self.join(i, d)
            sold += d
            if left is None:
                left = b - v * d
            if dx is not None:
                dx[i], dpay[i] = d, v * d
        if left is not None:
            if left < 0.0:
                if left < -eps:
                    raise NegativeBudget(f"budget {left} after exit at {v}")
                left = 0.0
            self.bstar = left
            if over <= 0.0:
                # Uncapped, every receiver now meets its supply inequality
                # with equality: S = (tot - B*)/v.  Taking S from there keeps
                # it consistent with B*; subtracting the receivers' units
                # one by one leaves dust that a tied exit multiplies by k.
                self.S = min(S, ((len(self.clinching) - 1) * left
                                 + self.outsider_budget()) / v)
                return
        self.S = max(S - sold, 0.0)

    def do_exit(self, v: float) -> None:
        """Remove every active player with value v, lowest index first; after
        each removal the remaining active players clinch (see `clinch`)."""
        self.advance_to(v)
        order, exiting = self.value_order, []
        pos = self.low
        while pos < self.n and self.values[order[pos]] == v:
            if order[pos] in self.active:
                exiting.append(order[pos])
            pos += 1
        eps = tol(v, self.b0_max)
        dx = dpay = None
        for idx, j in enumerate(exiting):
            if self.emit is not None:
                dx, dpay = {}, {}
            self.remove(j)
            if self.active:
                self.clinch(v, eps, dx, dpay)
            if idx == len(exiting) - 1:
                self.settle()
            if self.emit is not None:
                self.emit(Event(EVENT_EXIT, v, (j,), self.row(dx), self.row(dpay),
                                self.snap(v)))

    def step(self) -> None:
        """Process the next event; needs an active player and supply left."""
        self.rounds += 1
        if self.rounds > 4 * self.n + 16:
            raise NumericalDivergence("event loop failed to terminate")
        price, kind = self.next_event()
        if kind == EVENT_EXIT:
            self.do_exit(price)
        elif price <= self.p:
            raise NumericalDivergence(
                f"entry price {price} does not advance past {self.p}")
        else:
            self.do_entry(price)

    def run(self) -> None:
        while self.active and self.S > SUPPLY_FLOOR:
            self.step()
        if not self.active and self.S > SUPPLY_FLOOR:
            self.notes.append(f"unsold supply discarded: {self.S:.17g}")

    def outcome(self) -> Outcome:
        self.sync()
        pays = tuple(map(max, map(sub, self.b0, self.B), repeat(0.0)))
        return Outcome(tuple(self.x), pays)


def _single_bidder(inst: ValidatedInstance) -> _Run:
    run = _Run(inst)
    if inst.values[0] > 0.0 and inst.supply > SUPPLY_FLOOR:
        run.x[0] = inst.supply
        run.S = 0.0
        run.p = inst.values[0]
        run.active = set()
        run.notes.append("single-bidder outcome by the discrete-auction limit "
                         "(the differential clinching condition is vacuous for n=1)")
    elif inst.supply > SUPPLY_FLOOR:
        run.notes.append(f"unsold supply discarded: {run.S:.17g}")
    return run


def _execute(inst, emit=None) -> _Run:
    vinst = _ensure_validated(inst)
    if vinst.n == 1:
        return _single_bidder(vinst)
    run = _Run(vinst, emit)
    run.run()
    return run


def solve(inst) -> Outcome:
    """Final allocation and payments of the auction for this instance."""
    return _execute(inst).outcome()


def misreport(inst: ValidatedInstance, player: int, report: float) -> ValidatedInstance:
    """`inst` with the player's value replaced by `report`, which must be
    finite and non-negative: only the value order changes, sorted stably as
    `validate_instance` sorts it."""
    vals = list(inst.values)
    vals[player] = report
    vals = tuple(vals)
    return ValidatedInstance(vals, inst.budgets, inst.supply,
                             tuple(sorted(range(len(vals)), key=vals.__getitem__)),
                             inst.budget_order)


def solve_misreports(inst, player: int, reports) -> list[Outcome]:
    """`solve(misreport(inst, player, r))` for each r in `reports`, bit for bit.

    One run goes up with the player reporting the largest report.  A report
    r leaves the run unchanged while the lowest active value is below r, so
    at the first round where it reaches r the live run forks (`_Run.fork`)
    and the fork finishes the auction with r.  A report the run never
    reaches before it ends takes its outcome.  A report that is not
    positive, or any report when there is one player, is solved on its own.
    """
    vinst = _ensure_validated(inst)
    out: list = [None] * len(reports)
    sweep = []
    for k, r in enumerate(reports):
        if r > 0.0 and vinst.n > 1:
            sweep.append(k)
        else:
            out[k] = _execute(misreport(vinst, player, r)).outcome()
    if not sweep:
        return out
    sweep.sort(key=reports.__getitem__)
    run = _Run(misreport(vinst, player, reports[sweep[-1]]))
    j, last, forked = 0, None, None
    while run.active and run.S > SUPPLY_FLOOR:
        v = run.lowest_value()
        while j < len(sweep) and reports[sweep[j]] <= v:
            r = reports[sweep[j]]
            if r != last:
                twin = run.fork(misreport(vinst, player, r))
                twin.run()
                last, forked = r, twin.outcome()
            out[sweep[j]] = forked
            j += 1
        run.step()
    top = run.outcome()
    for k in sweep[j:]:
        out[k] = top
    return out


def run_trace(inst, on_event) -> tuple[PriceState, Outcome, tuple[str, ...]]:
    """Run the auction, handing each `Event` to `on_event` as it happens.

    Returns the final state, the outcome (exactly `solve`'s) and the notes.
    No event is retained; if the run raises, `on_event` has seen every event
    before the failure.
    """
    run = _execute(inst, on_event)
    return run.snap(run.p), run.outcome(), tuple(run.notes)


def trace(inst) -> EventTrace:
    """Full event trace: `run_trace` with the events collected."""
    vinst = _ensure_validated(inst)
    events: list[Event] = []
    final, outcome, notes = run_trace(vinst, events.append)
    return EventTrace(vinst.values, vinst.budgets, vinst.supply, tuple(events),
                      final, outcome, notes)


def _exit_guard(state: PriceState, p_new: float) -> None:
    """`evolve`'s check that p_new does not pass the next exit."""
    if state.active:
        v_next = min(map(state.values.__getitem__, state.active))
        if p_new > v_next and p_new > v_next + tol(v_next):
            raise EventSkipped(f"price {p_new} passes the exit at {v_next}")


def _entry_guard(state: PriceState, budgets) -> None:
    """`evolve`'s check that the clinchers' budgets, evolved to `budgets`,
    did not fall below an outsider's."""
    if not state.clinching:
        return
    outsiders = state.active - state.clinching
    if outsiders:
        m = max(map(budgets.__getitem__, outsiders))
        bstar = max(map(budgets.__getitem__, state.clinching))
        if bstar < m and not close(bstar, m):
            raise EventSkipped(
                f"clinching budgets fell below an outsider budget inside the step "
                f"({bstar} < {m}): an entry event was skipped")


def evolve(state: PriceState, p_new: float) -> PriceState:
    """Evolve the snapshot along the closed form to price p_new.

    Requires that no event lies strictly inside (price, p_new); violations
    detected after the fact raise EventSkipped.
    """
    if p_new < state.price:
        raise ValueError(f"cannot evolve backwards: {p_new} < {state.price}")
    _exit_guard(state, p_new)
    x, B = list(state.allocation), list(state.budgets)
    S, k = state.supply, len(state.clinching)
    if k and p_new != state.price:
        S, gain, db = _segment(state.price, p_new, S, k)
        for i in state.clinching:
            x[i] += gain
            B[i] += db
    out = PriceState(p_new, tuple(x), tuple(B), S, state.active,
                     state.clinching, state.values)
    _entry_guard(state, B)
    return out


def wishful_allocation(state: PriceState) -> tuple[float, ...]:
    """Current allocation plus maximum further demand B_i/p, componentwise."""
    if state.price <= 0.0:
        raise ZeroPrice("wishful allocation is undefined at price 0")
    p = state.price
    return tuple(x + b / p for x, b in zip(state.allocation, state.budgets))


def initial_state(inst) -> PriceState:
    """The process state at price 0: nothing allocated, budgets intact.

    A `ValidatedInstance` or an `EventTrace` is read as it is, since its
    fields are validated already; anything else is validated first.
    """
    if not isinstance(inst, (ValidatedInstance, EventTrace)):
        inst = validate_instance(inst)
    values = inst.values
    active = frozenset(i for i in range(len(values)) if values[i] > 0.0)
    return PriceState(0.0, (0.0,) * len(values), inst.budgets, inst.supply,
                      active, frozenset(), values)


def state_at(tr: EventTrace, p: float) -> PriceState:
    """Right-continuous snapshot of a traced run at an arbitrary price."""
    if p < 0.0:
        raise ValueError("price must be non-negative")
    k = bisect_right(tr.events, p, key=attrgetter("price"))
    if k == len(tr.events):  # the run is over; the state stays frozen
        return replace(tr.final, price=p)
    return evolve(tr.events[k - 1].after if k else initial_state(tr), p)


def wishful_rows(tr: EventTrace, prices) -> list[tuple[float, ...]]:
    """`wishful_allocation(state_at(tr, p))` for each of the ascending,
    positive `prices`, bit for bit, in one pass over the events.

    Each stretch of prices between two events evolves the earlier event's
    state with `evolve`'s arithmetic: a clincher holds x + gain and B + db,
    then every player x + B/p.  `evolve`'s two guards are checked once per
    stretch, at its highest price, since the price only rises along it and
    B* only falls; so a trace that `state_at` refuses at some price raises
    EventSkipped here too, perhaps naming another price.
    """
    events, end, rows = tr.events, len(prices), []
    j = k = 0  # k counts the events at or below prices[j]
    while j < end:
        while k < len(events) and events[k].price <= prices[j]:
            k += 1
        if k == len(events):  # the run is over; the state stays frozen
            x, B = tr.final.allocation, tr.final.budgets
            rows += [tuple(xi + b / p for xi, b in zip(x, B)) for p in prices[j:]]
            break
        stop, after = j, events[k].price
        while stop < end and prices[stop] < after:
            stop += 1
        st = events[k - 1].after if k else initial_state(tr)
        p0, S, x, B, kc = st.price, st.supply, st.allocation, st.budgets, len(st.clinching)
        _exit_guard(st, prices[stop - 1])
        for p in prices[j:stop]:
            row = [xi + b / p for xi, b in zip(x, B)]
            if kc and p != p0:
                _, gain, db = _segment(p0, p, S, kc)
                for i in st.clinching:
                    row[i] = (x[i] + gain) + (B[i] + db) / p
            rows.append(tuple(row))
        if kc and prices[stop - 1] != p0:  # the budgets at the stretch's top price
            B = list(B)
            for i in st.clinching:
                B[i] += db
        _entry_guard(st, B)
        j = stop
    return rows
