"""Budget-constrained clinching auction with online supply: exact solver,
closed two-player forms, streaming supply, VCG baselines and a property
verification harness."""

from .core import (
    AuctionError,
    Event,
    EventTrace,
    Outcome,
    PriceState,
    ValidatedInstance,
    validate_instance,
)
from .engine import (
    evolve,
    run_trace,
    solve,
    trace,
    wishful_allocation,
)

__all__ = [
    "AuctionError",
    "Event",
    "EventTrace",
    "Outcome",
    "PriceState",
    "ValidatedInstance",
    "evolve",
    "run_trace",
    "solve",
    "trace",
    "validate_instance",
    "wishful_allocation",
]
