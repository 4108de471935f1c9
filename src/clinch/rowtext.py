"""The incremental list encoder of `clinch trace`.

A trace line holds four float rows and two id sets over n players, and
from one line to the next only the entries of the event's players and of
the clinchers after it can change (see the `engine` docstring).  A
`RowText` per list renders again only those entries.  Only `clinch trace`
imports this module, so `solve` and `stream` do not compile it.
"""
from __future__ import annotations

from .core import fmt_float

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
        self.text = "[]"

    def __call__(self, row, changed) -> str:
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
        self.text = "[" + ", ".join(filter(None, blocks)) + "]"
        return self.text


def float_entry(row, i: int) -> str:
    """`RowText` renderer of a float row."""
    return fmt_float(row[i])


def id_entry(ids, i: int) -> str:
    """`RowText` renderer of a set of ids: an id outside the set is left out."""
    return str(i) if i in ids else ""
