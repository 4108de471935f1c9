import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs_as_its_comments_say():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    *_, first, second = out.getvalue().splitlines()
    # the first unit goes to the high-value bidder at the VCG price 1, the
    # second to the rich bidder for ln 2
    assert first == "DeltaOutcome(delta_x=(0.0, 1.0), delta_pay=(0.0, 1.0), supply=1.0)"
    assert second.startswith("DeltaOutcome(delta_x=(1.0, 0.0), delta_pay=(0.693147180559945")
