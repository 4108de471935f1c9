"""The output-identity manifest: `scripts/output_digest.py` must print the
digests committed in `tests/output_digests.txt`.  Only the `solve`, `trace`
and `stream` cases run here: their inputs come from the standard library's
`random` and they need no numpy, so a numpy upgrade cannot move them.  The
`check` cases are diffed in CI.  A change that alters output bytes on
purpose regenerates the file, so the change shows in its diff.

    PYTHONPATH=src python scripts/output_digest.py > tests/output_digests.txt
"""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).with_name("output_digests.txt")
FAST = ("solve/", "trace/", "stream/")

_spec = importlib.util.spec_from_file_location("output_digest",
                                               ROOT / "scripts" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def _pinned() -> list[str]:
    return PINNED.read_text().splitlines()


def test_pinned_file_covers_the_whole_manifest():
    names = [line.split()[1] for line in _pinned()]
    assert names == [case[0] for case in output_digest.manifest()] + ["overall"]


def test_fast_cases_keep_their_pinned_digests():
    want = [line for line in _pinned() if line.split()[1].startswith(FAST)]
    assert len(want) == 9 + 2 * 2 + 4
    assert output_digest.digests(FAST)[:-1] == want
