"""The package's public name list, and the README that documents it."""

import collections
import pathlib
import re

import knnmi
from knnmi.harness import RECORD_COLUMNS, STABILITY_COLUMNS, SUMMARY_COLUMNS

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(heading):
    """README text from `heading` to the next heading of any level."""
    start = README.index(heading + "\n") + len(heading)
    end = re.compile(r"^#", re.M).search(README, start)
    return README[start:end.start() if end else len(README)]


def test_every_exported_name_resolves_once():
    repeated = [n for n, c in collections.Counter(knnmi.__all__).items() if c > 1]
    assert repeated == []
    missing = [n for n in knnmi.__all__ if not hasattr(knnmi, n)]
    assert missing == []


def test_readme_lists_exactly_the_exported_names():
    listed = re.findall(r"^\| `(\w+)` \|", _section("### Public names"), re.M)
    assert listed == knnmi.__all__


def _header_after(label):
    """The fenced header block that follows a README line starting with `label`."""
    block = re.search(rf"^{re.escape(label)}.*?```\n(.*?)```", README, re.M | re.S).group(1)
    return block.replace("\n", "").split(",")


def test_readme_file_headers_match_the_writers():
    assert _header_after("`records.csv` (") == RECORD_COLUMNS
    assert _header_after("`summary.csv` (") == SUMMARY_COLUMNS
    stability = re.search(r"^`stability\.csv`: `([\w,]+)`", README, re.M).group(1)
    assert stability.split(",") == STABILITY_COLUMNS
