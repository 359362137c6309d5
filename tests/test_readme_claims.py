"""The README claim table against the identity registry (`cli.IDENTITIES`)."""

from __future__ import annotations

import re
from pathlib import Path

from ak4 import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
#: A cell border: a `|` that no backslash escapes (the kappa row holds `\|∇J\|`).
BORDER = re.compile(r"(?<!\\)\|")
TICKED = re.compile(r"`([^`]+)`")


def claim_rows() -> list[dict[str, str]]:
    """The rows of the table whose header starts `| claim | rows |`, each a
    dict of its cells by header name."""
    lines = README.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("| claim | rows |"))
    header = [cell.strip() for cell in BORDER.split(lines[start])[1:-1]]
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in BORDER.split(line)[1:-1]]
        assert len(cells) == len(header), line
        rows.append(dict(zip(header, cells)))
    return rows


def first_order_paragraph() -> str:
    """The README paragraph that names the first-order rows every claim builds on."""
    [paragraph] = [p for p in README.split("\n\n") if "first-order structure" in p and "every claim" in p]
    return paragraph


def test_the_claim_table_parses_into_its_rows():
    rows = claim_rows()
    assert len(rows) >= 9
    kappa = next(row for row in rows if "`kappa`" in row["rows"])
    assert "\\|∇J\\|" in kappa["claim"]


def test_every_name_in_the_rows_column_is_a_check_name():
    names = [name for row in claim_rows() for name in TICKED.findall(row["rows"])]
    assert names
    assert sorted(set(names) - set(cli.CHECK_NAMES)) == []


def test_every_registry_row_and_sandbox_check_is_in_the_table_or_the_first_order_list():
    listed = {name for row in claim_rows() for name in TICKED.findall(row["rows"])}
    listed |= set(TICKED.findall(first_order_paragraph()))
    registry = {identity.name for identity in cli.IDENTITIES} | set(cli.SANDBOX_CHECKS)
    assert sorted(registry - listed) == []
