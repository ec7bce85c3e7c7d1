"""Helpers shared by the test modules."""

from typing import NamedTuple


class Record(NamedTuple):
    tag: str  # "A", "S" or "M"
    t_ms: int
    text: str


def printed_records(report):
    """The report's records read back from its printed text: one Record
    per `<tag> t=<t_ms> <text>` line between the header and the C/F/V
    tail, in order."""
    records = []
    for line in report.serialize().split("\n"):
        if line[:2] in ("A ", "S ", "M "):
            tag, t, text = line.split(" ", 2)
            assert t.startswith("t="), line
            records.append(Record(tag, int(t[2:]), text))
    return records


def typed(values):
    """Each value paired with its type. A NamedTuple equals any tuple with
    the same fields (ErrorOnce(8000) == (8000,)), so lists of events are
    compared through this to still fail on a value of the wrong type."""
    return [(type(value), value) for value in values]
