"""Helpers shared by the test modules."""


def typed(values):
    """Each value paired with its type. A NamedTuple equals any tuple with
    the same fields (ErrorOnce(8000) == (8000,)), so lists of events are
    compared through this to still fail on a value of the wrong type."""
    return [(type(value), value) for value in values]
