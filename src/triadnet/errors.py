"""Exception types shared across the package."""


class DataError(Exception):
    """Input data violate a documented contract (bad file, bad value, short history)."""

