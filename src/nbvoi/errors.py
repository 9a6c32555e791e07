"""Exception and warning types shared across the package."""

from __future__ import annotations


class InputError(ValueError):
    """Invalid user input: bad file, bad column, out-of-range value.

    Maps to CLI exit code 2.  ``row`` carries the 1-based file line
    number when the error is tied to a specific data row.
    """

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"{message} (row {row})"
        super().__init__(message)
        self.row = row


class NumericError(RuntimeError):
    """Numerical failure that is not the user's fault: a computed EVPI below
    zero or a P(useful) outside [0, 1], as ``voi.VoiResult`` checks them.

    Maps to CLI exit code 3.
    """


class SmallEffectiveSampleWarning(UserWarning):
    """Fewer than 20 observations on one side of the decision threshold.

    Estimates at such thresholds are driven by a handful of rows and can
    behave non-monotonically with sample size.
    """
