"""Shared exception types for domain-level and input-shape failures, and
the limit on results whose size grows with an integer argument."""

OUTPUT_LIMIT = 10**6


class DomainError(ValueError):
    """Raised when an input violates a mathematical precondition.

    The CLI maps this to exit code 1, as opposed to malformed input
    (bad JSON, unknown flags) which exits with code 2.
    """


class FormatError(ValueError):
    """Raised when input is structurally malformed before any mathematics
    runs: bad JSON shapes, unparsable rationals, missing keys.

    The CLI maps this to exit code 2.
    """


def check_output_size(count):
    """Refuse a result of more than OUTPUT_LIMIT integers before it is built."""
    if count > OUTPUT_LIMIT:
        raise DomainError(
            "the result would hold more than %d integers" % OUTPUT_LIMIT
        )
