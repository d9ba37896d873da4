"""Exact internal checks that stay on under ``python -O``."""


class VerificationError(Exception):
    """A computed object failed one of its exact checks."""


def check(condition: bool, message: str) -> None:
    # Unlike assert, this check also runs under python -O.
    if not condition:
        raise VerificationError(message)
