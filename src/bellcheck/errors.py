"""The exception type shared across the package: a ModelError ends a command in exit 3."""


class ModelError(RuntimeError):
    """A hidden-variable model misbehaved while generating trials.

    Raised when ``sample_lambda`` fails on its own domain or when a
    response function returns something other than -1 or +1.
    """
