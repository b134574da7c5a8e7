"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent.

    Carries the origin of the offending entry (a profile, or the
    --section.key override that set it) and its line when it came from a
    profile file.
    """

    def __init__(self, message: str, lineno: int | None = None, origin: str | None = None):
        self.lineno = lineno
        self.origin = origin
        where = ""
        if origin is not None and lineno is not None:
            where = f"{origin}:{lineno}: "
        elif origin is not None:
            where = f"{origin}: "
        super().__init__(where + message)
