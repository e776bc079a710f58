"""Exception types shared across the package.

ValidationError marks bad inputs or configuration (CLI exit code 2);
NumericalError marks runtime numerical failures such as path explosions
(CLI exit code 3).
"""


class LljdError(Exception):
    pass


class ValidationError(LljdError):
    pass


class NumericalError(LljdError):
    pass
