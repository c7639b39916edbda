"""Error types shared across the package, and the rule by which every
config object is read.

The CLI maps these onto exit codes: configuration problems exit 2,
unsupported/violated preconditions exit 3, statistical check failures exit 4.
"""

import numbers


class ConfigurationError(ValueError):
    """A config value is missing, malformed, or inconsistent."""


class PreconditionError(RuntimeError):
    """An operation was invoked on a configuration it does not support."""


def config_object(obj, name: str, required=(), optional=()) -> dict:
    """obj, a JSON object with every required field and no other field
    than the required and optional ones; else a ConfigurationError naming
    name.field."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{name}: expected a JSON object")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigurationError(f"{name}.{key}: unknown field")
    for key in required:
        if key not in obj:
            raise ConfigurationError(f"{name}.{key}: missing")
    return obj


def config_list(val, name: str) -> list:
    """val, a JSON list; else a ConfigurationError naming name."""
    if not isinstance(val, list):
        raise ConfigurationError(f"{name}: expected a list")
    return val


def config_number(val, name: str) -> float:
    """float(val) of a JSON number (a real number, not a bool), or a
    ConfigurationError naming name: a string or true is no number."""
    if isinstance(val, numbers.Real) and not isinstance(val, bool):
        try:
            return float(val)
        except OverflowError:       # an integer beyond the float range
            pass
    raise ConfigurationError(f"{name}: expected a number")
