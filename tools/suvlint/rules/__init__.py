"""Rule registry: every rule class suvlint knows about."""

from rules.hotpath import HOTPATH_RULES
from rules.determinism import DETERMINISM_RULES

ALL_RULES = HOTPATH_RULES + DETERMINISM_RULES


def make_rules(only: set[str] | None = None):
    """Instantiate the registry, optionally restricted to rule ids."""
    rules = []
    for cls in ALL_RULES:
        if only is None or cls.id in only:
            rules.append(cls())
    return rules
