"""Named variable allocation.

Encoders (the coloring reduction, SBP constructions, auxiliary Tseitin
variables) need fresh variables with meaningful names so that models can
be decoded and debugged.  :class:`VariablePool` hands out consecutive
variable ids and maps an optional name (key) to each.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator


class VariablePool:
    """Allocates consecutive variable ids, optionally keyed by a name.

    >>> pool = VariablePool()
    >>> x = pool.new("x", 1, 2)      # variable for key ("x", 1, 2)
    >>> pool.lookup("x", 1, 2) == x
    True
    >>> pool.num_vars >= 1
    True
    """

    def __init__(self, start: int = 0):
        if start < 0:
            raise ValueError("variable pool cannot start below 0")
        self._next = start + 1
        self._by_key: Dict[Hashable, int] = {}

    @property
    def num_vars(self) -> int:
        """Number of variables allocated so far (largest id)."""
        return self._next - 1

    def fresh(self) -> int:
        """Allocate an anonymous variable and return its id."""
        var = self._next
        self._next += 1
        return var

    def new(self, *key: Hashable) -> int:
        """Allocate a variable for ``key``; the key must be unused."""
        k = key if len(key) != 1 else key[0]
        if k in self._by_key:
            raise KeyError(f"variable key already allocated: {k!r}")
        var = self.fresh()
        self._by_key[k] = var
        return var

    def lookup(self, *key: Hashable) -> int:
        """Return the variable for ``key``; raises ``KeyError`` if absent."""
        k = key if len(key) != 1 else key[0]
        return self._by_key[k]

    def items(self) -> Iterator:
        """Iterate over ``(key, var)`` pairs of all named variables."""
        return iter(self._by_key.items())

    def __contains__(self, key: Hashable) -> bool:
        return key in self._by_key

    def __len__(self) -> int:
        return self.num_vars
