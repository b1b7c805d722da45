"""Relation schemas: named, typed columns."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterator, List, Sequence, Tuple

from repro.db.types import Domain

__all__ = ["Column", "Schema"]


@dataclass(frozen=True)
class Column:
    name: str
    domain: Domain

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("@", "").replace(
            "_", ""
        ).isalnum():
            raise ValueError(f"bad column name: {self.name!r}")

    def __str__(self) -> str:
        return f"{self.name}: {self.domain.name}"


def _compile_validator(
    columns: Tuple[Column, ...]
) -> Callable[[Sequence[Any]], Tuple[Any, ...]]:
    """``row -> validated tuple`` for ``columns``, generated once per
    schema with the per-column checks unrolled (the way ``namedtuple``
    builds ``__new__``): loading validates every row exactly once, so
    a row should cost one call per value — no per-row ``zip``, loop or
    attribute walk.  A tuple no check had to normalize is returned
    itself, not copied (rows are immutable; a loader that keeps its
    input then shares it with the relation).  Raises what the domains
    raise, and ``ValueError`` on an arity mismatch."""
    n = len(columns)
    values = "".join(f"v{i}, " for i in range(n))
    checked = "".join(f"c{i}, " for i in range(n))
    unchanged = "".join(f" and c{i} is v{i}" for i in range(n))
    source = (
        "def validate_row(row):\n"
        f"    if len(row) != {n}:\n"
        "        raise ValueError(\n"
        f"            f'row arity {{len(row)}} != schema arity {n}')\n"
        + (f"    {values}= row\n" if n else "")
        + "".join(f"    c{i} = check{i}(v{i})\n" for i in range(n))
        + f"    if type(row) is tuple{unchanged}:\n"
        "        return row\n"
        f"    return ({checked})\n"
    )
    namespace: dict = {
        f"check{i}": column.domain.validate
        for i, column in enumerate(columns)
    }
    exec(source, namespace)
    return namespace["validate_row"]


class Schema:
    """An ordered list of uniquely named columns."""

    def __init__(self, columns: Sequence[Column]) -> None:
        names = [c.name for c in columns]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"duplicate column names: {sorted(duplicates)}")
        self._columns: Tuple[Column, ...] = tuple(columns)
        self._index = {c.name: i for i, c in enumerate(self._columns)}

    @classmethod
    def of(cls, *pairs: Tuple[str, Domain]) -> "Schema":
        return cls([Column(name, domain) for name, domain in pairs])

    @property
    def columns(self) -> Tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> List[str]:
        return [c.name for c in self._columns]

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __reduce__(self):
        # The compiled validator does not pickle; the columns do.
        return (Schema, (self._columns,))

    @cached_property
    def validate_row(self) -> Callable[[Sequence[Any]], Tuple[Any, ...]]:
        """``validate_row(row)``: the row as a tuple of validated
        (possibly normalized) values.  Compiled on first use — the
        schemas of derived relations never validate."""
        return _compile_validator(self._columns)

    def __repr__(self) -> str:
        return f"Schema({', '.join(str(c) for c in self._columns)})"

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; have {self.names}"
            ) from None

    def column(self, name: str) -> Column:
        return self._columns[self.index_of(name)]

    def has_column(self, name: str) -> bool:
        return name in self._index

    def project(self, names: Sequence[str]) -> "Schema":
        return Schema([self.column(name) for name in names])

    def rename(self, mapping: dict) -> "Schema":
        """New schema with columns renamed per ``mapping`` (old -> new)."""
        return Schema(
            [
                Column(mapping.get(c.name, c.name), c.domain)
                for c in self._columns
            ]
        )

    def concat(
        self,
        other: "Schema",
        prefix_self: str = "",
        prefix_other: str = "",
    ) -> "Schema":
        """Concatenate two schemas, optionally prefixing names to avoid
        collisions (used by joins)."""
        left = [
            Column(prefix_self + c.name, c.domain) for c in self._columns
        ]
        right = [
            Column(prefix_other + c.name, c.domain) for c in other._columns
        ]
        return Schema(left + right)
