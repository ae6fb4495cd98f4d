"""Result objects returned by the model-checking engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Tuple

from ..bdd.allsat import cube_sets
from ..logic.ast_nodes import Formula
from ..logic.parser import format_formula


@dataclass(frozen=True)
class SatisfactionSet:
    """The paper's ``[[formula]]``: all satisfying status vectors.

    Attributes:
        formula: The queried formula.
        basic_events: Status-vector scope, in order.
        cubes: One partial assignment per BDD 1-path (don't-cares omitted) —
            the compact view Algorithm 3 collects.
        expand: Yields every total satisfying vector; called at most once,
            by the first read of :attr:`vectors`.
    """

    formula: Formula
    basic_events: Tuple[str, ...]
    cubes: Tuple[Dict[str, bool], ...]
    expand: Callable[[], Iterable[Dict[str, bool]]] = field(
        repr=False, compare=False
    )

    @cached_property
    def vectors(self) -> Tuple[Dict[str, bool], ...]:
        """Every total satisfying vector (cubes with don't-cares
        expanded).  Exponential in the don't-cares, so it is built on
        first read only: the cut-set views, ``len`` and ``bool`` need
        the cubes alone."""
        return tuple(self.expand())

    def __len__(self) -> int:
        # BDD 1-paths are disjoint, so each cube stands for exactly
        # 2**(its don't-cares) vectors.
        width = len(self.basic_events)
        return sum(1 << (width - len(cube)) for cube in self.cubes)

    def __iter__(self) -> Iterator[Dict[str, bool]]:
        return iter(self.vectors)

    def __bool__(self) -> bool:
        return bool(self.cubes)

    def failed_sets(self) -> List[FrozenSet[str]]:
        """Failed-event sets, one per *cube* (don't-cares excluded).

        For ``MCS``-shaped queries each cube's positive literals are exactly
        one minimal cut set, so this is the list FTA practitioners expect
        (e.g. the paper's "single mcs {IS, H1, H5}").
        """
        return cube_sets(self.cubes, True)

    def operational_sets(self) -> List[FrozenSet[str]]:
        """Operational-event sets, one per cube — the MPS view."""
        return cube_sets(self.cubes, False)

    def describe(self, view: str = "failed") -> str:
        """Human-readable rendering used by the CLI and the case study.

        Args:
            view: ``"failed"`` (cut-set view), ``"operational"`` (path-set
                view) or ``"vectors"``.
        """
        header = f"[[ {format_formula(self.formula)} ]]"
        if view == "vectors":
            rows = [
                "(" + ", ".join(
                    f"{name}={int(vec[name])}" for name in self.basic_events
                ) + ")"
                for vec in self.vectors
            ]
        elif view == "operational":
            rows = ["{" + ", ".join(sorted(s)) + "}" for s in self.operational_sets()]
        else:
            rows = ["{" + ", ".join(sorted(s)) + "}" for s in self.failed_sets()]
        if not rows:
            return f"{header}: empty"
        body = "\n".join(f"  {row}" for row in rows)
        return f"{header}: {len(rows)} result(s)\n{body}"


@dataclass(frozen=True)
class IndependenceResult:
    """Outcome of an ``IDP``/``SUP`` query, with the explanation the paper
    gives for Property 8 (the shared influencing events)."""

    independent: bool
    left_influencers: FrozenSet[str]
    right_influencers: FrozenSet[str]
    shared: FrozenSet[str]

    def __bool__(self) -> bool:
        return self.independent

    def describe(self) -> str:
        if self.independent:
            return "independent (no shared influencing basic events)"
        return "dependent via shared influencing basic events: " + ", ".join(
            sorted(self.shared)
        )
