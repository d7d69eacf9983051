"""The benchmark's workloads: fixed lists of (problem, method, seed) solves.

Every cell runs at ``tol = 1e-6`` with the default iteration cap from the
problem's conventional start point (``0.5 * ones`` for Brown, zero for the
GLM and linear systems).  Each cell is solved once per solve seed; the solve
seeds of a run are ``base * k, ..., base * k + k - 1`` for the workload's
``k`` and the run's ``--seed`` as ``base``, so runs with different base seeds
share no solve.  Why each workload exists is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

TOL = 1e-6


@dataclass(frozen=True)
class Cell:
    selector: str
    method: str

    @property
    def name(self) -> str:
        return f"{self.selector} {self.method}"


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    seeds_per_cell: int

    @property
    def selectors(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(cell.selector for cell in self.cells))

    def solve_seeds(self, base_seed: int) -> range:
        k = self.seeds_per_cell
        return range(base_seed * k, base_seed * k + k)


def _cells(selector: str, methods: str) -> tuple[Cell, ...]:
    return tuple(Cell(selector, method) for method in methods.split(","))


WORKLOADS = {
    w.name: w
    for w in (
        # single-row projections: selection, row norms, the draw and the loop
        Workload(
            "brown-single",
            _cells("brown:50", "nrk,dr-cnk,rd-cnk") + _cells("brown:200", "dr-cnk,rd-cnk"),
            seeds_per_cell=3,
        ),
        # full Jacobian and a least-squares block every iteration; the block
        # methods draw no random numbers, so one seed per cell is enough
        Workload(
            "glm-block",
            _cells("glm:synthetic:200,10,8", "db-cnk,rb-cnk,glm-hybrid-db,glm-hybrid-rb"),
            seeds_per_cell=1,
        ),
        # the same layers at a dense-residual balance, over 2000 rows
        Workload("linear-dense", _cells("linear:2000,200,3", "nrk,dr-cnk,db-cnk"), seeds_per_cell=3),
    )
}
