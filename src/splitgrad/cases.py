"""Benchmark case grid: four recorded result tables covering the two
coefficient families crossed with the two test objectives.

Each row fixes a (mu, a, b) triple for its schedule and carries previously
recorded reference results (ref_* columns). The recording omitted the
stepsize, so the reference numbers are used for pattern checks, not for
digit-level regression; a ref_error of 0.0 marks a terminal error below the
recording's print precision. Group labels sort the rows into the heuristic
families: A/D rows (small mu) are expected to stop quickly with a small or
negative readiness threshold N', B/E rows (mu >= 1) push N' up, with the
B family far above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class TableCase:
    table: int          # recording batch 1..4
    group: str          # heuristic family: A1/A2/B1/B2 (e24), D1/D2/E1/E2 (e26)
    objective: str      # "f1" | "f2"
    schedule: str       # "e24" | "e26"
    mu: float
    a: float
    b: float
    epsilon: float
    ref_error: float
    ref_n2: float
    ref_nprime: float
    ref_n: float

    @property
    def label(self) -> str:
        return f"t{self.table}-{self.group}-mu{self.mu:g}-a{self.a:g}-b{self.b:g}"

    def schedule_params(self) -> dict:
        return {"mu": self.mu, "a": self.a, "b": self.b}


_EPS_REF = 1e-10

_ROWS = (
    # table 1: e24 on f1
    (1, "A1", "f1", "e24", 1e-02, 4.0, 10.0, 1.22e-11, 3.91, -3.56, 3.91),
    (1, "A1", "f1", "e24", 1e-02, 1e-02, 10.0, 3.31e-11, 3.99, 0.43, 3.99),
    (1, "A2", "f1", "e24", 1e-02, 10.0, 4.0, 2.82e-11, 3.80, -1.00, 3.80),
    (1, "A2", "f1", "e24", 1e-05, 3.0, 1e-01, 1.50e-12, 3.92, 2.17, 3.92),
    (1, "B1", "f1", "e24", 1.0, 100.0, 102.0, 0.0, 3.74, 11.63, 11.63),
    (1, "B1", "f1", "e24", 2.0, 5e-01, 6.0, 0.0, 3.48, 422.45, 422.45),
    (1, "B2", "f1", "e24", 1.5, 2.0, 1.75, 0.0, 3.58, 240.29, 240.29),
    (1, "B2", "f1", "e24", 1.5, 225.0, 1e-02, 0.0, 8.52, 17.29, 17.29),
    # table 2: e24 on f2
    (2, "A1", "f2", "e24", 1e-02, 4.0, 10.0, 7.03e-11, 3.38, -3.91, 3.38),
    (2, "A1", "f2", "e24", 1e-02, 1e-02, 10.0, 1.92e-12, 3.38, 0.08, 3.38),
    (2, "A2", "f2", "e24", 1e-02, 10.0, 4.0, 3.47e-11, 3.37, -1.00, 3.37),
    (2, "A2", "f2", "e24", 1e-05, 3.0, 1e-01, 7.53e-11, 3.38, 2.17, 3.38),
    (2, "B1", "f2", "e24", 1.0, 100.0, 102.0, 0.0, 3.50, 4.04, 4.04),
    (2, "B1", "f2", "e24", 2.0, 5e-01, 6.0, 0.0, 3.43, 407.54, 407.54),
    (2, "B2", "f2", "e24", 1.5, 2.0, 1.75, 0.0, 3.50, 229.04, 229.04),
    (2, "B2", "f2", "e24", 1.5, 225.0, 1e-02, 0.0, 4.46, 15.50, 15.50),
    # table 3: e26 on f1
    (3, "D1", "f1", "e26", 0.0, 0.25, 3.5, 3.37e-11, 3.18, 0.83, 3.18),
    (3, "D1", "f1", "e26", 1e-03, 1.25, 5.5, 9.79e-11, 3.18, -0.17, 3.18),
    (3, "D2", "f1", "e26", 1e-03, 5.5, 1.25, 3.28e-11, 3.19, -0.17, 3.19),
    (3, "D2", "f1", "e26", 1e-03, 3.5, 0.25, 1.11e-11, 3.19, 0.83, 3.19),
    (3, "E1", "f1", "e26", 2.0, 21.0, 24.0, 0.0, 5.82, -0.97, 5.82),
    (3, "E2", "f1", "e26", 2.0, 24.0, 21.0, 0.0, 6.09, -0.97, 6.09),
    # table 4: e26 on f2
    (4, "D1", "f2", "e26", 0.0, 0.25, 3.5, 4.21e-12, 3.23, 0.76, 3.23),
    (4, "D1", "f2", "e26", 1e-03, 1.25, 5.5, 9.18e-11, 3.23, -0.24, 3.23),
    (4, "D2", "f2", "e26", 1e-03, 5.5, 1.25, 5.68e-11, 3.23, -0.24, 3.23),
    (4, "D2", "f2", "e26", 1e-03, 3.5, 0.25, 7.18e-11, 3.23, 0.76, 3.23),
    (4, "E1", "f2", "e26", 2.0, 21.0, 24.0, 0.0, 4.14, -0.97, 4.14),
    (4, "E2", "f2", "e26", 2.0, 24.0, 21.0, 0.0, 4.24, -0.97, 4.24),
)


def all_cases() -> Tuple[TableCase, ...]:
    return tuple(TableCase(table=t, group=g, objective=o, schedule=sch, mu=mu,
                           a=a, b=b, epsilon=_EPS_REF, ref_error=err, ref_n2=n2,
                           ref_nprime=npr, ref_n=nn)
                 for (t, g, o, sch, mu, a, b, err, n2, npr, nn) in _ROWS)
