"""SQL front end.

A subset of SQL with the paper's Rdb/VMS extensions: ``LIMIT TO n ROWS``
and ``OPTIMIZE FOR FAST FIRST | TOTAL TIME``. Queries are parsed to a
logical plan tree whose node types (`retrieve`, `sort`, `distinct`,
`aggregate`, `limit`, `exists`) feed the Section 4 goal-inference rules,
then executed over the dynamic retrieval engine.
"""

from repro.sql.parser import parse
from repro.sql.plan import PlanNode

__all__ = ["parse", "PlanNode"]
