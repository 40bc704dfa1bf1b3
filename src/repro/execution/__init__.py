"""Plan execution and the end-to-end mediator.

The mediator implements the strategy of the paper's Section 2: plans
stream out of an ordering algorithm in decreasing utility; each is
tested for soundness; sound plans are executed against the source
instances and contribute their new tuples to the answer, unsound plans
are discarded (and do not count as executed for conditional-utility
purposes).
"""

from repro.execution.engine import execute_plan
from repro.execution.mediator import AnswerBatch, Mediator

__all__ = ["AnswerBatch", "Mediator", "execute_plan"]
