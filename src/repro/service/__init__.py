"""The concurrent anytime query service.

This package turns the library into a servable system (the ROADMAP's
production direction):

* :mod:`repro.service.session` — :class:`PipelinedSession`: ordering,
  soundness, and execution inline over a backend that never blocks,
  overlapped across threads over one that does, emitting a batch
  stream identical to the sequential mediator's either way;
* :mod:`repro.service.policy` — per-request deadlines, plan/answer
  budgets, cooperative cancellation, and retry backoff;
* :mod:`repro.service.backends` — the execution backend interface;
* :mod:`repro.service.server` — :class:`QueryService`: many
  concurrent requests over one shared catalog, statistics, and
  utility-measure cache, with admission control and backpressure;
* :mod:`repro.service.protocol` / :mod:`repro.service.frontend` — the
  JSON-lines TCP wire (``repro serve``);
* :mod:`repro.service.loadgen` — the load generator
  (``repro bench-serve``).

See ``docs/service.md`` for the architecture tour.
"""
