"""Resilience: source health, circuit breakers, chaos, degradation.

The paper's failure-aware measure ranks plans by ``prod_i (1 - f_i)``
over static catalog priors.  This package replaces those priors with
the failure rates a serving mediator observes, and keeps requests
answering, with honestly reported partial coverage, while sources
fail:

* :mod:`repro.resilience.health` — per-source EWMA failure rates fed
  by every execution, and the health epoch that versions them;
* :mod:`repro.resilience.breaker` — per-source circuit breakers,
  consulted before plans execute; a half-open breaker admits one
  probe;
* :mod:`repro.resilience.measure` — :class:`HealthAwareMeasure`,
  substituting observed failure rates for catalog priors so ordering
  adapts to live source health;
* :mod:`repro.resilience.chaos` — per-source fault profiles
  (transient errors, latency, outages, flapping) and the backend that
  injects them;
* :mod:`repro.resilience.manager` — the facade the mediator and
  sessions talk to.

Import from the modules: :mod:`~.chaos` builds on the service backend
interface, which the mediator's import of :mod:`~.manager` must not
pull in.

See ``docs/resilience.md`` for the full model.
"""
