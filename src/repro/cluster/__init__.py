"""Multi-process scale-out: a router over shared-nothing workers.

The service layer (:mod:`repro.service`) is one process: one
:class:`~repro.service.server.QueryService`, one utility cache, one
GIL.  This package fans the same service out over N **worker
processes** — each a full service with its own caches — behind a
**router** that admits requests by consistent-hashing the query text,
so a given query always lands on the shard whose utility cache it
warmed last time.

* :mod:`repro.cluster.hashing` — the consistent-hash ring (stable
  across processes and runs).
* :mod:`repro.cluster.spec` — picklable worker/cluster configuration.
* :mod:`repro.cluster.worker` — the spawned worker entry point.
* :mod:`repro.cluster.supervisor` — process lifecycle: spawn, health
  probes behind per-shard circuit breakers, crash restarts, the
  cross-shard metric merge.
* :mod:`repro.cluster.router` — the front TCP server: hash admission,
  bounded per-shard backlogs, shard-tagged relays, failover.
* :mod:`repro.cluster.runtime` — ties the above into one
  :class:`~repro.cluster.runtime.Cluster`.

Import from the modules; the package re-exports nothing.  See
``docs/cluster.md``.
"""
