"""Wire-to-last-answer benchmark of the mediator service.

One benchmark, five workloads: a server subprocess running the real
``QueryService`` behind ``frontend.start_server`` is driven over the
JSON-lines protocol by one closed-loop client process; every answer is
checked against an oracle; a separate in-process traced run attributes
the time to layers from outside, through public entry points only.

``README.md`` in this directory has the workload rationale, the metric
glossary, and how to run, read and compare.
"""
