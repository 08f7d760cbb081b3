"""End-to-end benchmark of the UPAQ detector: ``frame``, ``trunk`` and
``serve`` workloads timed against a host-speed reference probe.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  See
``perfbench/README.md`` for the workloads, metrics and noise report.
"""
