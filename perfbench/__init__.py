"""The repository benchmark: three workloads over the ``repro`` pipeline.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in its own process and prints one
JSON object as the last line of its output.  See ``perfbench/README.md``
for the workloads, the metrics and how each is measured.
"""
