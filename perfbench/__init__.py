"""The repository's benchmark: three workloads driven through the
simulator's public functions, an output check, and a traced run that
splits host time across the simulator's layers.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``python3 perfbench/selftest.py``
checks the benchmark itself at smoke sizes.
"""
