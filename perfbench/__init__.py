"""Host-cost benchmark for the UNR simulator (see README.md).

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the repository root and prints
its result as the last line of standard output.
"""
