"""Host-cost benchmark of the simulator (see ``perfbench/README.md``).

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root.  The package drives the program
only through its public entry points (``repro.api`` and the app drivers);
nothing under ``src/`` knows it exists.
"""
