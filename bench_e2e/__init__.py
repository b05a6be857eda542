"""The repository's end-to-end benchmark (see ``bench_e2e/README.md``).

Run from the repository root: ``python -m bench_e2e`` runs the four
workloads named in ``BENCHMARK.json``; ``--workload NAME --seed N
--seconds S --trace 0|1`` runs one of them and prints one JSON object as
the last line of standard output.  Importing this package imports nothing
else: ``__main__`` pins the BLAS thread count before numpy loads.
"""
