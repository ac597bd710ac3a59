"""The repro benchmark (see README.md and run.py)."""
