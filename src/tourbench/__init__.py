"""TSP metaheuristics with reversal-aware operators and a benchmark harness."""

__version__ = "0.1.0"
