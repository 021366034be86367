"""Outside-in benchmark of the RichNote reproduction (see run.py)."""
