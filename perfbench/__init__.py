"""Host-time benchmark of the PageSeer reproduction (see run.py)."""
