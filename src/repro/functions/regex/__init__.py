"""Multi-pattern regular-expression matching (the REM function, §2.2 A1)."""
