"""Hardware specifications of the evaluated testbed (Tables 1-2)."""
