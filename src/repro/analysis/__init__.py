"""TCO analysis, table/figure rendering, CSV export, report generation."""
