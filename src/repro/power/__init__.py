"""Power models and energy-efficiency accounting."""
