"""Reconstruction of per-appellation, per-county vineyard surfaces from open
aggregate statistics, and conversion into expected harvest values."""
