"""Layered benchmark of the seifert package; see README.md."""
