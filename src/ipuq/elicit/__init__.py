"""Elicitation protocols: prompt rendering, transport, parsing, retry loops."""
