"""ipuq: elicit, verify and score imprecise-probability uncertainty reports
from chat-completion endpoints, with analytic synthetic tasks for validation.
"""
