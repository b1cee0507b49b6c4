def exec_gauge(system, name):
    """The value of ``system``'s ``exec_<name>`` gauge."""
    return system.metrics.snapshot()[f"exec_{name}"][0]["value"]
