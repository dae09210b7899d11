"""Grids shared by the structural tests."""


def standard_t_grid() -> tuple[float, ...]:
    """The grid -20..20 in steps of 0.1 used by the structural test suite."""
    return tuple(i / 10.0 for i in range(-200, 201))
