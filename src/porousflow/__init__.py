"""Flow past many small disks: method of reflections, a collocation oracle,
the homogenized effective-medium solver, and 2D vorticity transport."""
