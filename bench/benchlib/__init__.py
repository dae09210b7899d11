"""Workload generator, pass runner, tracer and oracles of the summand-lab benchmark."""
