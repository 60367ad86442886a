"""Hierarchical route optimization for multi-arm spray painting on a moving
production line: a permutation GA assigns and orders paint segments per arm,
and a greedy discrete-time planner expands each assignment into synchronized
head trajectories for both sides of the vehicle."""
