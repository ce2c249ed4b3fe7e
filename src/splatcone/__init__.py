"""splatcone: collision-cone safety filtering over 3D Gaussian splat scenes.

Each splat's confidence ellipsoid yields a closed-form forward collision
cone; its complement is a first-order control barrier whose constraint is
affine in acceleration. A per-step projection solve minimally modifies a
nominal controller, and a double-integrator simulator with a post-hoc
collision audit exercises the whole loop.

The package root exports nothing: import from its modules, e.g.
`from splatcone.simulator import SimConfig`.
"""
