"""Central tolerance table.

Every numeric gate used by the package (law checks, root polishing,
classification thresholds) reads from here so there is a single knob per
contract.  Values are absolute unless the name says otherwise.
"""

# algebra laws
NORM_MULTIPLICATIVITY_REL = 1e-12
ALTERNATIVITY_ABS = 1e-12
POWER_ASSOCIATIVITY_ABS = 1e-12
ASSOCIATIVITY_ABS = 1e-12
AUTOMORPHISM_MULT_ABS = 1e-8
AUTOMORPHISM_ORTHO_ABS = 1e-10

# root finding and polishing
ABERTH_RESIDUAL = 1e-13
ABERTH_MAX_SWEEPS = 500
NEWTON_RESIDUAL = 1e-14
NEWTON_MAX_ITER = 50
NEWTON_STALL = 1e-12               # a step that cannot lower a residual below this ends Newton
STRATUM_POTENTIAL = 1e-18
CONJUGATE_PAIR_REL = 1e-8

# division and localization
SPHERICAL_REMAINDER_REL = 1e-8
LOCALIZE_ROOT_POTENTIAL = 1e-8
SUBALGEBRA_RANK_ABS = 1e-10

# root-set geometry and classification
ORBIT_RESIDUAL = 1e-12
ORBIT_ROOT_POTENTIAL = 1e-16       # V at the point whose orbit is checked
RANK_REL_CUTOFF = 1e-8
ATTRACTOR_DEDUP = 1e-6
CD_ROTATION_MATCH = 1e-8

# breathing dynamics
CROSSING_DELTA_ABS = 1e-10
TANGENTIAL_VTOL_REL = 1e-6

# gradient flow
LYAPUNOV_SLACK_REL = 1e-12
FLOW_REL = 1e-9                    # error control of the W-method collapse integrator
FLOW_ABS = 1e-12
LABEL_REL = 1e-3                   # error control of the lockstep W-method: labels and search
LABEL_ABS = 1e-6
