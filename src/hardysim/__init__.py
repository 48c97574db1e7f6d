"""Exact simulator for two-photon interferometers and Hardy-type trajectory arguments.

The pipeline: :mod:`~hardysim.amplitude` provides exact complex numbers over
rationals extended by square roots of 2 and 3; :mod:`~hardysim.state` holds
sparse two-photon states; :mod:`~hardysim.optics` builds exact isometric
stage transforms; :mod:`~hardysim.circuitdsl` parses the circuit file
format; :mod:`~hardysim.engine` evolves, post-selects at the one boundary it
computes, and tabulates exact outcome probabilities; :mod:`~hardysim.paradox`
enumerates full-wave trajectories and judges them against quantum
predictions; :mod:`~hardysim.montecarlo` draws reproducible samples and
checks their fit.
"""
