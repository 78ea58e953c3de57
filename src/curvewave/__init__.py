"""Spectral wave-packet dynamics in a 2D circular step potential."""

from .potential import PotentialSpec, effective_potential
from .spectrum import (EigenMode, ModeTable, build_mode_table, characteristic,
                       delta_j, find_bound_modes, find_resonances, mode_norm)
from .packet import (Expansion, FieldEvaluator, FieldFrame, GridSpec,
                     PacketSpec, evolve, expand, gaussian_free, reconstruct)
from .observables import (HusimiScan, TrajectorySample, average_position,
                          delta_predicted, emission_husimi, emission_origin, gh_fit,
                          interior_fraction, transmission_direction,
                          tunneling_direction)
from .barrier1d import (KWindow, ModifiedEffBarrier, RectBarrier, gh_theory,
                        rect_transmission, reflection_modified, step_phase,
                        tunneling_packet_1d, wigner_delay)

__version__ = "0.1.0"
