"""Multi-RIS assisted massive-MIMO downlink simulator and optimization
toolkit: Rician channel synthesis, max-min-SINR beamforming via
interference cancellation and per-element phase compensation, a
from-scratch DDPG engine and the experiment harness around them."""

from .scene import SystemConfig, LinkGeometry, GeometrySet, link_geometry, build_geometry, default_config
from .channel import ChannelSet, PhaseConfig, assemble_channels, cascaded_channel
from .metrics import SinrReport, sinr_report, dbm_to_watts, db_to_linear, linear_to_db
from .solvers import (
    BeamformingMatrix,
    AssociationMatrix,
    ic_beamforming,
    oresou_phases,
    decode_association,
    normalize_beamformer,
    quantize_one_bit,
    random_search_step,
    RankDeficientError,
)
from .agent import DdpgAgent, DdpgHyperparams, ReplayBuffer
from .env import DownlinkEnv, Variant, Objective
from .training import TrainingTrace, run_training, run_random_search, RANDOM_SEARCH
from .experiments import ExperimentSpec, load_spec, save_spec

__version__ = "0.1.0"
