"""Multi-RIS assisted massive-MIMO downlink simulator and optimization
toolkit.  Each public name lives in the module that defines it and lists
it in ``__all__``: scene, channel, metrics, linalg, solvers, nets, agent,
env, training and experiments; cli is the command line."""

__version__ = "0.1.0"
