"""Hooks the benchmark installs on the program's public names.

Two kinds of hook, both installed from outside by replacing a module or
class attribute and both removable:

* ``IterationProbe`` is the only hook of an untraced run.  It takes one
  timestamp at the per-iteration public call (``DownlinkEnv.step`` for the
  DDPG loop, ``random_search_step`` for the random-search loop) and keeps a
  reference to what the call returned, for the output checks that run after
  the cell.  Once per cell it also marks the cell boundary
  (``run_algorithm``) and keeps the agent handle (``DdpgAgent.create``) for
  the parameter check; neither sits inside the iteration loop.
* ``Tracer`` wraps every layer in ``LAYERS`` at each namespace the program
  calls it through, and records one span per call.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

# Layer name -> every (module, attribute) the program reaches it through.
# Modules import these names directly (``from .nets import mlp_forward``),
# so a layer is wrapped where it is called, not where it is defined.
# Methods are patched on their class.  A name a later version of the
# program no longer has is reported as an absent layer.
LAYERS = (
    ("nets.mlp_forward", (("uavris.agent", "mlp_forward"),)),
    ("nets.mlp_forward_cached", (("uavris.agent", "mlp_forward_cached"),)),
    ("nets.mlp_gradients", (("uavris.agent", "mlp_gradients"),)),
    ("nets.flatten_gradients", (("uavris.agent", "flatten_gradients"),)),
    ("nets.adam_step", (("uavris.nets", "Adam.step"),)),
    ("nets.soft_update", (("uavris.agent", "soft_update"),)),
    ("agent.select_action", (("uavris.agent", "DdpgAgent.select_action"),)),
    ("agent.train_step", (("uavris.agent", "DdpgAgent.train_step"),)),
    ("agent.buffer_push", (("uavris.agent", "ReplayBuffer.push"),)),
    ("agent.buffer_sample", (("uavris.agent", "ReplayBuffer.sample"),)),
    ("linalg.right_pinv", (("uavris.solvers", "right_pinv"),)),
    ("solvers.ic_beamforming", (("uavris.env", "ic_beamforming"),)),
    ("solvers.oresou_phases", (("uavris.env", "oresou_phases"),)),
    (
        "solvers.normalize_beamformer",
        (("uavris.env", "normalize_beamformer"), ("uavris.solvers", "normalize_beamformer")),
    ),
    ("solvers.decode_association", (("uavris.env", "decode_association"),)),
    (
        "solvers.quantize_one_bit",
        (("uavris.env", "quantize_one_bit"), ("uavris.solvers", "quantize_one_bit")),
    ),
    ("solvers.random_search_step", (("uavris.training", "random_search_step"),)),
    (
        "channel.cascaded_channel",
        (("uavris.env", "cascaded_channel"), ("uavris.solvers", "cascaded_channel")),
    ),
    (
        "channel.assemble_channels",
        (("uavris.env", "assemble_channels"), ("uavris.training", "assemble_channels")),
    ),
    ("metrics.sinr_report", (("uavris.env", "sinr_report"), ("uavris.solvers", "sinr_report"))),
    ("env.step", (("uavris.env", "DownlinkEnv.step"),)),
    ("env.reset", (("uavris.env", "DownlinkEnv.reset"),)),
    ("training.run_cell", (("uavris.experiments", "run_algorithm"),)),
    ("experiments.run_pmax_sweep", (("uavris.experiments", "run_pmax_sweep"),)),
)

NETS_PREFIX = "nets."


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def wrap(self, module: str, path: str, make_wrapper) -> bool:
        """Replace ``module.path`` with ``make_wrapper(original)``; returns
        False, changing nothing, when the name does not exist."""
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            original = getattr(owner, attr)
        except (ImportError, AttributeError, KeyError, TypeError):
            return False
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, raw))
        return True

    def undo(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


class Cell:
    """Everything the probe saw during one ``run_algorithm`` call."""

    def __init__(self, algorithm: str, config, one_bit: bool):
        self.algorithm = algorithm
        self.config = config
        self.one_bit = one_bit
        self.stamps: list[int] = []  # perf_counter_ns at each iteration call
        self.steps: list[tuple] = []  # (channels, outcome) per env step
        self.draws: list[tuple] = []  # (channels, (phases, f_hat, report)) per draw
        self.agent = None
        self.start_ns = 0
        self.end_ns = 0
        self.trace = None
        self.error: BaseException | None = None
        self._released_iterations: int | None = None

    @property
    def n_iterations(self) -> int:
        if self._released_iterations is not None:
            return self._released_iterations
        return len(self.stamps)

    def release(self) -> None:
        """Drop what the checks needed, keeping the iteration count."""
        self._released_iterations = len(self.stamps)
        self.stamps = self.steps = self.draws = []
        self.agent = self.trace = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9

    @property
    def warmup_steps(self) -> int:
        """Iterations before the first network update; 0 when none trains."""
        hyper = getattr(self.agent, "hyper", None)
        warmup = getattr(hyper, "warmup_steps", None)
        if warmup is None or warmup >= self.n_iterations:
            return 0
        return warmup

    def latencies_ms(self) -> np.ndarray:
        """Per-iteration latency: the gap between consecutive iteration calls,
        from the first trained iteration on when the cell trains.  The last
        iteration has no successor and is left out."""
        stamps = np.asarray(self.stamps[self.warmup_steps :], dtype=np.int64)
        return np.diff(stamps) * 1e-6


class IterationProbe:
    """The untraced run's hooks; see the module docstring."""

    def __init__(self):
        self.cells: list[Cell] = []
        self._current: Cell | None = None
        self._patches = Patches()

    def install(self) -> None:
        clock = time.perf_counter_ns
        probe = self

        def wrap_run_algorithm(original):
            def run_algorithm(algorithm, config, *args, **kwargs):
                cell = Cell(algorithm, config, bool(kwargs.get("one_bit", False)))
                probe.cells.append(cell)
                probe._current = cell
                cell.start_ns = clock()
                try:
                    cell.trace = original(algorithm, config, *args, **kwargs)
                except Exception as exc:  # reported as a failed cell
                    cell.error = exc
                    raise
                finally:
                    cell.end_ns = clock()
                    probe._current = None
                return cell.trace

            return run_algorithm

        def wrap_step(original):
            def step(env, action):
                cell = probe._current
                cell.stamps.append(clock())
                out = original(env, action)
                cell.steps.append((env.channels, out[1]))
                return out

            return step

        def wrap_draw(original):
            def random_search_step(rng, channels, *args, **kwargs):
                cell = probe._current
                cell.stamps.append(clock())
                out = original(rng, channels, *args, **kwargs)
                cell.draws.append((channels, out))
                return out

            return random_search_step

        def wrap_create(original):
            def create(*args, **kwargs):
                agent = original(*args, **kwargs)
                if probe._current is not None:
                    probe._current.agent = agent
                return agent

            return create

        if not self._patches.wrap("uavris.experiments", "run_algorithm", wrap_run_algorithm):
            raise RuntimeError("uavris.experiments.run_algorithm is missing")
        if not self._patches.wrap("uavris.env", "DownlinkEnv.step", wrap_step):
            raise RuntimeError("uavris.env.DownlinkEnv.step is missing")
        self._patches.wrap("uavris.training", "random_search_step", wrap_draw)
        self._patches.wrap("uavris.agent", "DdpgAgent.create", wrap_create)

    def uninstall(self) -> None:
        self._patches.undo()


class Tracer:
    """Records a span (layer, start, end, parent span, cell, error) per call
    of every layer in ``LAYERS``.  Spans stay in memory until ``write``.
    The cell is the probe's latest; install the probe first, so that the
    tracer wraps the probe's hooks and every span of a cell ends after
    the probe opened it."""

    def __init__(self, probe: IterationProbe):
        self.probe = probe
        self.names: list[str] = [name for name, _ in LAYERS]
        self.absent: list[str] = []
        # columns: layer index, start ns, end ns, parent span, cell, raised
        self.spans: list[tuple[int, int, int, int, int, str]] = []
        self._stack: list[int] = []
        self._patches = Patches()

    def install(self) -> None:
        self.absent = []
        for index, (name, sites) in enumerate(LAYERS):
            found = [self._patches.wrap(m, p, self._wrapper(index)) for m, p in sites]
            if not any(found):
                self.absent.append(name)

    def uninstall(self) -> None:
        self._patches.undo()

    def _wrapper(self, index: int):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        cells = self.probe.cells

        def make(original):
            def traced(*args, **kwargs):
                parent = stack[-1] if stack else -1
                slot = len(spans)
                spans.append(None)
                stack.append(slot)
                raised = ""
                start = clock()
                try:
                    return original(*args, **kwargs)
                except BaseException as exc:
                    raised = type(exc).__name__
                    raise
                finally:
                    end = clock()
                    stack.pop()
                    spans[slot] = (index, start, end, parent, len(cells) - 1, raised)

            return traced

        return make

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per span: layer index, cell, duration and self time (ns).  Self
        time is the duration minus the time of the span's direct children."""
        if not self.spans:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty, empty
        cols = np.array([s[:5] for s in self.spans], dtype=np.int64)
        layer, start, end, parent, cell = cols.T
        duration = end - start
        child = np.zeros(len(duration), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return layer, cell, duration, duration - child

    def raised_count(self, layer: str, error: str) -> int:
        index = self.names.index(layer)
        return sum(1 for s in self.spans if s[0] == index and s[5] == error)

    def write(self, path) -> None:
        """Spans as CSV: layer, start_ns, end_ns, parent, cell, raised."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer,start_ns,end_ns,parent,cell,raised\n")
            for index, start, end, parent, cell, raised in self.spans:
                fh.write(f"{self.names[index]},{start},{end},{parent},{cell},{raised}\n")
