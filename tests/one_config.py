"""The runs of one config, requested as the library requests every run: a
sweep holding only that config, read back with `Sweep.result`."""
from localsgd.simulator import Sweep


def run_alone(p, cfg, ref, seeds, *, minibatch=False, capture_xhat=False):
    """cfg's AggregateTrace over `seeds`, a list or one seed, from a
    one-config sweep."""
    seeds = [seeds] if isinstance(seeds, int) else seeds
    return Sweep(p, [cfg], ref, seeds, minibatch=minibatch,
                 capture_xhat=capture_xhat).result(cfg)
