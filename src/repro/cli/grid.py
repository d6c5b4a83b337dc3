"""The experiment-grid flags, declared once for every command that
takes them.

``experiment`` and ``jobs submit`` express a grid with the same flags
(:func:`add_spec_arguments`), read back by :func:`spec_from_args`, so
a spec submitted to the platform is expressed exactly like a direct
run; ``chaos`` parses the same flags to run ``experiment``'s default
grid.  :func:`topology_from_args` builds the AS graph the
``--topology`` / ``--ases`` / ``--topology-seed`` flags name.  Nothing
here imports a subsystem at module level: the helpers import what they
build in their bodies.
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

__all__ = ["add_spec_arguments", "spec_from_args", "topology_from_args"]


def add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """The experiment-grid flags :func:`spec_from_args` reads."""
    parser.add_argument(
        "--spec", help="JSON ExperimentSpec file (overrides grid flags)"
    )
    parser.add_argument(
        "--kinds", default="forged-origin-subprefix,forged-origin",
        help="comma-separated attack kinds (default: the §4/§5 pair)",
    )
    parser.add_argument(
        "--policies", default="minimal,maxlength-loose",
        help="comma-separated ROA policies: minimal, maxlength-loose, "
             "maxlength-<N>, none, or <base>@<coverage>",
    )
    parser.add_argument("--attackers", type=int, default=1,
                        help="simultaneous attackers per trial")
    parser.add_argument("--prepend", type=int, default=0,
                        help="AS-path prepend count on the attack")
    parser.add_argument(
        "--fractions", default="all",
        help="comma-separated validating fractions in [0,1]; "
             "'all' = universal validation (default)",
    )
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--victim-prefix", default="168.122.0.0/16")
    parser.add_argument("--attack-prefix",
                        help="default: victim prefix + 8 bits")
    parser.add_argument("--sampler", choices=("stubs", "any"),
                        default="stubs")
    parser.add_argument(
        "--executor",
        choices=("serial", "sharded", "auto"),
        help="execution strategy: serial, sharded (parallel, "
             "crash-retried shard workers; see --workers/--shards/"
             "--shard-hosts), or auto (serial on one core, sharded "
             "otherwise); default: the spec's executor "
             "(serial unless the spec file says otherwise)",
    )
    # Read and ignored: there is one propagation engine, and command
    # lines written when a second was selectable must still parse.
    parser.add_argument(
        "--engine", choices=("object", "array"), help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--stopping", choices=("none", "ci"),
        help="adaptive early stopping: stop a fraction once every "
             "cell's bootstrap CI is narrower than --stop-ci-width "
             "(default none; overrides the spec file's setting)",
    )
    parser.add_argument("--stop-ci-width", type=float,
                        help="CI-width threshold (default 0.05; "
                             "implies --stopping ci)")
    parser.add_argument("--stop-min-trials", type=int,
                        help="trials before the first stopping check "
                             "(default 16; implies --stopping ci)")
    parser.add_argument("--stop-check-every", type=int,
                        help="trials between stopping checks "
                             "(default 8; implies --stopping ci)")


def spec_from_args(args: argparse.Namespace):
    """The :class:`~repro.exper.spec.ExperimentSpec` the grid flags
    (or the ``--spec`` file they override) describe."""
    from ..exper.scenarios import (
        AnyAsPairSampler,
        AttackConfig,
        StubPairSampler,
        policy_from_name,
    )
    from ..exper.spec import ExperimentSpec
    from ..netbase.prefix import Prefix

    # A threshold/cadence flag without --stopping means the user wants
    # stopping: imply "ci" rather than silently ignoring the flag.
    if args.stopping is None and any(
        getattr(args, name) is not None
        for name in ("stop_ci_width", "stop_min_trials",
                     "stop_check_every")
    ):
        args.stopping = "ci"

    if args.spec:
        spec = ExperimentSpec.from_json(
            Path(args.spec).read_text(encoding="utf-8")
        )
        overrides = {}
        for name in ("executor", "stopping", "stop_ci_width",
                     "stop_min_trials", "stop_check_every"):
            value = getattr(args, name)
            if value is not None and value != getattr(spec, name):
                overrides[name] = value
        if overrides:
            import dataclasses

            spec = dataclasses.replace(spec, **overrides)
        return spec
    attacks = [
        AttackConfig(kind.strip(), attackers=args.attackers,
                     prepend=args.prepend)
        for kind in args.kinds.split(",") if kind.strip()
    ]
    policies = [
        policy_from_name(name.strip())
        for name in args.policies.split(",") if name.strip()
    ]
    if args.fractions == "all":
        fractions: tuple = (None,)
    else:
        fractions = tuple(
            None if token.strip() == "all" else float(token)
            for token in args.fractions.split(",") if token.strip()
        )
    sampler = (
        AnyAsPairSampler() if args.sampler == "any" else StubPairSampler()
    )
    stop_kwargs = {
        name: value
        for name in ("stopping", "stop_ci_width", "stop_min_trials",
                     "stop_check_every")
        if (value := getattr(args, name)) is not None
    }
    return ExperimentSpec.grid(
        attacks, policies,
        trials=args.trials,
        seed=args.seed,
        fractions=fractions,
        sampler=sampler,
        victim_prefix=Prefix.parse(args.victim_prefix),
        attack_prefix=(
            Prefix.parse(args.attack_prefix) if args.attack_prefix else None
        ),
        executor=args.executor or "serial",
        **stop_kwargs,
    )


def topology_from_args(args: argparse.Namespace):
    """``--topology FILE`` where the command has that flag and it is
    given, else the synthetic ``--ases``/``--topology-seed`` graph."""
    if getattr(args, "topology", None):
        from ..data.caida import read_caida

        return read_caida(args.topology)
    from ..data.asgraph import TopologyProfile, generate_topology

    return generate_topology(
        TopologyProfile(ases=args.ases), random.Random(args.topology_seed)
    )
