"""Command-line interface: train/resume any method, list the registries, and
regenerate the paper's tables and figures.

Examples
--------
Train OpenIMA on the Citeseer profile, checkpoint the result::

    python -m repro.experiments.cli run --method openima --dataset citeseer \
        --epochs 10 --scale 0.5 --save runs/openima-citeseer

Resume that checkpoint for five more epochs::

    python -m repro.experiments.cli resume runs/openima-citeseer --epochs 15

Export all-node embeddings / predictions from a checkpoint (layer-wise
inference bounds peak memory on large graphs)::

    python -m repro.experiments.cli embed runs/openima-citeseer emb.npz \
        --set inference.mode=layerwise --set inference.chunk_size=8192
    python -m repro.experiments.cli predict runs/openima-citeseer \
        --predictions-npz pred.npz --output pred.json

Serve predictions from that checkpoint over HTTP (loads once, keeps the
embedding cache warm, coalesces the queries that queue during one model call
into the next; Ctrl-C / SIGTERM shuts down gracefully)::

    python -m repro.experiments.cli serve runs/openima-citeseer \
        --port 8741 --set inference.mode=layerwise

Replay a dataset as a prequential open-world stream — the base model trains
on a subgraph, the rest (including a withheld novel class) arrives as graph
deltas with incremental embedding refresh and silhouette-triggered cluster
birth::

    python -m repro.experiments.cli stream --dataset citeseer --steps 6 \
        --reveal-fraction 0.3 --birth-threshold 0.2

Discover what is available::

    python -m repro.experiments.cli list-methods
    python -m repro.experiments.cli list-datasets

Check the repo's hand-enforced invariants (seeded RNG flow, lock-guarded
attributes, frozen cached arrays, serializable configs, ...) — exits 1 when
any rule fires::

    python -m repro.experiments.cli lint src/ --format text

Regenerate Table III on a small budget and save the JSON results::

    python -m repro.experiments.cli table3 --scale 0.3 --epochs 8 \
        --output results/table3.json
"""

from __future__ import annotations

import argparse
import json
from typing import Callable, Dict, Optional, Sequence

from ..core.registry import METHODS, available_methods, get_method
from ..datasets.registry import available_datasets, get_profile
from .figures import build_figure1b, build_figure2
from .persistence import save_results
from .runner import ExperimentConfig
from .tables import (
    build_table2,
    build_table3,
    build_table4,
    build_table5,
    build_table6,
    build_table7,
)

#: Experiment name -> builder taking an ExperimentConfig (table2 ignores it).
EXPERIMENTS: Dict[str, Callable[..., dict]] = {
    "table2": lambda experiment: build_table2(),
    "table3": lambda experiment: build_table3(experiment=experiment),
    "table4": lambda experiment: build_table4(experiment=experiment),
    "table5": lambda experiment: build_table5(experiment=experiment),
    "table6": lambda experiment: build_table6(experiment=experiment),
    "table7": lambda experiment: build_table7(experiment=experiment),
    "fig1b": lambda experiment: build_figure1b(experiment=experiment),
    "fig2": lambda experiment: build_figure2(experiment=experiment),
}


# ----------------------------------------------------------------------
# Parser construction
# ----------------------------------------------------------------------
def _add_training_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by every training-style subcommand."""
    parser.add_argument("--scale", type=float, default=0.35,
                        help="fraction of each synthetic profile's nodes (default: 0.35)")
    parser.add_argument("--epochs", type=int, default=8,
                        help="training epochs for two-stage methods (default: 8)")
    parser.add_argument("--batch-size", type=int, default=384,
                        help="mini-batch size (default: 384)")
    parser.add_argument("--encoder", choices=("gcn", "gat"), default="gcn",
                        help="GNN encoder (default: gcn; the paper uses gat)")
    parser.add_argument("--eval-every", type=int, default=0,
                        help="record open-world accuracy every N epochs (0 disables)")
    parser.add_argument("--sampling-mode", choices=("full", "khop", "sampled"),
                        default="full",
                        help="mini-batch neighborhood sampling: full-graph "
                             "forward per batch (full), exact receptive-field "
                             "subgraph (khop), or fanout-capped expansion "
                             "(sampled); fine-tune with --set "
                             "sampling.fanouts=[10,10] etc. (default: full)")
    parser.add_argument("--output", type=str, default=None,
                        help="optional path for a JSON copy of the results")


def _add_experiment_subparser(subparsers, name: str, help_text: str) -> None:
    parser = subparsers.add_parser(name, help=help_text)
    _add_training_options(parser)
    parser.add_argument("--end-to-end-epochs", type=int, default=None,
                        help="training epochs for end-to-end methods (default: 3x --epochs)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0],
                        help="split seeds to average over (default: 0)")
    parser.add_argument("--n-jobs", type=int, default=1,
                        help="workers running one (method, dataset) pair's "
                             "seed cells at a time; 0 = all cores, 1 = serial "
                             "(default: 1); one seed runs serially; results "
                             "are bit-identical to serial at any setting")
    parser.set_defaults(handler=_handle_experiment)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description=(
            "Train/resume any registered method and regenerate the tables and "
            "figures of the OpenIMA paper."
        ),
    )
    subparsers = parser.add_subparsers(dest="experiment", required=True,
                                       metavar="command")

    # -- run -----------------------------------------------------------
    run = subparsers.add_parser(
        "run", help="train one method on one dataset and report accuracy")
    run.add_argument("--method", required=True,
                     help="registered method name (see list-methods)")
    run.add_argument("--dataset", required=True,
                     help="registered dataset name (see list-datasets)")
    _add_training_options(run)
    run.add_argument("--seed", type=int, default=0,
                     help="graph/split/training seed (default: 0)")
    run.add_argument("--labels-per-class", type=int, default=None,
                     help="labeled-node budget per seen class (default: profile value)")
    run.add_argument("--num-novel-classes", type=int, default=None,
                     help="override the number of novel classes (Table VI setting)")
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     dest="overrides",
                     help="config override (dotted keys, repeatable), e.g. "
                          "--set optimizer.learning_rate=0.01 --set eta=2.0 "
                          "--set trainer.clustering.strategy=minibatch")
    run.add_argument("--save", type=str, default=None, metavar="DIR",
                     help="write a resumable checkpoint directory after training")
    run.set_defaults(handler=_handle_run)

    # -- resume --------------------------------------------------------
    resume = subparsers.add_parser(
        "resume", help="continue training from a checkpoint directory")
    resume.add_argument("checkpoint", help="checkpoint directory written by run --save")
    resume.add_argument("--epochs", type=int, default=None,
                        help="new total epoch target (default: the config's max_epochs)")
    resume.add_argument("--save", type=str, default=None, metavar="DIR",
                        help="where to write the updated checkpoint "
                             "(default: overwrite the source checkpoint)")
    resume.add_argument("--output", type=str, default=None,
                        help="optional path for a JSON copy of the results")
    resume.set_defaults(handler=_handle_resume)

    # -- inference-only commands ---------------------------------------
    embed = subparsers.add_parser(
        "embed", help="write deterministic all-node embeddings from a "
                      "checkpoint to an .npz file")
    embed.add_argument("checkpoint", help="checkpoint directory written by run --save")
    embed.add_argument("npz", help="destination .npz file (array 'embeddings')")
    embed.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides",
                       help="inference override (repeatable), e.g. "
                            "--set inference.mode=layerwise "
                            "--set inference.chunk_size=8192")
    embed.add_argument("--output", type=str, default=None,
                       help="optional path for a JSON copy of the metadata")
    embed.set_defaults(handler=_handle_embed)

    predict = subparsers.add_parser(
        "predict", help="write per-node predictions and open-world accuracy "
                        "from a checkpoint")
    predict.add_argument("checkpoint", help="checkpoint directory written by run --save")
    predict.add_argument("--predictions-npz", type=str, default=None, metavar="FILE",
                         help="optional .npz copy of the per-node predictions")
    predict.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         dest="overrides",
                         help="inference/clustering override (repeatable), e.g. "
                              "--set inference.mode=layerwise "
                              "--set clustering.strategy=minibatch")
    predict.add_argument("--output", type=str, default=None,
                         help="optional path for the predictions + accuracy JSON")
    predict.set_defaults(handler=_handle_predict)

    # -- serving -------------------------------------------------------
    serve = subparsers.add_parser(
        "serve", help="serve single-node and micro-batched predictions from "
                      "a checkpoint over HTTP")
    serve.add_argument("checkpoint", help="checkpoint directory written by run --save")
    serve.add_argument("--host", type=str, default="127.0.0.1",
                       help="interface to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8741,
                       help="port to bind; 0 picks a free port (default: 8741)")
    serve.add_argument("--max-batch", type=int, default=1024,
                       help="maximum nodes per coalesced batch (default: 1024)")
    serve.add_argument("--no-warm", action="store_true",
                       help="skip the startup snapshot build (first query "
                            "pays for it instead)")
    serve.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides",
                       help="inference/clustering override (repeatable), e.g. "
                            "--set inference.mode=layerwise "
                            "--set clustering.strategy=minibatch")
    serve.add_argument("--output", type=str, default=None,
                       help="optional path for a JSON copy of the final "
                            "serving stats")
    serve.set_defaults(handler=_handle_serve)

    # -- streaming -----------------------------------------------------
    stream = subparsers.add_parser(
        "stream", help="replay a dataset as a prequential open-world stream "
                       "(dynamic graph deltas, incremental inference, "
                       "cluster birth)")
    stream.add_argument("--method", default="openima",
                        help="registered method name (default: openima)")
    stream.add_argument("--dataset", required=True,
                        help="registered dataset name (see list-datasets)")
    _add_training_options(stream)
    stream.add_argument("--seed", type=int, default=0,
                        help="graph/split/stream seed (default: 0)")
    stream.add_argument("--steps", type=int, default=6,
                        help="number of arrival batches (default: 6)")
    stream.add_argument("--base-fraction", type=float, default=0.6,
                        help="fraction of streamable nodes kept in the base "
                             "graph (default: 0.6)")
    stream.add_argument("--entry-step", type=int, default=None,
                        help="first step the withheld class may arrive "
                             "(default: steps // 3)")
    stream.add_argument("--reveal-fraction", type=float, default=0.3,
                        help="fraction of seen-class arrivals whose label is "
                             "revealed after scoring (default: 0.3)")
    stream.add_argument("--birth-threshold", type=float, default=0.2,
                        help="per-cluster silhouette below which a new "
                             "cluster is born; -1 disables (default: 0.2)")
    stream.add_argument("--max-clusters", type=int, default=None,
                        help="hard cap on cluster count growth (default: "
                             "classes + 2)")
    stream.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        dest="overrides",
                        help="config override (dotted keys, repeatable), e.g. "
                             "--set trainer.inference.partial_threshold=0.3")
    stream.set_defaults(handler=_handle_stream)

    # -- listings ------------------------------------------------------
    list_methods = subparsers.add_parser(
        "list-methods", help="list every registered method with its metadata")
    list_methods.add_argument("--output", type=str, default=None,
                              help="optional path for a JSON copy of the listing")
    list_methods.set_defaults(handler=_handle_list_methods)

    list_datasets = subparsers.add_parser(
        "list-datasets", help="list every registered dataset profile")
    list_datasets.add_argument("--output", type=str, default=None,
                               help="optional path for a JSON copy of the listing")
    list_datasets.set_defaults(handler=_handle_list_datasets)

    # -- static analysis ----------------------------------------------
    from ..analysis.cli import add_lint_options

    lint = subparsers.add_parser(
        "lint", help="check the repo's invariant rules (R1-R9) over python "
                     "sources; exits 1 on findings")
    add_lint_options(lint)
    lint.set_defaults(handler=_handle_lint)

    # -- tables / figures ---------------------------------------------
    for name in sorted(EXPERIMENTS):
        _add_experiment_subparser(subparsers, name,
                                  f"regenerate {name} of the paper")
    return parser


def experiment_config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Translate parsed table/figure CLI arguments into an :class:`ExperimentConfig`."""
    return ExperimentConfig(
        scale=args.scale,
        max_epochs=args.epochs,
        batch_size=args.batch_size,
        encoder_kind=args.encoder,
        seeds=tuple(args.seeds),
        end_to_end_epochs=args.end_to_end_epochs,
        eval_every=args.eval_every,
        sampling_mode=args.sampling_mode,
        n_jobs=args.n_jobs,
    )


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------
def _coerce_override_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def parse_set_overrides(pairs: Sequence[str]) -> dict:
    """Parse repeated ``--set key=value`` pairs into a nested dict.

    Dotted keys nest (``optimizer.learning_rate=0.01`` becomes
    ``{"optimizer": {"learning_rate": 0.01}}``); values are parsed as JSON
    when possible, otherwise kept as strings.
    """
    overrides: dict = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
        target = overrides
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ValueError(f"--set key {key!r} conflicts with an earlier override")
        target[parts[-1]] = _coerce_override_value(raw)
    return overrides


def _split_config_overrides(config_cls, overrides: dict) -> tuple:
    """Split ``--set`` overrides into config fields vs extra method kwargs."""
    import dataclasses

    field_names = {f.name for f in dataclasses.fields(config_cls)}
    config_part = {k: v for k, v in overrides.items() if k in field_names}
    extra = {k: v for k, v in overrides.items() if k not in field_names}
    return config_part, extra


def _deep_merge(base: dict, updates: dict) -> dict:
    merged = dict(base)
    for key, value in updates.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _method_config(spec, args: argparse.Namespace, clustering=None) -> tuple:
    """``(config, method_params)`` of ``run``/``stream``: the training flags
    plus the ``--set`` overrides, split into config fields and the extra
    keyword arguments of methods without a config class of their own."""
    from ..core.config import OpenIMAConfig, SamplingConfig, fast_config

    trainer_config = fast_config(
        max_epochs=args.epochs, seed=args.seed,
        encoder_kind=args.encoder, batch_size=args.batch_size,
        eval_every=args.eval_every,
        sampling=SamplingConfig(mode=args.sampling_mode),
        clustering=clustering,
    )
    overrides = parse_set_overrides(args.overrides)
    if spec.config_cls is OpenIMAConfig:
        config_dict = OpenIMAConfig(trainer=trainer_config).to_dict()
        # Methods with their own config class take every override as a config
        # field, so typos hit from_dict's strict unknown-key validation.
        config_part, method_params = overrides, {}
    else:
        config_dict = trainer_config.to_dict()
        config_part, method_params = _split_config_overrides(spec.config_cls, overrides)
    return (spec.config_cls.from_dict(_deep_merge(config_dict, config_part)),
            method_params)


def _handle_run(args: argparse.Namespace) -> dict:
    from ..api import OpenWorldClassifier

    spec = get_method(args.method)
    config, method_params = _method_config(spec, args)
    classifier = OpenWorldClassifier(
        args.method, config=config,
        num_novel_classes=args.num_novel_classes,
        method_params=method_params,
    )
    classifier.fit(
        args.dataset,
        seed=args.seed,
        scale=args.scale,
        labels_per_class=args.labels_per_class,
    )
    result = _report_classifier(classifier, saved_to=args.save)
    if args.save:
        classifier.save(args.save)
    return result


def _load_for_inference(args: argparse.Namespace,
                        allowed: Sequence[str] = ("inference",)):
    """Load a checkpointed classifier and apply ``--set <section>.*`` overrides.

    ``allowed`` names the config sections this subcommand may override
    (``inference`` for embed, ``inference``/``clustering`` for predict);
    anything else fails the same strict validation as ``run``.
    """
    from ..api import OpenWorldClassifier
    from ..core.config import ClusteringConfig, InferenceConfig

    classifier = OpenWorldClassifier.load(args.checkpoint)
    overrides = parse_set_overrides(args.overrides)
    sections: Dict[str, dict] = {}
    for name in allowed:
        section = overrides.pop(name, {})
        if not isinstance(section, dict):
            raise ValueError(
                f"--set {name}=... must use dotted keys, e.g. "
                f"--set {name}.{'mode=layerwise' if name == 'inference' else 'strategy=minibatch'}"
            )
        sections[name] = section
    if overrides:
        valid = "/".join(f"{name}.*" for name in allowed)
        raise ValueError(
            f"only {valid} overrides are valid for this command, got "
            f"{sorted(overrides)}; e.g. --set inference.mode=layerwise"
        )
    if sections.get("inference"):
        current = classifier.trainer_.config.inference.to_dict()
        classifier.configure_inference(
            InferenceConfig.from_dict(_deep_merge(current, sections["inference"]))
        )
    if sections.get("clustering"):
        current = classifier.trainer_.config.clustering.to_dict()
        classifier.configure_clustering(
            ClusteringConfig.from_dict(_deep_merge(current, sections["clustering"]))
        )
    return classifier


def _resolved_inference_mode(classifier) -> str:
    trainer = classifier.trainer_
    return classifier.inference_engine.resolve_mode(trainer.encoder,
                                                    trainer.dataset.graph)


def _handle_embed(args: argparse.Namespace) -> dict:
    import numpy as np

    classifier = _load_for_inference(args)
    embeddings = classifier.embed()
    mode = _resolved_inference_mode(classifier)
    np.savez(args.npz, embeddings=embeddings)
    lines = [
        f"method:     {classifier.method}",
        f"dataset:    {classifier.dataset_.name}",
        f"embeddings: shape {embeddings.shape} "
        f"({'layer-wise' if mode == 'layerwise' else 'full'} forward)",
        f"written to: {args.npz}",
    ]
    return {
        "report": "\n".join(lines),
        "method": classifier.method,
        "dataset": classifier.dataset_.name,
        "inference_mode": mode,
        "shape": list(embeddings.shape),
        "npz": str(args.npz),
    }


def _handle_predict(args: argparse.Namespace) -> dict:
    import numpy as np

    classifier = _load_for_inference(args, allowed=("inference", "clustering"))
    dataset = classifier.dataset_
    # One embedding pass feeds both the prediction and the accuracy report.
    embeddings = classifier.embed()
    result = classifier.trainer_.predict(embeddings=embeddings)
    accuracy = classifier.trainer_.accuracy_of(result)
    mode = _resolved_inference_mode(classifier)
    if args.predictions_npz:
        np.savez(args.predictions_npz, predictions=result.predictions)
    lines = [
        f"method:    {classifier.method}",
        f"dataset:   {dataset.name}",
        f"inference: {mode} ({classifier.inference_engine.forward_count} forward)",
        f"accuracy:  all={accuracy.overall:.4f}  seen={accuracy.seen:.4f}  "
        f"novel={accuracy.novel:.4f}",
    ]
    if args.predictions_npz:
        lines.append(f"predictions: {args.predictions_npz}")
    payload = {
        "report": "\n".join(lines),
        "method": classifier.method,
        "dataset": dataset.name,
        "inference_mode": mode,
        "accuracy": accuracy.as_dict(),
    }
    if args.output:
        # The boxed per-node list is only worth building when a JSON copy
        # was requested; bulk export goes through --predictions-npz.
        payload["predictions"] = [int(p) for p in result.predictions]
    return payload


def _handle_serve(args: argparse.Namespace) -> dict:
    from ..serve import set_blas_threads

    # Every snapshot build, the start-up one included, runs on one BLAS
    # thread; repro.serve.blas says why.
    previous = set_blas_threads(1)
    try:
        return _run_server(args)
    finally:
        if previous is not None:
            set_blas_threads(previous)


def _run_server(args: argparse.Namespace) -> dict:
    from ..serve import ModelServer, PredictionService, ServeConfig

    classifier = _load_for_inference(args, allowed=("inference", "clustering"))
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        warm=not args.no_warm,
    )
    server = ModelServer(PredictionService(classifier), config)
    server.start()
    host, port = server.address[0], server.port
    print(
        f"serving {classifier.method} on {classifier.dataset_.name} "
        f"({classifier.trainer_.dataset.graph.num_nodes} nodes) at "
        f"http://{host}:{port} — POST /predict, GET /health, GET /stats "
        f"(Ctrl-C to stop)",
        flush=True,
    )
    server.serve_forever(install_signals=True)
    stats = server.stats()
    latency = stats["latency"]
    lines = [
        "server stopped",
        f"requests:  {latency['requests']}",
    ]
    if latency["requests"]:
        lines.append(
            f"latency:   p50={latency['p50_ms']:.2f} ms  "
            f"p99={latency['p99_ms']:.2f} ms  qps={latency['qps']:.1f}"
        )
    return {
        "report": "\n".join(lines),
        "method": classifier.method,
        "dataset": classifier.dataset_.name,
        "address": [host, port],
        "stats": stats,
    }


def _handle_stream(args: argparse.Namespace) -> dict:
    from ..api import OpenWorldClassifier
    from ..core.config import ClusteringConfig
    from ..datasets.synthetic import load_open_world_dataset
    from ..streaming import StreamRunner, make_stream_scenario

    spec = get_method(args.method)
    dataset = load_open_world_dataset(args.dataset, seed=args.seed,
                                      scale=args.scale)
    scenario = make_stream_scenario(
        dataset,
        num_steps=args.steps,
        base_fraction=args.base_fraction,
        entry_step=args.entry_step,
        reveal_fraction=args.reveal_fraction,
        seed=args.seed,
    )

    birth = None if args.birth_threshold <= -1 else float(args.birth_threshold)
    max_clusters = args.max_clusters
    if max_clusters is None:
        # Default cap: room for every real class plus a couple of births.
        max_clusters = (scenario.base.split.seen_classes.shape[0]
                        + scenario.base.split.novel_classes.shape[0]
                        + scenario.withheld_classes.shape[0] + 2)
    clustering = ClusteringConfig(
        strategy="online",
        birth_threshold=birth,
        max_clusters=int(max_clusters),
    )
    config, method_params = _method_config(spec, args, clustering=clustering)
    classifier = OpenWorldClassifier(args.method, config=config,
                                     method_params=method_params)
    classifier.fit(scenario.base)
    runner = StreamRunner(classifier, scenario)
    result = runner.run()
    summary = result.summary()

    lines = [
        f"method:    {spec.display_name} ({classifier.method})",
        f"scenario:  {scenario.name}  "
        f"({scenario.base.graph.num_nodes} base nodes -> "
        f"{scenario.total_nodes} total, {scenario.num_steps} steps, "
        f"withheld classes {[int(c) for c in scenario.withheld_classes]})",
        "",
        f"{'step':>4}  {'arrive':>6}  {'affected':>8}  {'refresh':>9}  "
        f"{'k':>3}  {'birth':>5}  {'overall':>7}  {'seen':>6}  {'novel':>6}",
    ]
    for record in result.records:
        accuracy = record.accuracy
        lines.append(
            f"{record.step:>4}  {record.num_arrivals:>6}  "
            f"{record.affected_fraction:>8.1%}  "
            f"{record.refresh_seconds * 1e3:>7.1f}ms"
            f"{'*' if record.partial else ' '} "
            f"{record.num_clusters:>3}  "
            f"{('+' + str(len(record.births))) if record.births else '-':>5}  "
            f"{accuracy['overall']:>7.3f}  {accuracy['seen']:>6.3f}  "
            f"{accuracy['novel']:>6.3f}"
        )
    lines += [
        "",
        f"prequential: overall={summary['prequential']['overall']:.4f}  "
        f"seen={summary['prequential']['seen']:.4f}  "
        f"novel={summary['prequential']['novel']:.4f}",
        f"clusters:    {summary['num_clusters_start']} -> "
        f"{summary['num_clusters_end']}"
        + (f"  (first birth at step {summary['first_birth_step']}, "
           f"detection delay {summary['detection_delay']})"
           if summary["first_birth_step"] is not None else "  (no births)"),
        f"refresh:     {summary['partial_refresh_steps']} partial / "
        f"{summary['full_refresh_steps']} full  "
        f"(* = partial; mean {summary['mean_refresh_seconds'] * 1e3:.1f} ms, "
        f"mean affected {summary['mean_affected_fraction']:.1%})",
    ]
    return {
        "report": "\n".join(lines),
        "method": classifier.method,
        "dataset": args.dataset,
        "scenario": scenario.describe(),
        "summary": summary,
        "steps": [record.as_dict() for record in result.records],
    }


def _handle_resume(args: argparse.Namespace) -> dict:
    from ..api import OpenWorldClassifier

    classifier = OpenWorldClassifier.load(args.checkpoint)
    classifier.fit(max_epochs=args.epochs)
    target = args.save or args.checkpoint
    result = _report_classifier(classifier, saved_to=target)
    classifier.save(target)
    return result


def _report_classifier(classifier, saved_to: Optional[str] = None) -> dict:
    accuracy = classifier.evaluate()
    spec = get_method(classifier.method)
    lines = [
        f"method:    {spec.display_name} ({classifier.method}, {spec.kind})",
        f"dataset:   {classifier.dataset_.name}",
        f"epochs:    {classifier.epochs_trained}",
        f"accuracy:  all={accuracy.overall:.4f}  seen={accuracy.seen:.4f}  "
        f"novel={accuracy.novel:.4f}",
    ]
    final_loss = classifier.history.final_loss
    if final_loss is not None:
        lines.insert(3, f"loss:      {final_loss:.4f}")
    if saved_to:
        lines.append(f"checkpoint: {saved_to}")
    return {
        "report": "\n".join(lines),
        "method": classifier.method,
        "dataset": classifier.dataset_.name,
        "epochs_trained": classifier.epochs_trained,
        "accuracy": accuracy.as_dict(),
        "losses": list(classifier.history.losses),
        "evaluations": list(classifier.history.evaluations),
    }


def _handle_list_methods(args: argparse.Namespace) -> dict:
    rows = []
    for name in available_methods():
        spec = METHODS.get(name)
        rows.append({
            "name": spec.name,
            "display_name": spec.display_name,
            "kind": spec.kind,
            "default_epochs": spec.default_epochs,
            "description": spec.description,
        })
    width = max(len(row["name"]) for row in rows)
    lines = [
        f"{row['name']:<{width}}  {row['kind']:<10}  "
        f"{row['default_epochs']:>3} epochs  {row['description']}"
        for row in rows
    ]
    return {"report": "\n".join(lines), "methods": rows}


def _handle_list_datasets(args: argparse.Namespace) -> dict:
    rows = []
    for name in available_datasets():
        profile = get_profile(name)
        rows.append({
            "name": name,
            "paper_name": profile.paper_name,
            "classes": profile.paper_classes,
            "synthetic_nodes": profile.sbm.num_nodes,
            "labels_per_class": profile.labels_per_class,
            "large_scale": profile.large_scale,
        })
    width = max(len(row["name"]) for row in rows)
    lines = [
        f"{row['name']:<{width}}  {row['paper_name']:<16}  "
        f"{row['classes']:>2} classes  {row['synthetic_nodes']:>5} nodes"
        + ("  [large-scale]" if row["large_scale"] else "")
        for row in rows
    ]
    return {"report": "\n".join(lines), "datasets": rows}


def _handle_lint(args: argparse.Namespace) -> dict:
    from ..analysis.cli import execute

    # The linter prints its own findings and must control the process exit
    # code (0 clean / 1 findings), so it bypasses the report-dict protocol.
    try:
        code = execute(args.paths, rules=args.rules,
                       output_format=args.format,
                       list_rules=args.list_rules,
                       no_default_excludes=args.no_default_excludes)
    except (ValueError, FileNotFoundError) as exc:
        raise SystemExit(f"repro lint: error: {exc}") from exc
    raise SystemExit(code)


def _handle_experiment(args: argparse.Namespace) -> dict:
    experiment = experiment_config_from_args(args)
    return EXPERIMENTS[args.experiment](experiment)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> dict:
    """Entry point; returns the handler's result dict (useful for tests)."""
    args = build_parser().parse_args(argv)
    result = args.handler(args)
    if "report" in result:
        print(result["report"])
    output = getattr(args, "output", None)
    if output:
        path = save_results(
            {key: value for key, value in result.items() if key != "report"},
            output,
        )
        print(f"\nJSON results written to {path}")
    return result


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in docs
    main()
