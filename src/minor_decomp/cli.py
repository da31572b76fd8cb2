"""Command-line front end for the decomposition pipeline.

Subcommands: generate | decompose | separate | cover | padded | verify |
pipeline.  All randomness flows from one root seed (``--seed`` or the MINOR_DECOMP_SEED
environment variable) split per stage with fixed labels, so identical
configs produce byte-identical JSON reports, except for the ``timestamp``
field which carries the wall clock and per-stage timings.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O or
malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import _kernels
from .cop_builder import CopConfig, build_cop_decomposition, build_with_gamma_search
from .generators import FAMILIES, WEIGHT_MODES, FamilySpec, generate
from .graph_core import StructuralError, WeightedGraph, connected_components, full_mask, weak_diameters
from .padded import boundary_distances, estimate_padding, sample_padded
from .partition_tree import (
    compute_domains_and_bags,
    tree_from_json,
    tree_to_json,
    verify_buffered,
)
from .seeding import derive_seed_sequence
from .separator import separator_supernodes, components_after_removal, subtree_view, subtree_width
from .sparse_cover import (
    Cover,
    class_count_bound,
    color_classes,
    cover,
    cover_from_json,
    cover_to_json_obj,
    verify_cover,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

SCHEMA_VERSION = 1


def _derive_int(seed: int, *labels) -> int:
    return int(derive_seed_sequence(seed, *labels).generate_state(1, np.uint64)[0])


def _root_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("MINOR_DECOMP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise StructuralError(f"MINOR_DECOMP_SEED={env!r} is not an integer") from None
    return 0


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_graph(path: str) -> WeightedGraph:
    return WeightedGraph.from_edge_list_text(_read_text(path))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and (math.isinf(obj) or math.isnan(obj)):
        return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


# --- subcommand: generate ---


def _cmd_generate(args) -> int:
    spec = FamilySpec(
        family=args.family,
        n=args.n,
        rows=args.rows,
        cols=args.cols,
        weights=args.weights,
        seed=_root_seed(args),
    )
    g = generate(spec)
    _write_text(args.out, g.to_edge_list_text())
    return EXIT_OK


# --- subcommand: decompose ---


def _cmd_decompose(args) -> int:
    g = _read_graph(args.input)
    cfg = CopConfig(
        delta=args.delta,
        lambda_radius=args.radius_lambda,
        seed=_root_seed(args),
        max_gamma_retries=args.gamma_retries,
    )
    if args.gamma_target is not None:
        tree, report = build_with_gamma_search(g, args.delta, args.gamma_target, cfg)
        meta = report.to_json_obj()
    else:
        tree = build_cop_decomposition(g, cfg)
        meta = None
    out = tree_to_json(tree)
    _write_text(args.out, out)
    if meta is not None:
        sys.stderr.write(_dump_json({"gamma_search": meta}))
        if meta["target_not_met"]:
            return EXIT_VERIFY
    return EXIT_OK


# --- subcommand: separate ---


def _cmd_separate(args) -> int:
    g = _read_graph(args.graph)
    tree = tree_from_json(_read_text(args.input))
    compute_domains_and_bags(tree, g)
    view = subtree_view(tree, g)
    width_before = subtree_width(view)
    sep = separator_supernodes(view)
    comps = components_after_removal(view, set(sep.supernodes))
    obj = {
        "schema_version": SCHEMA_VERSION,
        "selected": sep.supernodes,
        "marked_by": {str(k): v for k, v in sorted(sep.marking_trace.items())},
        "subtree_width_before": width_before,
        "components": [
            {"root": c.root, "members": sorted(c.members), "subtree_width_after": subtree_width(c)}
            for c in comps
        ],
    }
    _write_text(args.out, _dump_json(obj))
    bad = [c for c in comps if subtree_width(c) > width_before - 1]
    return EXIT_VERIFY if bad else EXIT_OK


# --- cover/padded helpers shared with pipeline ---


def _resolve_rho(args) -> float:
    # main() has checked that exactly one is given and that --epsilon is positive
    return args.rho if args.rho is not None else 4.0 / args.epsilon


def _part_diameters(g: WeightedGraph, assignment: np.ndarray):
    """The labels of a partition's parts, ascending, and each part's weak diameter."""
    labels = np.unique(assignment)
    return labels, weak_diameters(g, [np.flatnonzero(assignment == label) for label in labels])


def _build_cover_for_graph(g, delta, rho, seed, gamma_target=None, gamma_retries=16):
    """Per-component decomposition + cover, merged over components.

    Returns (trees, views, merged cover, per-component covers).
    """
    comps = connected_components(g)
    trees = []
    covers = []
    views = []
    merged: list = []
    for idx, comp in enumerate(comps):
        sub_mask = np.zeros(g.vertex_count, dtype=np.bool_)
        sub_mask[comp] = True
        cfg = CopConfig(
            delta=delta, seed=_derive_int(seed, "decompose", idx), max_gamma_retries=gamma_retries
        )
        if len(comps) == 1:
            tree = (
                build_cop_decomposition(g, cfg)
                if gamma_target is None
                else build_with_gamma_search(g, delta, gamma_target, cfg)[0]
            )
        else:
            sub_g, mapping = _induced_graph(g, comp)
            sub_tree = (
                build_cop_decomposition(sub_g, cfg)
                if gamma_target is None
                else build_with_gamma_search(sub_g, delta, gamma_target, cfg)[0]
            )
            tree = _lift_tree(sub_tree, mapping, g, sub_mask)
        trees.append(tree)
        view = subtree_view(tree, g)
        views.append(view)
        c = cover(view, sub_mask, rho, delta)
        color_classes(c, tree)
        covers.append(c)
        merged.extend(c.clusters)
    merged_cover = Cover(clusters=merged, rho=rho, delta=delta)
    merged_cover.color_classes = _merge_color_classes(covers, merged)
    return trees, views, merged_cover, covers


def _induced_graph(g: WeightedGraph, comp: np.ndarray):
    mapping = {int(v): i for i, v in enumerate(comp)}
    edges = []
    for u, v, w in zip(g.edges_u, g.edges_v, g.edges_w):
        if int(u) in mapping and int(v) in mapping:
            edges.append((mapping[int(u)], mapping[int(v)], float(w)))
    return WeightedGraph(len(comp), edges), comp


def _lift_tree(sub_tree, comp_ids, g, sub_mask):
    """Relabel a component-local partition tree to global vertex ids."""
    from .partition_tree import PartitionTree, SkeletonTree, Supernode

    lifted = []
    for sn in sub_tree.supernodes:
        lifted.append(
            Supernode(
                id=sn.id,
                vertices=np.asarray(sorted(int(comp_ids[v]) for v in sn.vertices), dtype=np.int64),
                skeleton=SkeletonTree(
                    root=int(comp_ids[sn.skeleton.root]),
                    edges=sorted(
                        (int(comp_ids[u]), int(comp_ids[v])) for u, v in sn.skeleton.edges
                    ),
                ),
                parent=sn.parent,
                creation_index=sn.creation_index,
                radius=sn.radius,
            )
        )
    tree = PartitionTree(lifted, root=sub_tree.root)
    return compute_domains_and_bags(tree, g, universe=sub_mask)


def _merge_color_classes(covers, merged_clusters):
    """Clusters of different components are vertex-disjoint, so class i of
    every component can share one merged class."""
    offsets = []
    total = 0
    for c in covers:
        offsets.append(total)
        total += len(c.clusters)
    assert total == len(merged_clusters)
    depth = max((len(c.color_classes or []) for c in covers), default=0)
    merged = [[] for _ in range(depth)]
    for off, c in zip(offsets, covers):
        for i, group in enumerate(c.color_classes or []):
            merged[i].extend(off + j for j in group)
    return merged


def _cmd_cover(args) -> int:
    g = _read_graph(args.input)
    rho = _resolve_rho(args)
    seed = _root_seed(args)
    _trees, _views, merged, _covers = _build_cover_for_graph(g, args.delta, rho, seed)
    diam_bound = (4.0 + 8.0 * rho) * args.delta
    pad_radius = rho * args.delta
    report = verify_cover(merged, g, full_mask(g.vertex_count), pad_radius, diam_bound)
    stats = {
        "s": report.s,
        "max_diam": report.max_diam,
        "class_count": len(merged.color_classes or []),
    }
    _write_text(args.out, _dump_json(cover_to_json_obj(merged, stats)))
    return EXIT_OK if report.passed else EXIT_VERIFY


def _read_cover(path: str, g: WeightedGraph) -> Cover:
    c = cover_from_json(_read_text(path))
    c.check_vertex_ids(g.vertex_count)
    return c


def _cmd_padded(args) -> int:
    g = _read_graph(args.graph)
    c = _read_cover(args.cover, g)
    rho, delta_c = c.rho, c.delta
    delta_p = args.delta if args.delta is not None else (4.0 + 8.0 * rho) * delta_c
    beta = args.beta if args.beta is not None else (4.0 + 8.0 * rho) / rho
    seed = _root_seed(args)
    boundary = boundary_distances(g, c)
    membership = c.membership_matrix(g.vertex_count)
    pp = sample_padded(
        g, c, beta, delta_p, seed=_derive_int(seed, "padded-sample"),
        boundary=boundary, membership=membership,
    )
    stats = {}
    ok = True
    if args.trials > 0:
        gamma = args.gamma if args.gamma is not None else 1.0 / (4.0 * beta)
        est = estimate_padding(
            g, c, beta, delta_p, gamma, args.trials, _derive_int(seed, "padded-mc"),
            boundary=boundary, membership=membership,
        )
        stats = est.to_json_obj()
        ok = est.passed
    obj = {
        "schema_version": SCHEMA_VERSION,
        "partition": pp.assignment,
        "shifts": pp.shifts,
        "lambda": pp.lam,
        "params": {"beta": beta, "delta": delta_p},
        "stats": stats,
    }
    _write_text(args.out, _dump_json(obj))
    return EXIT_OK if ok else EXIT_VERIFY


# --- subcommand: verify ---


def _cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    if args.kind == "tree":
        tree = tree_from_json(_read_text(args.input))
        compute_domains_and_bags(tree, g)
        w = args.w if args.w is not None else g.vertex_count
        report = verify_buffered(tree, g, args.delta, args.gamma, w,
                                 skip_buffer=args.skip_buffer_check)
        _write_text(args.out, _dump_json({"kind": "tree", **report.to_json_obj()}))
        return EXIT_OK if report.passed else EXIT_VERIFY
    if args.kind == "cover":
        c = _read_cover(args.input, g)
        pad_radius = c.rho * c.delta
        diam_bound = (4.0 + 8.0 * c.rho) * c.delta
        report = verify_cover(c, g, full_mask(g.vertex_count), pad_radius, diam_bound)
        _write_text(args.out, _dump_json({"kind": "cover", **report.to_json_obj()}))
        return EXIT_OK if report.passed else EXIT_VERIFY
    if args.kind == "padded":
        obj = json.loads(_read_text(args.input))
        assignment = np.asarray(obj["partition"], dtype=np.int64)
        if assignment.shape != (g.vertex_count,):
            raise StructuralError(
                f"partition lists {assignment.size} labels for a graph of {g.vertex_count} vertices"
            )
        delta_p = float(obj["params"]["delta"])
        labels, diams = _part_diameters(g, assignment)
        worst = max(diams)
        witness = next(
            ({"cluster": int(label), "diameter": d, "bound": delta_p}
             for label, d in zip(labels, diams) if d > delta_p),
            None,
        )
        ok = witness is None
        _write_text(
            args.out,
            _dump_json({"kind": "padded", "max_diam": worst, "bound": delta_p, "passed": ok, "witness": witness}),
        )
        return EXIT_OK if ok else EXIT_VERIFY
    raise StructuralError(f"unknown verify kind {args.kind!r}")


# --- subcommand: pipeline ---


def run_pipeline(args) -> tuple[dict, int]:
    """Run the stage chain for the parsed ``pipeline`` arguments; returns (report, exit code)."""
    timings: dict[str, float] = {}
    seed = _root_seed(args)
    rho = _resolve_rho(args)
    level = args.verify

    t0 = time.perf_counter()
    if args.input is not None:
        g = _read_graph(args.input)
    else:
        spec = FamilySpec(
            family=args.family, n=args.n, rows=args.rows, cols=args.cols,
            weights=args.weights, seed=seed,
        )
        g = generate(spec)
    timings["load"] = time.perf_counter() - t0

    delta = args.delta
    t0 = time.perf_counter()
    trees, views, merged, _covers = _build_cover_for_graph(
        g, delta, rho, seed, gamma_target=args.gamma_target, gamma_retries=args.gamma_retries
    )
    timings["decompose_and_cover"] = time.perf_counter() - t0

    pad_radius = rho * delta
    diam_bound = (4.0 + 8.0 * rho) * delta
    beta = args.beta if args.beta is not None else diam_bound / pad_radius

    checks: dict[str, bool] = {}
    stats: dict = {
        "beta": beta,
        "s": merged.sparsity(g.vertex_count),
        "w": None,
        "w_hat": None,
        "gamma_eff": None,
        "class_count": len(merged.color_classes or []),
        "class_count_bound": None,
        "min_pad_prob": None,
        "pad_bound": None,
    }
    stats["w"] = max(max(len(b) for b in t.bags) for t in trees)
    stats["w_hat"] = max(subtree_width(v) for v in views)

    t0 = time.perf_counter()
    if level in ("structural", "full"):
        skip_buffer = level != "full"
        gamma_eff = np.inf
        tree_ok = True
        for tree in trees:
            rep = verify_buffered(tree, g, delta, 0.0, g.vertex_count, skip_buffer=skip_buffer)
            tree_ok &= rep.passed
            gamma_eff = min(gamma_eff, rep.gamma_eff)
        checks["tree_properties"] = bool(tree_ok)
        if level == "full":
            stats["gamma_eff"] = None if gamma_eff == np.inf else float(gamma_eff)
            stats["class_count_bound"] = class_count_bound(
                rho, delta, gamma_eff, stats["w"], stats["w_hat"]
            )
    timings["verify_tree"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if level == "full":
        crep = verify_cover(merged, g, full_mask(g.vertex_count), pad_radius, diam_bound)
        checks["cover_diameter"] = crep.diam_ok
        checks["cover_padding"] = crep.padding_ok
        checks["cover_classes_disjoint"] = crep.class_disjoint_ok
        stats["max_cluster_diam"] = crep.max_diam
    elif level == "structural":
        crep = verify_cover(merged, g, full_mask(g.vertex_count), 0.0, diam_bound)
        checks["cover_diameter"] = crep.diam_ok
        checks["cover_classes_disjoint"] = crep.class_disjoint_ok
    timings["verify_cover"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # one boundary and one membership matrix serve the sample, its check and
    # the Monte Carlo estimate
    boundary = boundary_distances(g, merged)
    membership = merged.membership_matrix(g.vertex_count)
    pp = sample_padded(
        g, merged, beta, diam_bound, seed=_derive_int(seed, "padded-sample"),
        boundary=boundary, membership=membership,
    )
    stats["sampled_partition_max_diam"] = max(_part_diameters(g, pp.assignment)[1])
    if level in ("structural", "full"):
        checks["padded_diameter"] = stats["sampled_partition_max_diam"] <= diam_bound
        checks["padded_membership"] = bool(membership[pp.assignment, np.arange(g.vertex_count)].all())
    timings["sample_padded"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if level == "full" and args.trials > 0:
        gamma = args.gamma if args.gamma is not None else 1.0 / (4.0 * beta)
        est = estimate_padding(
            g, merged, beta, diam_bound, gamma, args.trials, _derive_int(seed, "padded-mc"),
            boundary=boundary, membership=membership,
        )
        stats["min_pad_prob"] = est.min_prob
        stats["pad_bound"] = est.bound
        stats["min_pad_lcb"] = est.min_lcb
        stats["min_pad_lcb_vertex"] = est.min_lcb_vertex
        stats["max_ball_size"] = est.max_ball_size
        checks["padding_probability"] = est.passed
    timings["monte_carlo"] = time.perf_counter() - t0

    passed = all(checks.values()) if checks else True
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "input": args.input,
            "family": args.family,
            "delta": delta,
            "rho": rho,
            "beta": beta,
            "seed": seed,
            "trials": args.trials,
            "gamma": args.gamma,
            "verify": level,
            "backend": _kernels.get_backend(),
        },
        "graph": {"n": g.vertex_count, "m": g.edge_count, "components": len(trees)},
        "stats": stats,
        "verification": {"level": level, "checks": checks, "passed": passed},
        "timestamp": {
            "utc": datetime.now(timezone.utc).isoformat(),
            "stage_seconds": timings,
        },
    }
    code = EXIT_OK if passed else EXIT_VERIFY
    return report, code


def _cmd_pipeline(args) -> int:
    report, code = run_pipeline(args)
    _write_text(args.out, _dump_json(report))
    return code


# --- parser ---


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minor-decomp",
        description="partition trees, sparse covers, and padded decompositions",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{generate,decompose,separate,cover,padded,verify,pipeline}",
    )

    p = sub.add_parser("generate", help="write a test-family graph as an edge list")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--weights", choices=WEIGHT_MODES, default="unit")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("decompose", help="build a cop decomposition (partition-tree JSON)")
    p.add_argument("--input", default="-", help="edge-list path or - for stdin")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--radius-lambda", type=float, default=None)
    p.add_argument("--gamma-target", type=float, default=None)
    p.add_argument("--gamma-retries", type=int, default=16)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("separate", help="run separator selection on a partition tree")
    p.add_argument("--graph", required=True)
    p.add_argument("--input", required=True, help="partition-tree JSON")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("cover", help="build a sparse partition cover (JSON)")
    p.add_argument("--input", default="-", help="edge-list path or - for stdin")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("padded", help="sample a padded partition from a cover")
    p.add_argument("--graph", required=True)
    p.add_argument("--cover", required=True, help="cover JSON")
    p.add_argument("--delta", type=float, default=None, help="partition diameter bound")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_padded)

    p = sub.add_parser("verify", help="verify a tree / cover / padded JSON artifact")
    p.add_argument("--kind", required=True, choices=["tree", "cover", "padded"])
    p.add_argument("--graph", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--w", type=int, default=None)
    p.add_argument("--skip-buffer-check", action="store_true",
                   help="skip the quadratic buffer measurement on large inputs")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("pipeline", help="run the full stage chain with verification")
    p.add_argument("--input", default=None, help="edge-list path or - for stdin")
    p.add_argument("--family", choices=FAMILIES, default=None)
    p.add_argument("--n", type=int)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--weights", choices=WEIGHT_MODES, default="unit")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--gamma-target", type=float, default=None)
    p.add_argument("--gamma-retries", type=int, default=16)
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--seed", type=int)
    p.add_argument("--verify", choices=["off", "structural", "full"], default="structural")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("pipeline", "cover"):
        if (args.rho is None) == (args.epsilon is None):
            parser.error("exactly one of --rho / --epsilon is required")
        if args.epsilon is not None and args.epsilon <= 0:
            parser.error("--epsilon must be positive")
    if args.command == "pipeline" and args.input is None and args.family is None:
        args.input = "-"
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except StructuralError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
