"""Batch command-line interface: train, tag, eval, gradcheck, stats.

Every run is non-interactive and deterministic. cmd_train writes its full
RunConfig to config.json, which replays the run byte for byte (a partial
file loads with current defaults). Exit codes are part of the contract:

    0  success
    2  configuration/usage error (bad flags, missing files, bad checkpoint)
    3  corpus parse error
    4  training error
    5  gold/predicted alignment or tokenization mismatch
    6  gradient check above threshold
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pickle
import signal
import sys
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import corpus as corpus_mod
from . import inhibition
from .corpus import (CuptError, _write_atomic, iter_cupt, seen_lemma_keys,
                     serialize_corpus)
from .evaluation import (AlignmentMismatch, TokenizationMismatch, aligned,
                         format_table, predict_corpus, score)
from .model import CheckpointError, ModelConfig, MweTagger, tag_groups
from .trainer import TrainerConfig, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_TRAIN = 4
EXIT_ALIGNMENT = 5
EXIT_GRADCHECK = 6

GRADCHECK_THRESHOLD = 1e-5


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = EXIT_CONFIG):
        super().__init__(message)
        self.exit_code = exit_code


def _inputs(specs: list[str], need_language: bool = False):
    """Check corpus specs, "LANG=path.cupt" or a bare path, without reading
    any file; return their (language, path) pairs, None for a bare path.
    A spec such as "data=v2.cupt" is a bare path if it names a file and its
    part after "=" does not."""
    inputs = []
    for spec in specs:
        language, sep, path = spec.partition("=")
        if not (sep and language.isalnum() and len(language) <= 8) or (
                not Path(path).is_file() and Path(spec).is_file()):
            language, path = None, spec
        if not Path(path).is_file():
            raise CliError(f"no such file: {path}")
        if need_language and language is None:
            raise CliError(
                f"training/eval inputs need a language code: LANG={spec}")
        inputs.append((language, path))
    return inputs


def _read(inputs):
    """The inputs' sentences in order, each read block by block with its
    input's language."""
    for language, path in inputs:
        yield from iter_cupt(path, language)


def _load(inputs) -> corpus_mod.Corpus:
    """One corpus of the inputs' sentences in order."""
    return corpus_mod.Corpus(tuple(_read(inputs)))


@dataclass(frozen=True)
class RunConfig:
    """One ``mweid train`` run; ``asdict`` of it is its ``config.json``."""
    model: ModelConfig
    trainer: TrainerConfig
    train: tuple[str, ...]
    dev: tuple[str, ...]
    out_dir: str


# RunConfig field annotation -> what its JSON value must be, and its type.
_LAYOUT = {"ModelConfig": ("an object", dict), "str": ("a string", str),
           "TrainerConfig": ("an object", dict),
           "tuple[str, ...]": ("a list of strings", list)}
_SECTIONS = {"model": ModelConfig, "trainer": TrainerConfig}


def _check_layout(config, origin, config_class=RunConfig, where=""):
    """Raise a CliError unless ``config`` is an object keyed by fields of
    ``config_class`` and, at the top level, valued by their JSON types."""
    if not isinstance(config, dict):
        raise CliError(f"{origin}: the top level is not an object")
    annotations = {field.name: field.type for field in fields(config_class)}
    for key, value in config.items():
        if key not in annotations:
            raise CliError(f"{origin}: unknown key {key!r}{where}; expected "
                           f"one of {', '.join(annotations)}")
        if config_class is RunConfig:
            what, json_type = _LAYOUT[annotations[key]]
            if not isinstance(value, json_type) or json_type is list and any(
                    not isinstance(spec, str) for spec in value):
                raise CliError(f"{origin}: {key!r} is not {what}")
            if json_type is dict:
                _check_layout(value, origin, _SECTIONS[key], f" in {key!r}")


def _run_config(args) -> RunConfig:
    """The ``--config`` file, then the flags (``--set`` shorthands), then each
    ``--set``, a later value replacing an earlier; the rest are defaults."""
    config = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise CliError(f"no such config file: {path}")
        try:
            config = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise CliError(f"bad config file: {path} is not UTF-8 JSON: "
                           f"{err}") from err
        _check_layout(config, "bad config file")
    config["train"] = [*config.get("train", []), *(args.train or [])]
    config["dev"] = [*config.get("dev", []), *(args.dev or [])]
    flags = {"out_dir": json.dumps(args.out) if args.out else None,
             "trainer.epochs": args.epochs, "model.seed": args.seed,
             "trainer.seed": args.seed, "model.use_adversarial": args.use_adv,
             "model.use_lateral_inhibition": args.use_li}
    for override in [f"{key}={value}" for key, value in flags.items()
                     if value is not None] + (args.set or []):
        dotted, sep, raw = override.partition("=")
        if not sep:
            raise CliError(f"--set needs key=value, got {override!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        *sections, key = dotted.split(".")
        target = config
        for section in sections:
            target = target.setdefault(section, {})
            if not isinstance(target, dict):
                raise CliError(f"--set {dotted}: {section} is not a section")
        target[key] = value
    _check_layout(config, "bad --set value")
    if not config["train"]:
        raise CliError("no training files given (config 'train' or --train)")
    if not config.get("out_dir"):
        raise CliError("no output directory given (config 'out_dir' or --out)")
    try:
        return RunConfig(ModelConfig(**config.get("model", {})),
                         TrainerConfig(**config.get("trainer", {})),
                         tuple(config["train"]), tuple(config["dev"]),
                         config["out_dir"])
    except ValueError as err:
        raise CliError(f"bad configuration: {err}") from err


def _check_output_dir(out_dir: Path, force: bool) -> None:
    """Raise a CliError unless ``out_dir`` is an empty directory (any
    directory with ``force``) or can be created."""
    if out_dir.exists():
        if not out_dir.is_dir():
            raise CliError(f"output directory {out_dir} is not a directory")
        if any(out_dir.iterdir()) and not force:
            raise CliError(
                f"output directory {out_dir} is not empty (use --force)")
    for parent in out_dir.parents:
        if parent.exists() and not parent.is_dir():
            raise CliError(f"cannot create {out_dir}: {parent} is not a "
                           f"directory")


def _check_output_file(path: Path, force: bool) -> None:
    """Raise a CliError unless a file can be written at ``path``: its
    directory exists, and it is no directory (nor, without ``force``, an
    existing file)."""
    if path.is_dir():
        raise CliError(f"output {path} is a directory")
    if path.exists() and not force:
        raise CliError(f"output file {path} exists (use --force)")
    if not path.parent.is_dir():
        raise CliError(f"no such directory: {path.parent}")


def _json_text(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_text(path, text: str) -> None:
    _write_atomic(path, lambda handle: handle.write(text))


def cmd_train(args) -> int:
    run = _run_config(args)
    out_dir = Path(run.out_dir)
    _check_output_dir(out_dir, args.force)
    train_inputs = _inputs(run.train, need_language=True)
    dev_inputs = _inputs(run.dev, need_language=True)
    train_corpus = _load(train_inputs)
    dev_corpus = _load(dev_inputs) if dev_inputs else None

    try:
        model = MweTagger.build(run.model, train_corpus)
        report = train(model, train_corpus, dev_corpus, run.trainer)
    except Exception as err:
        raise CliError(f"training failed: {err}", EXIT_TRAIN) from err

    # Written only now, so a failed run leaves the directory as it was.
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out_dir / "config.json", _json_text(asdict(run)))
    final = model.save(out_dir / "checkpoint.json")
    if report.best_epoch == len(report.epochs):
        # The final state is the best one: write its text, not re-encode it.
        _write_text(out_dir / "checkpoint_best.json", final)
    elif report.best_state is not None:
        model.load_state_arrays(report.best_state)
        model.save(out_dir / "checkpoint_best.json")
    else:  # an earlier run's, left by --force
        (out_dir / "checkpoint_best.json").unlink(missing_ok=True)
    _write_text(out_dir / "report.jsonl", report.to_jsonl())
    _write_text(out_dir / "summary.json", _json_text(report.summary()))
    last = report.epochs[-1]
    print(f"trained {run.trainer.epochs} epochs; "
          f"final tag loss {last.tag_loss:.6f}; outputs in {out_dir}")
    return EXIT_OK


def cmd_tag(args) -> int:
    """Tag the input into the output a ``tag_groups`` group at a time: the
    bytes of ``predict_corpus`` over the whole input."""
    if not Path(args.checkpoint).is_file():
        raise CliError(f"no such checkpoint: {args.checkpoint}")
    output = Path(args.output)
    _check_output_file(output, args.force)
    inputs = _inputs([args.input])
    try:
        model = MweTagger.load(args.checkpoint)
    except CheckpointError as err:
        raise CliError(f"bad checkpoint: {err}") from err
    tagged = 0

    def write(handle):
        nonlocal tagged
        for group in tag_groups(_read(inputs)):
            predicted = predict_corpus(model, corpus_mod.Corpus(group))
            handle.write(serialize_corpus(predicted))
            tagged += len(predicted)

    _write_atomic(output, write)
    print(f"tagged {tagged} sentences -> {output}")
    return EXIT_OK


def _can_fork() -> bool:
    """Whether ``os.fork`` exists, this process runs one OS thread (one
    entry in ``/proc/self/task``) and, where ``os.sched_getaffinity``
    exists, may run on more than one CPU: a child forked from a threaded
    process may wait forever on a lock that another thread held, and on one
    CPU the child only takes turns with its parent."""
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2:
        return False
    try:
        return hasattr(os, "fork") and len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _send_seen_keys(train, read_end: int, write_end: int):
    """The forked child: pickle ``seen_lemma_keys`` of the training inputs,
    or the exception that reading them raised, into the pipe. It leaves by
    ``os._exit`` on every path, an interrupt included, so it never returns
    into its caller."""
    status = 1
    try:
        os.close(read_end)
        try:
            result = seen_lemma_keys(_read(train))
        except Exception as err:
            result = err
        data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


@contextlib.contextmanager
def _seen_keys(train):
    """Yield a function that returns ``seen_lemma_keys`` of the training
    inputs. Where ``_can_fork`` and the pipe and the fork are made, a forked
    child reads them from now on, while the caller reads gold and
    predictions; the function waits for its result and raises the exception
    the read met, or a RuntimeError naming the exit status of a child that
    ended without a result. Elsewhere the function reads them itself. On the
    way out a child still running is killed, and every child is reaped."""
    ends, pid = [], None
    if _can_fork():
        try:
            ends += os.pipe()
            pid = os.fork()
        except OSError:  # say, at a limit on processes or open files
            for end in ends:
                os.close(end)
    if pid is None:
        yield lambda: seen_lemma_keys(_read(train))
        return
    read_end, write_end = ends
    if pid == 0:
        _send_seen_keys(train, read_end, write_end)
    os.close(write_end)
    status = None

    def result():
        nonlocal status
        data = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status != 0:
            raise RuntimeError(f"the child reading the training corpora "
                               f"ended without a result, exit status {status}")
        keys = pickle.loads(data)
        if isinstance(keys, Exception):
            raise keys
        return keys

    with open(read_end, "rb") as pipe:
        try:
            yield result
        finally:
            if status is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def cmd_eval(args) -> int:
    if args.report:
        _check_output_file(Path(args.report), force=True)
    gold, pred, *train = _inputs([args.gold, args.pred, *args.train])

    with _seen_keys(train) as seen_keys:
        def seen():
            # Taken only once gold and predictions are read, so that faults
            # come in the order of whole reads of gold, predictions, then
            # training.
            yield from seen_keys()

        try:
            result = score(aligned(_read([gold]), _read([pred])), seen(),
                           args.category_sensitive)
        except (AlignmentMismatch, TokenizationMismatch) as err:
            seen_keys()  # a training fault comes first
            raise CliError(f"alignment error: {err}", EXIT_ALIGNMENT) from err
    print(format_table(result, label=args.label))
    if args.report:
        _write_text(args.report, _json_text(result.as_dict()))
    return EXIT_OK


def _gradcheck_cases(corrupt_adjoint: bool):
    """Small fixed networks, one per checked operation.

    Every case is a deterministic scalar function of its parameters.
    The LI layer and its input are returned too, for the hard-step
    negative control: a true Heaviside has an almost-everywhere-zero
    derivative, so its surrogate gradient *must* disagree with finite
    differences of the hard forward pass.
    """
    rng = np.random.default_rng(12345)

    def p(shape, name):
        return ad.Parameter(rng.uniform(-0.8, 0.8, size=shape), name)

    cases = []

    a, b = p((3, 4), "a"), p((4, 2), "b")
    cases.append(("matmul", [a, b], lambda: ad.sum_all(ad.matmul(a, b))))

    s = p((3, 3), "s")
    cases.append(("sigmoid", [s], lambda: ad.sum_all(ad.sigmoid(s))))

    r, r2 = p((3, 3), "r"), p((3, 3), "r2")
    cases.append(("relu", [r, r2],
                  lambda: ad.sum_all(ad.mul(ad.relu(r), ad.sigmoid(r2)))))

    table = p((5, 3), "table")
    ids = np.array([0, 2, 4, 2])
    cases.append(("embedding", [table],
                  lambda: ad.sum_all(ad.sigmoid(ad.embedding_lookup(table, ids)))))

    # Window rows as the extractor gathers them: repeated ids and the pad id 0.
    window_ids = np.array([[0, 2, 4], [2, 4, 4], [4, 0, 0], [1, 2, 1]])
    cases.append(("embedding_window", [table],
                  lambda: ad.sum_all(ad.sigmoid(
                      ad.embedding_lookup(table, window_ids)))))

    logits_w = p((3, 4), "logits_w")
    x_fixed = ad.tensor(rng.uniform(-1, 1, size=(2, 3)))
    labels = np.array([1, 3])
    cases.append(("cross_entropy", [logits_w],
                  lambda: ad.softmax_cross_entropy(ad.matmul(x_fixed, logits_w),
                                                   labels)))

    m = p((4, 4), "m")
    cases.append(("zero_diag", [m],
                  lambda: ad.sum_all(ad.sigmoid(inhibition.zero_diag(m)))))

    layer = inhibition.LateralInhibitionLayer(
        ad.Parameter(rng.uniform(-0.5, 0.5, size=(3, 3)), "li.weight"),
        ad.Parameter(rng.uniform(-0.5, 0.5, size=3), "li.bias"),
        steepness=4.0)
    x_li = ad.tensor(rng.uniform(-1, 1, size=(4, 3)))
    cases.append(("lateral_inhibition_relaxed", layer.parameters(),
                  lambda: ad.sum_all(layer.forward_relaxed(x_li))))

    if corrupt_adjoint:
        # Test hook: a deliberately wrong backward rule that the finite
        # differences must flag.
        c = p((3, 3), "c")

        def corrupted():
            node = ad.sigmoid(c)
            broken = ad.Tensor(node.data,
                               vjps=((node, lambda g: g * 1.01),),
                               op="corrupted-identity")
            return ad.sum_all(broken)

        cases.append(("corrupted_adjoint", [c], corrupted))
    return cases, layer, x_li


def cmd_gradcheck(args) -> int:
    h = args.step
    if not 0 < h < math.inf:
        raise CliError(f"--step must be a finite number > 0, got {h}")
    cases, layer, x_li = _gradcheck_cases(args.inject_error)
    # Each row carries whether it must fail. The last is a negative control,
    # never counted among the operations: finite differences of the
    # hard-gated layer cannot reproduce the surrogate gradient.
    rows = [(*case, False) for case in cases]
    rows.append(("hard_heaviside_control", layer.parameters(),
                 lambda: ad.sum_all(layer.forward(x_li)), True))
    failed = []
    for name, params, f, must_fail in rows:
        error = ad.finite_difference_check(f, params, h=h)
        if (error < GRADCHECK_THRESHOLD) != must_fail:
            status = "expected-fail (ok)" if must_fail else "ok"
        else:
            status = "UNEXPECTED-PASS" if must_fail else "FAIL"
            failed.append(f"{name}(unexpected pass)" if must_fail else name)
        print(f"{name:<28} max relative error {error:.3e}  {status}")

    if failed:
        print(f"gradient check FAILED: {', '.join(failed)}")
        return EXIT_GRADCHECK
    print(f"gradient check passed ({len(cases)} operations, "
          f"threshold {GRADCHECK_THRESHOLD:g})")
    return EXIT_OK


def cmd_stats(args) -> int:
    stats = corpus_mod.corpus_stats(_read(_inputs(args.corpora)))
    print(f"{'language':<10}{'sentences':>10}{'tokens':>10}{'mwes':>8}  "
          f"per-category")
    rows = [("all", stats)] + sorted(stats.by_language.items())
    for label, bucket in rows:
        categories = " ".join(f"{cat}={count}" for cat, count
                              in sorted(bucket.by_category.items()))
        print(f"{label:<10}{bucket.n_sentences:>10}{bucket.n_tokens:>10}"
              f"{bucket.n_mwes:>8}  {categories}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mweid",
        description="Multilingual verbal MWE identification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a tagger on .cupt corpora")
    p_train.add_argument("--config", help="JSON run configuration")
    p_train.add_argument("--train", action="append", metavar="LANG=PATH",
                         help="training corpus (repeatable)")
    p_train.add_argument("--dev", action="append", metavar="LANG=PATH",
                         help="development corpus (repeatable)")
    p_train.add_argument("--out", help="output directory")
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--seed", type=int,
                         help="sets both model and trainer seeds")
    p_train.add_argument("--use-li", choices=("true", "false"), default=None,
                         help="enable/disable the lateral-inhibition layer")
    p_train.add_argument("--use-adv", choices=("true", "false"), default=None,
                         help="enable/disable adversarial language training")
    p_train.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override any config entry, e.g. trainer.alpha=0.2")
    p_train.add_argument("--force", action="store_true",
                         help="allow writing into a non-empty output directory")
    p_train.set_defaults(func=cmd_train)

    p_tag = sub.add_parser("tag", help="tag a .cupt file with a trained model")
    p_tag.add_argument("checkpoint")
    p_tag.add_argument("input", help="input .cupt file ([LANG=]PATH)")
    p_tag.add_argument("output", help="output .cupt file")
    p_tag.add_argument("--force", action="store_true")
    p_tag.set_defaults(func=cmd_tag)

    p_eval = sub.add_parser("eval", help="score predictions against gold")
    p_eval.add_argument("gold")
    p_eval.add_argument("pred")
    p_eval.add_argument("--train", action="append", required=True,
                        metavar="[LANG=]PATH",
                        help="training corpora defining the seen MWE keys")
    p_eval.add_argument("--category-sensitive", action="store_true",
                        help="require matching categories, not just token sets")
    p_eval.add_argument("--report", help="write a JSON report here")
    p_eval.add_argument("--label", default="model",
                        help="row label in the printed table")
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck",
                            help="finite-difference check of all gradients")
    p_grad.add_argument("--step", type=float, default=1e-5,
                        help="central-difference step size")
    p_grad.add_argument("--inject-error", action="store_true",
                        help=argparse.SUPPRESS)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_stats = sub.add_parser("stats", help="corpus statistics")
    p_stats.add_argument("corpora", nargs="+", metavar="[LANG=]PATH")
    p_stats.set_defaults(func=cmd_stats)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Print a warning as one ``warning: <message>`` line on stderr, without
    the source location, so stderr does not depend on the install path."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command and return its exit code. The whole command, flags
    included, runs with the cyclic collector paused (what it builds is
    acyclic); the caller's setting is restored on every way out."""
    with corpus_mod.collector_paused():
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            try:
                return args.func(args)
            except CliError as err:
                print(f"error: {err}", file=sys.stderr)
                return err.exit_code
            except CuptError as err:
                print(f"error: parse error: {err}", file=sys.stderr)
                return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
