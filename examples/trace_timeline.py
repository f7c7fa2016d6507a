"""Export chrome-trace timelines of one epoch, DGL vs FastGL.

Writes ``trace_dgl.json`` and ``trace_fastgl.json`` (open in
``chrome://tracing`` or https://ui.perfetto.dev) showing, per trainer GPU,
where each mini-batch's modeled time goes — the visual counterpart of the
paper's Fig. 1/Fig. 3 stacked bars.

Usage::

    python examples/trace_timeline.py [dataset] [out_dir]
"""

import pathlib
import sys

from repro import RunConfig, create, get_dataset
from repro.obs.trace import write_chrome_trace


def main() -> None:
    dataset_name = sys.argv[1] if len(sys.argv) > 1 else "products"
    out_dir = pathlib.Path(sys.argv[2]) if len(sys.argv) > 2 else (
        pathlib.Path(".")
    )
    dataset = get_dataset(dataset_name)
    config = RunConfig(num_gpus=2)
    for name in ("dgl", "fastgl"):
        report = create(name).run_epoch(dataset, config)
        path = out_dir / f"trace_{name}.json"
        events = write_chrome_trace(path, report)
        print(f"{name}: wrote {events} spans to {path} "
              f"(modeled epoch {report.epoch_time:.4g}s)")
    print("\nopen the two files in chrome://tracing and compare the width "
          "of the memory_io spans — that's Match-Reorder at work.")


if __name__ == "__main__":
    main()
