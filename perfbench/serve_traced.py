"""``repro serve`` with spans, for the traced run of the ``serve`` workload.

Wraps the public serving surfaces in spans -- each connection
(``ServeServer.finish_request``), the HTTP handler (``do_POST``), the
micro-batcher front door (``PredictionService.select``/``predict``),
the batch functions (``select_many``/``predict_many``), the feature
cache and model predict -- and then runs ``repro serve`` itself through
``repro.cli.main``, so the traced server is the untraced one.  When it
returns (after SIGTERM, drain and the final ``/stats`` on stderr) the
span table goes to ``--spans-out``.

Usage: ``python3 perfbench/serve_traced.py --registry DIR --spans-out FILE``
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import ensure_src_on_path  # noqa: E402
from perfbench.tracing import Tracer, patched  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--registry", required=True)
    ap.add_argument("--spans-out", required=True)
    args = ap.parse_args()
    ensure_src_on_path()

    from repro.cli import main as repro_main
    from repro.ml.gbdt import GBDTClassifier, GBRegressor
    from repro.serve import FeatureCache, PredictionService
    from repro.serve.http import ServeHandler, ServeServer

    tracer = Tracer()

    def wrap(name):
        return lambda f: tracer.wrap(name, f)

    with patched(
        (ServeServer, "finish_request", wrap("serve.connection")),
        (ServeHandler, "do_POST", wrap("serve.http")),
        (PredictionService, "select", wrap("serve.submit")),
        (PredictionService, "predict", wrap("serve.submit")),
        (PredictionService, "select_many", wrap("serve.batch")),
        (PredictionService, "predict_many", wrap("serve.batch")),
        (FeatureCache, "features", wrap("serve.features")),
        (FeatureCache, "tensors", wrap("serve.features")),
        (GBDTClassifier, "predict", wrap("ml.predict")),
        (GBRegressor, "predict", wrap("ml.predict")),
    ):
        code = repro_main(["serve", "--registry", args.registry, "--port", "0"])
    Path(args.spans_out).write_text(json.dumps({"spans": tracer.summary()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
