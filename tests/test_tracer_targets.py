from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
# wrapped by the benchmark's tracer, gone since boundary extraction reads
# one b-sweep; their layers read 0 until the tracer is remapped
GONE = {f"freezeflow.geometry.{name}" for name in ("_march_segments", "_chain", "_refine_corner", "_refine_tip")}


def test_every_traced_target_resolves():
    # a target that no longer resolves is reported absent and its per-layer
    # metrics read 0, so a rename inside the package must show up here
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)  # no bytecode written
    with namespace["Tracer"]() as tracer:
        absent = set(tracer.absent)
    assert absent <= GONE, sorted(absent - GONE)
