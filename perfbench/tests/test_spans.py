"""Self time is a span's duration minus what its children cover."""

from perfbench.spans import SpanRecorder


def test_self_times_subtract_children():
    recorder = SpanRecorder()
    root = recorder.add(0, "cell", 0.0, 10.0)
    compile_span = recorder.add(0, "compile", 0.0, 7.0, root)
    recorder.add(0, "sabre_forward", 1.0, 4.0, compile_span)
    recorder.add(0, "schedule_final", 4.0, 6.5, compile_span)
    recorder.add(0, "replay", 7.0, 9.0, root)
    assert recorder.self_times() == {
        "cell": 1.0,
        "compile": 1.5,
        "sabre_forward": 3.0,
        "schedule_final": 2.5,
        "replay": 2.0,
    }
    assert recorder.root_time() == 10.0


def test_context_spans_nest_under_the_open_span(tmp_path):
    recorder = SpanRecorder()
    with recorder.span(7, "outer"):
        with recorder.span(7, "inner"):
            pass
    (outer, inner) = recorder.spans
    assert inner[2] == outer[1] and outer[2] == -1
    assert outer[4] <= inner[4] <= inner[5] <= outer[5]
    recorder.write(tmp_path / "spans.jsonl")
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == 2
