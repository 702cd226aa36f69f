"""Span trees, the trace recorder, and nesting validation."""

from repro.obs import NULL_SPAN, Span, TraceRecorder, validate_nesting


def test_span_children_and_walk():
    root = Span("query", 0.0)
    a = root.child("dispatch", 1.0)
    b = root.child("serve", 3.0)
    leaf = b.child("key_fetch", 3.5)
    assert [s.name for s in root.walk()] == [
        "query", "dispatch", "serve", "key_fetch"]
    assert a in root.children and leaf in b.children


def test_span_duration_and_attrs():
    span = Span("s", 10.0, core=3)
    assert span.duration == 0.0    # unfinished
    span.note(found=True)
    span.finish(25.0)
    assert span.duration == 15.0
    assert span.attrs == {"core": 3, "found": True}


def test_span_to_dict_omits_empty_fields():
    span = Span("s", 0.0).finish(1.0)
    out = span.to_dict()
    assert out == {"name": "s", "start": 0.0, "end": 1.0}
    span.note(k=1)
    span.child("c", 0.5).finish(0.9)
    out = span.to_dict()
    assert out["attrs"] == {"k": 1}
    assert out["children"][0]["name"] == "c"


def test_null_span_absorbs_everything():
    child = NULL_SPAN.child("anything", 5.0, attr=1)
    assert child is NULL_SPAN
    NULL_SPAN.note(x=2)
    NULL_SPAN.finish(99.0)
    assert NULL_SPAN.attrs == {}
    assert NULL_SPAN.end is None


def test_recorder_collects_roots():
    recorder = TraceRecorder()
    recorder.root("q1", 0.0).finish(1.0)
    recorder.root("q2", 1.0).finish(2.0)
    assert len(recorder) == 2
    assert [s["name"] for s in recorder.to_dicts()] == ["q1", "q2"]


def test_recorder_capacity_evicts_oldest_and_counts_drops():
    recorder = TraceRecorder(capacity=2)
    recorder.root("a", 0.0)
    recorder.root("b", 1.0)
    recorder.root("c", 2.0)
    assert [s.name for s in recorder.roots] == ["b", "c"]
    assert recorder.dropped == 1
    recorder.clear()
    assert len(recorder) == 0
    assert recorder.dropped == 0


def test_validate_nesting_accepts_well_formed_tree():
    root = Span("query", 0.0)
    stage = root.child("serve", 2.0)
    stage.child("fetch", 2.5).finish(4.0)
    stage.finish(5.0)
    root.finish(6.0)
    assert validate_nesting(root) == []


def test_validate_nesting_flags_unfinished_span():
    root = Span("query", 0.0)
    root.child("serve", 1.0)   # never finished
    root.finish(2.0)
    problems = validate_nesting(root)
    assert any("never finished" in p for p in problems)


def test_validate_nesting_flags_reversed_interval():
    root = Span("query", 5.0).finish(1.0)
    problems = validate_nesting(root)
    assert any("before it starts" in p for p in problems)


def test_validate_nesting_flags_escaping_child():
    root = Span("query", 0.0)
    root.child("late", 1.0).finish(10.0)
    root.finish(4.0)
    problems = validate_nesting(root)
    assert any("escapes parent" in p for p in problems)
