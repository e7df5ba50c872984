"""Documents, renderers, and the command-line contract."""

from __future__ import annotations

import io
import itertools
import json
import sys

import pytest

from gridmagic import (
    EdgeId,
    GridSpec,
    ParseError,
    UnsupportedDimension,
    VersionMismatch,
    build_labelings,
    cli,
    combine_supermagic,
    document_edge_label,
    document_vertex_label,
    generate_document,
    load,
    render,
    save,
    verify_document,
    verify_supermagic,
)


def test_save_load_roundtrip_is_byte_identical():
    doc = generate_document([5, 3], "total")
    data = save(doc)
    assert data.endswith(b"\n")
    again = load(data)
    assert again == doc
    assert save(again) == data


def test_document_kinds_have_expected_arrays():
    for kind, nv, ne in [("vertex", 15, 0), ("edge", 0, 22), ("total", 15, 22)]:
        doc = generate_document([5, 3], kind)
        assert len(doc.vertex_labels) == nv
        assert len(doc.edge_labels) == ne


def test_load_rejects_truncated_stream():
    data = save(generate_document([5, 3], "total"))
    with pytest.raises(ParseError):
        load(data[: len(data) // 2])


def test_load_rejects_wrong_version():
    payload = json.loads(save(generate_document([3, 2], "vertex")))
    payload["format_version"] = "2"
    with pytest.raises(VersionMismatch):
        load(json.dumps(payload))


def test_load_rejects_length_mismatch():
    payload = json.loads(save(generate_document([5, 3], "total")))
    payload["vertex_labels"] = payload["vertex_labels"][:14]
    with pytest.raises(ParseError, match="length mismatch"):
        load(json.dumps(payload))


def test_load_rejects_unknown_or_missing_keys():
    payload = json.loads(save(generate_document([3, 2], "vertex")))
    payload["extra"] = 1
    with pytest.raises(ParseError):
        load(json.dumps(payload))
    del payload["extra"]
    del payload["dims"]
    with pytest.raises(ParseError):
        load(json.dumps(payload))


def test_load_rejects_inconsistent_axis_permutation():
    payload = json.loads(save(generate_document([3, 5, 3], "vertex")))
    payload["axis_permutation"] = [1, 2, 3]
    with pytest.raises(ParseError):
        load(json.dumps(payload))


def test_noncanonical_dims_map_user_coordinates():
    doc = generate_document([3, 5, 3], "total")
    assert doc.dims == (3, 5, 3)
    assert doc.axis_permutation == (2, 1, 3)
    spec = GridSpec((5, 3, 3))
    total = combine_supermagic(*build_labelings(spec))
    for v in itertools.product(range(1, 4), range(1, 6), range(1, 4)):
        canonical = (v[1], v[0], v[2])
        assert document_vertex_label(doc, v) == total.vertex_label(canonical)
    assert document_edge_label(doc, (2, 4, 1), 2) == total.edge_label(EdgeId((4, 2, 1), 1))
    assert document_edge_label(doc, (2, 4, 1), 1) == total.edge_label(EdgeId((4, 2, 1), 2))
    assert document_edge_label(doc, (2, 4, 1), 3) == total.edge_label(EdgeId((4, 2, 1), 3))


def test_render_tikz2d_places_labels():
    text = render(generate_document([5, 3], "total"), "tikz2d")
    assert "\\node (v1_1) at (0,6) {1};" in text
    assert "\\draw (v1_1) -- (v1_2) node[draw=none,midway,right] {16};" in text


def test_render_tikz3d_places_labels():
    text = render(generate_document([5, 3, 3], "vertex"), "tikz3d")
    assert "\\node (v2_1_2) at (3,3) {27};" in text


def test_render_dimension_mismatches():
    with pytest.raises(UnsupportedDimension):
        render(generate_document([2, 2, 2, 2], "vertex"), "tikz3d")
    with pytest.raises(UnsupportedDimension):
        render(generate_document([2, 2, 2], "vertex"), "tikz2d")


def test_render_dot_is_well_formed():
    doc = generate_document([3, 2], "total")
    text = render(doc, "dot")
    lines = text.strip().splitlines()
    assert lines[0] == "graph gridmagic {"
    assert lines[-1] == "}"
    assert sum(1 for line in lines if " -- " in line) == 7
    assert '"1,1" [label="1"];' in text


def test_render_csv_lists_every_element():
    doc = generate_document([3, 2], "total")
    lines = render(doc, "csv").strip().splitlines()
    assert lines[0] == "kind,x1,x2,axis,label"
    assert len(lines) == 1 + 6 + 7
    assert lines[1] == "vertex,1,1,,1"
    assert any(line.startswith("edge,1,1,1,") for line in lines)


@pytest.mark.parametrize("dims", [(4, 3, 2), (5, 3), (3, 3, 3)])
def test_verify_document_matches_in_memory_verification(dims):
    doc = load(save(generate_document(list(dims), "total")))
    report = verify_document(doc)
    assert report.magic and report.bijective
    spec = GridSpec(dims)
    direct = verify_supermagic(spec, combine_supermagic(*build_labelings(spec)))
    assert report == direct


# --- command line ------------------------------------------------------


def run_cli(capsys, argv, stdin: bytes | None = None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
    code = cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_predict(capsys):
    code, out, err = run_cli(capsys, ["predict", "--dims", "5,3,3"])
    assert code == 0
    assert out == "c_vertex=184 c_edge=594 c_total=1318\n"
    assert err == ""


def test_cli_generate_verify_pipeline(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["generate", "--dims", "5,3"])
    assert code == 0
    code, out, err = run_cli(capsys, ["verify", "-"], stdin=out.encode(), monkeypatch=monkeypatch)
    assert code == 0
    assert "MAGIC sum=138" in out
    assert err == ""


def test_cli_generate_to_file_and_verify(tmp_path, capsys):
    path = tmp_path / "doc.json"
    code, out, _ = run_cli(capsys, ["generate", "--dims", "4,4", "--out", str(path)])
    assert code == 0 and out == ""
    code, out, _ = run_cli(capsys, ["verify", str(path)])
    assert code == 0
    assert out.splitlines()[-1] == "MAGIC sum=148"


def test_cli_stdout_is_deterministic(capsys):
    first = run_cli(capsys, ["generate", "--dims", "4,3"])
    second = run_cli(capsys, ["generate", "--dims", "4,3"])
    assert first == second


def test_cli_verify_rejects_corrupted_fixture(capsys):
    code, out, _ = run_cli(capsys, ["verify", "tests/fixtures/grid53_total_swapped.json"])
    assert code == 1
    machine = out.strip().splitlines()[-1]
    assert machine.startswith("NOT_MAGIC distinct=")
    assert int(machine.split("=")[1]) >= 2


def test_cli_verify_missing_file(capsys):
    code, out, err = run_cli(capsys, ["verify", "/no/such/file.json"])
    assert code == 2
    assert out == ""
    assert err != ""


def _vertex_document(dims, labels) -> bytes:
    payload = json.loads(save(generate_document(dims, "vertex")))
    payload["vertex_labels"] = labels
    return json.dumps(payload).encode()


def test_cli_verify_does_not_wrap_int64_cube_sums(capsys, monkeypatch):
    # the two squares sum to 5 and to 2**64 + 5; in int64 both read 5
    data = _vertex_document([3, 2], [2**63 - 1, 2**63 - 1, 3, 4, -1, -1])
    code, out, _ = run_cli(capsys, ["verify", "-"], stdin=data, monkeypatch=monkeypatch)
    assert code == 1
    assert f"values={[5, 2**64 + 5]}" in out
    assert out.splitlines()[-1] == "NOT_MAGIC distinct=2"


@pytest.mark.parametrize("label", [2**63, -(2**63) - 1])
def test_labels_outside_int64_are_parse_errors(capsys, monkeypatch, label):
    data = _vertex_document([3, 2], [1, 2, 3, 4, 5, label])
    with pytest.raises(ParseError, match="vertex_labels"):
        load(data)
    code, out, err = run_cli(capsys, ["verify", "-"], stdin=data, monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert err.startswith("i/o error:")


def test_int64_extremes_load():
    labels = [-(2**63), 2**63 - 1, 3, 4, 5, 6]
    assert load(_vertex_document([3, 2], labels)).vertex_labels == tuple(labels)


def test_cli_usage_errors(capsys):
    assert run_cli(capsys, ["bogus"])[0] == 64
    assert run_cli(capsys, ["generate", "--dims", "5"])[0] == 64
    assert run_cli(capsys, ["generate", "--dims", "5,x"])[0] == 64
    assert run_cli(capsys, ["generate", "--dims", "5,1"])[0] == 64
    assert run_cli(capsys, ["search", "--dims", "2,2"])[0] == 64  # missing --mode


def test_cli_search_histogram(capsys):
    code, out, _ = run_cli(capsys, ["search", "--dims", "2,2", "--mode", "supermagic"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mode=supermagic dims=2,2 examined=576 found=576"
    assert lines[1] == "sum=36 count=576"


def test_cli_search_budget_refusal(capsys):
    code, out, err = run_cli(capsys, ["search", "--dims", "3,3", "--mode", "supermagic"])
    assert code == 1
    assert out == ""
    assert "refused" in err


def test_cli_render_and_cover(tmp_path, capsys):
    path = tmp_path / "doc.json"
    run_cli(capsys, ["generate", "--dims", "5,3", "--out", str(path)])
    code, out, _ = run_cli(capsys, ["render", str(path), "--style", "tikz2d"])
    assert code == 0 and "{16}" in out
    code, out, _ = run_cli(capsys, ["render", str(path), "--style", "tikz3d"])
    assert code == 64
    code, out, _ = run_cli(capsys, ["cover", "--dims", "9,4,2,2"])
    assert code == 0 and out.strip() == "COVERED"


def test_cli_generate_csv_format(capsys):
    code, out, _ = run_cli(capsys, ["generate", "--dims", "3,2", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "kind,x1,x2,axis,label"
