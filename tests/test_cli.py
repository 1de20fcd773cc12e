"""End-to-end tests for the cas-offinder-py CLI."""

import json
import socket

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.records import read_hits
from repro.genome.assembly import Assembly, Chromosome
from repro.genome.fasta import FastaRecord, write_fasta

INPUT = """\
ignored-genome-line
NNNNNNRG
GACGTCNN 3
TTACGANN 2
"""


@pytest.fixture
def input_file(tmp_path):
    path = tmp_path / "input.txt"
    path.write_text(INPUT)
    return path


class TestSearchCommand:
    def test_synthetic_search_writes_output(self, tmp_path, input_file):
        out = tmp_path / "hits.tsv"
        code = main([str(input_file), "--synthetic", "hg19",
                     "--scale", "0.00005", "-o", str(out)])
        assert code == 0
        hits = read_hits(out)
        for hit in hits:
            assert hit.strand in "+-"
            assert hit.mismatches <= 3

    def test_genome_fasta_file(self, tmp_path, input_file):
        rng = np.random.default_rng(8)
        seq = rng.choice(np.frombuffer(b"ACGT", dtype=np.uint8), 4000)
        fasta = tmp_path / "genome.fa"
        write_fasta([FastaRecord("chrT", seq)], fasta)
        out = tmp_path / "hits.tsv"
        code = main([str(input_file), "--genome", str(fasta),
                     "-o", str(out)])
        assert code == 0
        hits = read_hits(out)
        assert hits, "random 4 kbp should contain NNNNNNRG hits"
        assert all(h.chrom == "chrT" for h in hits)

    def test_genome_directory(self, tmp_path, input_file):
        rng = np.random.default_rng(9)
        for name in ("a.fa", "b.fasta"):
            seq = rng.choice(np.frombuffer(b"ACGT", dtype=np.uint8), 1500)
            write_fasta([FastaRecord(name.split(".")[0], seq)],
                        tmp_path / name)
        out = tmp_path / "hits.tsv"
        code = main([str(input_file), "--genome", str(tmp_path),
                     "-o", str(out)])
        assert code == 0
        chroms = {h.chrom for h in read_hits(out)}
        assert chroms <= {"a", "b"}

    def test_apis_agree_via_cli(self, tmp_path, input_file):
        outs = {}
        for api in ("sycl", "sycl-usm", "opencl"):
            out = tmp_path / f"{api}.tsv"
            main([str(input_file), "--synthetic", "hg19",
                  "--scale", "0.00005", "--api", api, "-o", str(out)])
            outs[api] = sorted(h.to_tsv() for h in read_hits(out))
        assert outs["sycl"] == outs["opencl"]
        assert outs["sycl"] == outs["sycl-usm"]

    def test_bitparallel_engine_agrees(self, tmp_path, input_file):
        outs = {}
        for engine in ("listing1", "bitparallel"):
            out = tmp_path / f"{engine}.tsv"
            main([str(input_file), "--synthetic", "hg19",
                  "--scale", "0.00005", "--engine", engine,
                  "-o", str(out)])
            outs[engine] = sorted(h.to_tsv() for h in read_hits(out))
        assert outs["listing1"] == outs["bitparallel"]

    def test_streaming_flags_agree_with_serial(self, tmp_path, input_file,
                                               capsys):
        serial_out = tmp_path / "serial.tsv"
        stream_out = tmp_path / "stream.tsv"
        base = [str(input_file), "--synthetic", "hg19",
                "--scale", "0.00005"]
        assert main(base + ["-o", str(serial_out)]) == 0
        assert main(base + ["--streaming", "--prefetch", "3",
                            "--batch-comparer",
                            "-o", str(stream_out)]) == 0
        assert stream_out.read_text() == serial_out.read_text()
        assert "Stage timings" in capsys.readouterr().err

    def test_checkpoint_resume_roundtrip(self, tmp_path, input_file):
        first_out = tmp_path / "first.tsv"
        resumed_out = tmp_path / "resumed.tsv"
        ckpt = tmp_path / "ckpt"
        base = [str(input_file), "--synthetic", "hg19",
                "--scale", "0.00005", "--checkpoint-dir", str(ckpt)]
        assert main(base + ["-o", str(first_out)]) == 0
        assert (ckpt / "journal.jsonl").stat().st_size > 0
        assert main(base + ["--resume", "-o", str(resumed_out)]) == 0
        assert resumed_out.read_bytes() == first_out.read_bytes()

    def test_no_genome_cache_flag(self, tmp_path, input_file,
                                  monkeypatch):
        from repro.genome import synthetic
        cache_dir = tmp_path / "genome-cache"
        monkeypatch.setenv(synthetic.CACHE_DIR_ENV, str(cache_dir))
        monkeypatch.delenv(synthetic.CACHE_ENV, raising=False)
        out = tmp_path / "hits.tsv"
        code = main([str(input_file), "--synthetic", "hg19",
                     "--scale", "0.00005", "--no-genome-cache",
                     "-o", str(out)])
        assert code == 0
        assert not cache_dir.exists()
        code = main([str(input_file), "--synthetic", "hg19",
                     "--scale", "0.00005", "-o", str(out)])
        assert code == 0
        assert len(list(cache_dir.glob("*.npz"))) == 1

    def test_missing_genome_errors(self, input_file, tmp_path):
        with pytest.raises(SystemExit):
            main([str(input_file), "--genome",
                  str(tmp_path / "missing.fa")])

    def test_missing_input_errors(self):
        with pytest.raises(SystemExit):
            main(["--synthetic", "hg19"])

    def test_variant_flag(self, tmp_path, input_file):
        out = tmp_path / "hits.tsv"
        code = main([str(input_file), "--synthetic", "hg19",
                     "--scale", "0.00005", "--variant", "opt3",
                     "-o", str(out)])
        assert code == 0

    def test_work_group_size_flag_agrees_with_default(self, tmp_path,
                                                      input_file):
        default_out = tmp_path / "default.tsv"
        wgs_out = tmp_path / "wgs.tsv"
        base = [str(input_file), "--synthetic", "hg19",
                "--scale", "0.00005"]
        assert main(base + ["-o", str(default_out)]) == 0
        assert main(base + ["--work-group-size", "128",
                            "-o", str(wgs_out)]) == 0
        assert wgs_out.read_text() == default_out.read_text()

    def test_trace_flag_writes_chrome_trace(self, tmp_path, input_file,
                                            capsys):
        import json
        out = tmp_path / "hits.tsv"
        trace = tmp_path / "trace.json"
        code = main([str(input_file), "--synthetic", "hg19",
                     "--scale", "0.00005", "--trace", str(trace),
                     "-o", str(out)])
        assert code == 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e.get("cat") == "kernel" for e in events)
        assert {e["ph"] for e in events} <= {"M", "X", "i"}
        assert "Trace summary" in capsys.readouterr().err

    def test_fault_inject_with_streaming_matches_serial(
            self, tmp_path, input_file):
        serial_out = tmp_path / "serial.tsv"
        faulted_out = tmp_path / "faulted.tsv"
        base = [str(input_file), "--synthetic", "hg19",
                "--scale", "0.00005"]
        assert main(base + ["-o", str(serial_out)]) == 0
        assert main(base + ["--streaming", "--workers", "2",
                            "--fault-inject", "raise@0",
                            "--max-retries", "2",
                            "-o", str(faulted_out)]) == 0
        assert faulted_out.read_text() == serial_out.read_text()

    def test_fault_inject_requires_streaming(self, input_file):
        with pytest.raises(SystemExit, match="fault-inject"):
            main([str(input_file), "--synthetic", "hg19",
                  "--fault-inject", "raise@0"])

    def test_bad_fault_plan_rejected(self, input_file):
        with pytest.raises(SystemExit, match="fault"):
            main([str(input_file), "--synthetic", "hg19",
                  "--streaming", "--fault-inject", "explode@1"])

    @pytest.mark.parametrize("flags", [
        ["--streaming"],
        ["--workers", "2"],
        ["--prefetch", "3"],
        ["--batch-comparer"],
        ["--work-group-size", "128"],
        ["--fault-inject", "raise@0"],
        ["--max-retries", "2"],
        ["--chunk-deadline", "0.5"],
    ])
    def test_bitparallel_rejects_engine_flags(self, input_file, flags):
        """PR-1 silently dropped these with --engine bitparallel; they
        must now fail loudly naming the offending flag."""
        with pytest.raises(SystemExit, match="bitparallel") as excinfo:
            main([str(input_file), "--synthetic", "hg19",
                  "--engine", "bitparallel"] + flags)
        assert flags[0] in str(excinfo.value)


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["input.txt"])
        assert args.api == "sycl"
        assert args.device == "MI100"
        assert args.variant == "base"
        assert args.output == "-"

    def test_invalid_api_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["x", "--api", "cuda"])

    def test_invalid_variant_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["x", "--variant", "opt9"])


class TestReportCommand:
    def test_tables_report(self, capsys):
        code = main(["--report", "tables", "--scale", "0.0002"])
        assert code == 0
        out = capsys.readouterr().out
        for marker in ("Table I", "Table VII", "Table VIII", "Table IX",
                       "Table X", "Figure 2"):
            assert marker in out


class TestNumericFlagValidation:
    """Zero/negative counts must die at the parser, naming the flag."""

    @pytest.mark.parametrize("flags", [
        ["--workers", "0"],
        ["--workers", "-1"],
        ["--workers", "2.5"],
        ["--prefetch", "0"],
        ["--chunk-size", "0"],
        ["--chunk-size", "-4"],
        ["--work-group-size", "0"],
        ["--max-retries", "-1"],
        ["--max-retries", "nope"],
        ["--chunk-deadline", "0"],
        ["--chunk-deadline", "-0.5"],
        ["--chunk-deadline", "nan"],
        ["--chunk-deadline", "inf"],
    ])
    def test_bad_values_rejected(self, flags, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["input.txt"] + flags)
        assert flags[0] in capsys.readouterr().err

    def test_good_values_accepted(self):
        args = build_parser().parse_args(
            ["input.txt", "--workers", "2", "--max-retries", "0",
             "--chunk-deadline", "0.5"])
        assert args.workers == 2
        assert args.max_retries == 0
        assert args.chunk_deadline == 0.5


class TestServiceSubcommands:
    """`serve` / `query` ride the same entry point as the flat CLI."""

    @staticmethod
    def _serve_in_thread(tmp_path, extra=()):
        import threading
        ready = tmp_path / "ready"
        argv = ["serve", "--pattern", "NNNNNNRG", "--synthetic", "hg19",
                "--scale", "0.00005", "--seed", "7", "--port", "0",
                "--max-wait-ms", "1", "--ready-file", str(ready),
                "--duration-s", "30"] + list(extra)
        thread = threading.Thread(target=main, args=(argv,),
                                  daemon=True)
        thread.start()
        for _ in range(300):
            if ready.exists():
                break
            import time
            time.sleep(0.1)
        else:
            raise AssertionError("serve never wrote the ready file")
        host, port = ready.read_text().split()
        return host, port, thread

    def test_serve_query_byte_identical_to_offline(self, tmp_path,
                                                   input_file):
        offline = tmp_path / "offline.tsv"
        assert main([str(input_file), "--synthetic", "hg19",
                     "--scale", "0.00005", "--seed", "7",
                     "-o", str(offline)]) == 0
        host, port, _ = self._serve_in_thread(tmp_path)
        served = tmp_path / "served.tsv"
        assert main(["query", "GACGTCNN:3", "TTACGANN:2",
                     "--host", host, "--port", port,
                     "-o", str(served)]) == 0
        assert served.read_bytes() == offline.read_bytes()

    def test_serve_saves_and_warm_starts_index(self, tmp_path):
        index_dir = tmp_path / "index"
        host, port, _ = self._serve_in_thread(
            tmp_path, ["--index-dir", str(index_dir)])
        assert (index_dir / "index.json").exists()
        assert (index_dir / "sites.npz").exists()
        ready2 = tmp_path / "ready2"
        warm = ["serve", "--synthetic", "hg19", "--scale", "0.00005",
                "--seed", "7", "--index-dir", str(index_dir),
                "--port", "0", "--ready-file", str(ready2),
                "--duration-s", "5"]
        import threading
        import time
        thread = threading.Thread(target=main, args=(warm,),
                                  daemon=True)
        thread.start()
        for _ in range(300):
            if ready2.exists():
                break
            time.sleep(0.1)
        else:
            raise AssertionError("warm start never became ready")
        host2, port2 = ready2.read_text().split()
        served = tmp_path / "warm.tsv"
        assert main(["query", "GACGTCNN:3", "--host", host2,
                     "--port", port2, "-o", str(served)]) == 0
        assert served.stat().st_size > 0

    def test_serve_rebuilds_stale_index_format(self, tmp_path, capsys):
        """An index directory in an older on-disk format is rebuilt
        and rewritten, and the next start warm-loads the new one."""
        index_dir = tmp_path / "index"
        argv = ["serve", "--pattern", "NNNNNNRG", "--synthetic", "hg19",
                "--scale", "0.00005", "--seed", "7", "--index-dir",
                str(index_dir), "--port", "0", "--duration-s", "0.2"]
        assert main(argv) == 0
        manifest = index_dir / "index.json"
        header = json.loads(manifest.read_text())
        header["version"] = 6
        manifest.write_text(json.dumps(header))
        capsys.readouterr()
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "stale index format" in err
        assert f"# index saved to {index_dir}" in err
        assert json.loads(manifest.read_text())["version"] == 7
        assert main(argv) == 0
        assert f"# loaded index from {index_dir}" in \
            capsys.readouterr().err

    def test_serve_refuses_stale_ready_file(self, tmp_path):
        """A pre-existing ready file means another server may be
        announcing this port; starting anyway would race it."""
        ready = tmp_path / "ready"
        ready.write_text("127.0.0.1 12345\n")
        with pytest.raises(SystemExit, match="already exists"):
            main(["serve", "--pattern", "NNNNNNRG",
                  "--synthetic", "hg19", "--scale", "0.00005",
                  "--ready-file", str(ready), "--duration-s", "1"])
        assert ready.exists(), "refusal must not delete the file"

    def test_serve_removes_ready_file_on_shutdown(self, tmp_path):
        ready = tmp_path / "ready"
        assert main(["serve", "--pattern", "NNNNNNRG",
                     "--synthetic", "hg19", "--scale", "0.00005",
                     "--seed", "7", "--port", "0",
                     "--ready-file", str(ready),
                     "--duration-s", "1"]) == 0
        assert not ready.exists(), \
            "a stopped server must stop announcing its port"

    def test_query_bad_spec_rejected(self):
        with pytest.raises(SystemExit, match="SEQ:MM"):
            main(["query", "GACGTCNN", "--port", "1"])

    @pytest.mark.parametrize("command", ["query", "variants"])
    def test_bad_spec_refused_before_connecting(self, command,
                                                monkeypatch):
        """A spec without a colon and one with a non-integer budget
        exit with one message, and no connection is tried."""
        def no_connection(*args, **kwargs):
            raise AssertionError("connected before checking the spec")

        monkeypatch.setattr(socket, "create_connection", no_connection)
        for spec in ("GACGTCNN", "GACGTCNN:x"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, spec, "--port", "1"])
            assert str(exit_info.value) == (
                f"error: bad query spec {spec!r}; expected SEQ:MM "
                f"(e.g. GACGTCNN:3)")

    def test_query_unreachable_service_errors(self):
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["query", "GACGTCNN:3", "--host", "127.0.0.1",
                  "--port", "1"])

    @pytest.mark.parametrize("argv", [
        ["serve", "--pattern", "NNNNNNRG"],
        ["design", "chr1:0-300", "--mismatches", "2"],
        ["variants", "GACGTCNN:3"],
    ])
    def test_serving_commands_take_no_chunk_size(self, argv, capsys):
        """The serving index scans each chromosome whole; only the
        offline search keeps ``--chunk-size``."""
        with pytest.raises(SystemExit):
            main(argv + ["--chunk-size", "4096"])
        assert "unrecognized arguments: --chunk-size 4096" in \
            capsys.readouterr().err

    def test_serve_requires_pattern_without_index(self, capsys):
        with pytest.raises(SystemExit, match="pattern"):
            main(["serve", "--synthetic", "hg19",
                  "--scale", "0.00005"])

    @pytest.mark.parametrize("flags", [
        ["--max-batch", "0"],
        ["--max-queue", "0"],
        ["--max-wait-ms", "-1"],
        ["--port", "-1"],
        ["--duration-s", "0"],
    ])
    def test_serve_numeric_validation(self, flags, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--pattern", "NNNNNNRG",
                  "--synthetic", "hg19"] + flags)
        assert flags[0] in capsys.readouterr().err

    def test_flat_invocation_unbroken_by_dispatch(self, tmp_path,
                                                  input_file):
        """A positional input file must not be mistaken for a
        subcommand."""
        out = tmp_path / "hits.tsv"
        assert main([str(input_file), "--synthetic", "hg19",
                     "--scale", "0.00005", "-o", str(out)]) == 0
        assert out.stat().st_size > 0
