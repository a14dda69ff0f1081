"""Tests for the command-line interface (repro.cli)."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "pulse", "--steps", "5"])
        assert args.problem == "pulse"
        assert args.ndim == 2
        assert not args.no_adapt

    def test_unknown_problem_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "warp_drive", "--steps", "1"])


class TestBadInput:
    # Each row once crashed with a traceback or ran and exited 0; each is
    # now a usage error that names the flag or problem it rejects.
    @pytest.mark.parametrize("argv,named", [
        ("run pulse --steps 2 --report-every 0", "--report-every"),
        ("scaling --steps 0", "--steps"),
        ("emulate pulse --ranks 0", "--ranks"),
        ("emulate pulse --ranks -1", "--ranks"),
        ("run pulse --steps 2 --checkpoint-every 1 --checkpoint-keep 0",
         "--checkpoint-keep"),
        ("run orszag_tang --ndim 3 --steps 1", "orszag_tang"),
        ("emulate pulse --steps -3", "--steps"),
        ("emulate solar_wind --steps 1", "solar_wind"),
        ("emulate comet --steps 1", "comet"),
        ("run pulse --steps -1", "--steps"),
    ])
    def test_exits_2_with_one_error_line(self, argv, named, capsys):
        assert main(argv.split()) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and named in errors[0], err
        assert "Traceback" not in err


class TestRun:
    def test_run_needs_target(self, capsys):
        assert main(["run", "pulse"]) == 2
        assert "give --steps" in capsys.readouterr().err

    def test_run_pulse(self, capsys):
        rc = main(["run", "pulse", "--steps", "3", "--report-every", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "advecting_pulse_2d" in out
        assert "final grid" in out
        assert "phase timings" in out

    def test_run_static_grid(self, capsys):
        rc = main(["run", "pulse", "--steps", "2", "--no-adapt"])
        out = capsys.readouterr().out
        assert rc == 0
        # Static grid: all blocks at the root level.
        assert "levels: 0..0" in out

    def test_run_t_end(self, capsys):
        rc = main(["run", "pulse", "--t-end", "0.01", "--no-adapt"])
        assert rc == 0

    def test_run_with_reflux(self, capsys):
        rc = main(["run", "pulse", "--steps", "2", "--reflux"])
        assert rc == 0

    def test_save_and_info_roundtrip(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.npz")
        assert main(["run", "pulse", "--steps", "2", "--save", ck]) == 0
        capsys.readouterr()
        assert main(["info", ck]) == 0
        out = capsys.readouterr().out
        assert "conserved totals" in out
        assert "blocks:" in out

    def test_info_validate(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.npz")
        assert main(["run", "pulse", "--steps", "2", "--save", ck]) == 0
        capsys.readouterr()
        assert main(["info", ck, "--validate"]) == 0
        assert "forest invariants: OK" in capsys.readouterr().out

    def test_info_rejects_corrupt_checkpoint(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"garbage")
        assert main(["info", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestResilienceFlags:
    def test_checkpoint_every_rotates(self, tmp_path, capsys):
        ckdir = tmp_path / "ckpts"
        rc = main([
            "run", "pulse", "--steps", "5",
            "--checkpoint-every", "1", "--checkpoint-dir", str(ckdir),
            "--checkpoint-keep", "2",
        ])
        assert rc == 0
        assert "checkpoint ->" in capsys.readouterr().out
        names = sorted(p.name for p in ckdir.glob("*.npz"))
        assert names == ["ckpt-00000004.npz", "ckpt-00000005.npz"]

    def test_resume_continues_from_checkpoint(self, tmp_path, capsys):
        ckdir = tmp_path / "ckpts"
        assert main([
            "run", "pulse", "--steps", "3",
            "--checkpoint-every", "1", "--checkpoint-dir", str(ckdir),
        ]) == 0
        capsys.readouterr()
        rc = main([
            "run", "pulse", "--steps", "5", "--report-every", "1",
            "--resume", str(ckdir / "ckpt-00000003.npz"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resumed from" in out and "at step 3" in out
        assert "     5 " in out  # reached the absolute step target

    def test_resume_rejects_bad_checkpoint(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"garbage")
        rc = main(["run", "pulse", "--steps", "2", "--resume", str(bad)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_safe_mode_flag(self, capsys):
        rc = main(["run", "pulse", "--steps", "2", "--safe-mode"])
        assert rc == 0

    def test_checkpoint_every_must_be_positive(self, capsys):
        rc = main(["run", "pulse", "--steps", "2", "--checkpoint-every", "0"])
        assert rc == 2
        assert "--checkpoint-every" in capsys.readouterr().err


class TestOtherCommands:
    def test_scaling(self, capsys):
        rc = main(["scaling", "--steps", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "efficiency:" in out
        assert "P=512" in out


class TestEmulate:
    def test_emulate_matches_serial(self, capsys):
        rc = main(["emulate", "pulse", "--ranks", "3", "--steps", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max |emulated - serial| = 0.000e+00" in out
        assert "OK" in out

    def test_emulate_reports_traffic(self, capsys):
        rc = main(["emulate", "pulse", "--ranks", "2", "--steps", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wire messages:" in out
        assert "cells/rank" in out

    def test_emulate_survives_rank_kill(self, tmp_path, capsys):
        rc = main([
            "emulate", "pulse", "--ranks", "4", "--steps", "5",
            "--kill", "2:1", "--checkpoint-every", "1",
            "--checkpoint-dir", str(tmp_path / "ck"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "recovered from rank-failure at step 2" in out
        assert "survivors: ranks [0, 2, 3]" in out
        assert "max |emulated - serial| = 0.000e+00" in out

    @pytest.mark.parametrize("flag,kind", [
        ("--drop-message", "message-drop"),
        ("--corrupt-message", "message-corrupt"),
    ])
    def test_emulate_survives_message_fault(self, flag, kind, capsys):
        rc = main([
            "emulate", "pulse", "--ranks", "3", "--steps", "4",
            flag, "1:5",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"recovered from {kind} at step 1" in out
        assert "max |emulated - serial| = 0.000e+00" in out

    def test_emulate_rejects_malformed_fault_spec(self, capsys):
        assert main(["emulate", "pulse", "--kill", "nonsense"]) == 2
        # the supervision/retry tuning lives in ProcConfig and RetryPolicy
        # only, and "auto" was the "local" policy under a second name
        for argv in (
            ["--phase-timeout", "2"], ["--hard-timeout", "30"],
            ["--heartbeat-interval", "0.05"], ["--heartbeat-timeout", "1.5"],
            ["--respawn-max", "2"], ["--retry-backoff", "1e-4"],
            ["--partner-refresh-every", "1"], ["--recovery-strategy", "auto"],
        ):
            assert main(["emulate", "pulse", *argv]) == 2
            assert argv[0] in capsys.readouterr().err

    def test_emulate_record_writes_valid_stream(self, tmp_path, capsys):
        from repro.obs import read_events, validate_events

        out = tmp_path / "emulate.jsonl"
        rc = main([
            "emulate", "pulse", "--ranks", "2", "--steps", "2",
            "--record", str(out),
        ])
        assert rc == 0
        assert "event stream written to" in capsys.readouterr().out
        events = read_events(out)
        assert validate_events(events) == []
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "meta"
        assert kinds.count("step") == 2
        assert kinds[-1] == "exchange"
        assert events[-1]["n_messages"] > 0


class TestProfileAndReport:
    def _profile(self, tmp_path, *extra):
        out = tmp_path / "run.jsonl"
        rc = main([
            "profile", "pulse", "--steps", "2",
            "--engines", "blocked,batched", "--out", str(out), *extra,
        ])
        return rc, out

    def test_profile_writes_stream_and_report(self, tmp_path, capsys):
        from repro.obs import read_events, validate_events

        rc, out = self._profile(tmp_path)
        text = capsys.readouterr().out
        assert rc == 0
        assert "phase breakdown" in text
        assert "hottest blocks" in text
        assert "engine comparison" in text
        assert "batched speedup:" in text
        events = read_events(out)
        assert validate_events(events) == []
        kinds = [e["kind"] for e in events]
        assert kinds.count("profile") == 2
        assert kinds.count("summary") == 1

    def test_profile_single_engine(self, tmp_path, capsys):
        out = tmp_path / "one.jsonl"
        rc = main([
            "profile", "pulse", "--steps", "2",
            "--engines", "batched", "--out", str(out),
        ])
        assert rc == 0
        assert "engine: batched" in capsys.readouterr().out

    def test_profile_rejects_unknown_engine(self, tmp_path, capsys):
        rc = main([
            "profile", "pulse", "--steps", "1", "--engines", "warp",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 2
        assert "--engines" in capsys.readouterr().err

    def test_profile_rejects_zero_steps(self, tmp_path, capsys):
        rc = main([
            "profile", "pulse", "--steps", "0",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 2
        assert "--steps" in capsys.readouterr().err

    def test_report_roundtrip(self, tmp_path, capsys):
        rc, out = self._profile(tmp_path)
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "profile run" in text
        assert "engine comparison" in text

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_report_rejects_invalid_stream(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"v": 1, "t": 0.0, "kind": "warp"}\n')
        assert main(["report", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "schema:" in err and "unknown kind" in err

    def test_report_rejects_truncated_stream(self, tmp_path, capsys):
        bad = tmp_path / "trunc.jsonl"
        bad.write_text('{"v": 1, "t": 0.0, "ki')
        assert main(["report", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err
